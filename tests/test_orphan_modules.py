"""Every module under ``src/repro`` is reached by code that runs.

A module counts as reached when a file in ``src/``, ``benchmarks/``,
``perfbench/`` or ``examples/`` imports it, other than a package
``__init__`` re-exporting it. A name such a package ``__init__``
re-exports reaches the module it comes from only when one of those files
imports the name through the package. Tests do not count: a module only
its own tests import is code that no run, benchmark or example uses.

The scan reads the import statements with :mod:`ast`, so imports inside
functions count and nothing is executed.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

#: reached from outside the scanned files
ALLOWED = {
    # the ``repro-mining`` console script in pyproject.toml
    "repro.cli",
    # the wasm validator, kept to gain a caller in the hostile-capture
    # contract (ROADMAP item 3)
    "repro.wasm.validator",
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imports(tree: ast.AST) -> list:
    """``(module, name or None)`` for every import in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found += [(node.module, alias.name) for alias in node.names]
    return found


def unreached_modules() -> list:
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        modules[_module_name(path)] = path
    packages = {name for name, path in modules.items() if path.name == "__init__.py"}
    # package -> {re-exported name: the module it is imported from}
    exports = {
        package: {
            name: source
            for source, name in _imports(ast.parse(modules[package].read_text()))
            if name is not None and source in modules
        }
        for package in packages
    }
    reached = set()
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            if path.name == "__init__.py" and path.is_relative_to(SRC):
                continue
            for source, name in _imports(ast.parse(path.read_text())):
                submodule = f"{source}.{name}" if name else None
                if submodule in modules:
                    reached.add(submodule)
                elif source in packages and name is not None:
                    reached.add(exports[source].get(name, source))
                else:
                    reached.add(source)
    return sorted(
        name
        for name in modules
        if name not in packages and name not in reached and name not in ALLOWED
    )


def test_every_module_is_reached_by_code_that_runs():
    unreached = unreached_modules()
    assert not unreached, f"only tests import {', '.join(unreached)}"


def test_allowlist_names_existing_modules():
    names = {_module_name(path) for path in (SRC / "repro").rglob("*.py")}
    assert ALLOWED <= names
