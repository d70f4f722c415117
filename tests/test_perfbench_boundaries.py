"""The benchmark's tracer can patch every boundary it names, and undo it.

``perfbench/tracing.py`` wraps program functions by module and attribute
name, and ``Tracer.install`` raises ``KeyError`` or ``AttributeError``
when one is gone. No other test imports the benchmark, so a rename or a
deletion in ``src/`` would otherwise break its ``--trace 1`` mode
silently.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

tracing = importlib.import_module("perfbench.tracing")


def _targets() -> list:
    """``(owner, attribute, current value)`` of every boundary target."""
    found = []
    for _layer, targets in tracing.BOUNDARIES.values():
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            *owner_path, attribute = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            value = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            found.append((owner, attribute, value))
    return found


def test_install_patches_every_boundary_and_uninstall_restores_it():
    before = _targets()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = _targets()
    finally:
        tracer.uninstall()
    assert len(tracer._patches) == 0
    for (owner, attribute, original), (_, _, wrapped) in zip(before, patched):
        assert wrapped is not original, f"{owner.__name__}.{attribute} was not patched"
    for (owner, attribute, original), (_, _, restored) in zip(before, _targets()):
        assert restored is original, f"{owner.__name__}.{attribute} was not restored"
