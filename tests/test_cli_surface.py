"""The CLI surface is pinned: every parser action matches ``tests/golden/cli_surface.json``.

Each action of every (sub)parser is recorded by subcommand path, option
strings and ``dest``, with its default, type, choices, ``nargs``,
``required`` flag and action class. Help text is left out, so wording may
change; a flag that appears, disappears or changes its default fails.

Regenerate the golden after a deliberate surface change with::

    PYTHONPATH=src python -m tests.test_cli_surface --update
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.cli import build_parser

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_surface.json"


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def surface(parser: argparse.ArgumentParser, path: tuple = ()) -> list:
    """One record per action, sorted by subcommand path and option strings."""
    records = []
    for action in parser._actions:
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            choices = sorted(choices)
        elif choices is not None:
            choices = list(choices)
        records.append(
            {
                "path": " ".join(path),
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": _jsonable(action.default),
                "type": getattr(action.type, "__name__", None),
                "choices": _jsonable(choices),
                "nargs": _jsonable(action.nargs),
                "required": action.required,
                "action": type(action).__name__,
            }
        )
        if isinstance(action, argparse._SubParsersAction):
            for name, sub_parser in action.choices.items():
                records += surface(sub_parser, path + (name,))
    return sorted(records, key=lambda r: (r["path"], r["options"], r["dest"]))


def test_parser_matches_golden_surface():
    expected = json.loads(GOLDEN.read_text())
    actual = surface(build_parser())
    expected_keys = {(r["path"], tuple(r["options"]), r["dest"]) for r in expected}
    actual_keys = {(r["path"], tuple(r["options"]), r["dest"]) for r in actual}
    assert sorted(actual_keys - expected_keys) == [], "actions added"
    assert sorted(expected_keys - actual_keys) == [], "actions dropped"
    for want, got in zip(expected, actual):
        assert got == want


def test_surface_covers_every_subcommand():
    paths = {record["path"] for record in surface(build_parser())}
    for command in ("crawl", "serve", "loadgen", "reproduce", "obs graph query"):
        assert command in paths


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.test_cli_surface --update")
    GOLDEN.write_text(json.dumps(surface(build_parser()), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
