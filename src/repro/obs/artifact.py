"""The versioned-JSONL artifact contract, written once for every run-dir file.

``trace.jsonl``, ``verdicts.jsonl``, ``graph.jsonl`` and
``timeseries.jsonl`` share one on-disk shape, described by an
:class:`ArtifactFormat`:

- **Encoding.** A compact sorted-key header ``{"schema_version": N,
  ...extra}`` (the graph adds its node/edge counts, the timeseries its tick
  interval), then one compact sorted-key JSON object per line, joined by
  ``"\\n"`` with a trailing newline. Same records, same bytes.
- **Decoding.** Blank lines are skipped. The first line is the header only
  when it carries ``schema_version`` and none of the format's record keys,
  so a headerless legacy file parses with an empty header. The version
  must be an ``int`` >= 1 and no newer than the format's; a newer file is
  rejected with an upgrade hint instead of being half-read.
- **One error.** An undecodable or non-object line, a bad version, and any
  ``KeyError``/``TypeError``/``ValueError``/``AttributeError`` raised while
  building a record from its line all surface as
  :class:`ArtifactSchemaError`, naming the artifact and the 1-based line
  and quoting the line's text.
- **Writing.** :func:`write_atomic` (temp file + ``os.replace``), so a
  reader never sees a half-written artifact.

The plain-JSON run-dir files (``manifest.json``, ``metrics.json``, ...)
load through :func:`read_json`, which raises the same error, and the
manifest's ``schema_version`` goes through the same :func:`check_version`.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


class ArtifactSchemaError(ValueError):
    """A run artifact is malformed or was written by a newer schema."""


def dumps(payload: dict) -> str:
    """One artifact line: compact, sorted keys."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def check_version(version, supported: int, source: str) -> int:
    """Accept ``version`` if it is an int in ``[1, supported]``."""
    if isinstance(version, bool) or not isinstance(version, int) or version < 1:
        raise ArtifactSchemaError(f"{source}: malformed schema_version {version!r}")
    if version > supported:
        raise ArtifactSchemaError(
            f"{source}: schema v{version} is newer than v{supported}, the "
            f"newest this reader understands — upgrade repro"
        )
    return version


def write_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` in one step: temp file, then rename."""
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _reason(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc) or type(exc).__name__


def read_json(path, build: Callable[[object], object] = lambda payload: payload):
    """``build`` applied to a plain-JSON artifact (``manifest.json``, ...).

    Undecodable JSON and the errors of a record missing or mistyping a
    field become :class:`ArtifactSchemaError` naming the file.
    """
    try:
        return build(json.loads(pathlib.Path(path).read_text()))
    except ArtifactSchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ArtifactSchemaError(f"{path}: {_reason(exc)}") from exc


@dataclass(frozen=True)
class ArtifactFormat:
    """One versioned-JSONL artifact: ``<name>.jsonl``, its version and record keys."""

    name: str
    version: int
    #: keys that only record lines carry, so a header is never mistaken
    #: for a record in a headerless legacy file (or the reverse)
    record_keys: tuple

    def encode_lines(self, lines: Iterable[str], **header) -> str:
        """Header plus already-encoded record lines, newline-terminated."""
        return "\n".join([dumps({"schema_version": self.version, **header}), *lines]) + "\n"

    def encode(self, payloads: Iterable[dict], **header) -> str:
        return self.encode_lines(map(dumps, payloads), **header)

    def decode(
        self, text: str, build: Callable[[dict], object], source: Optional[str] = None
    ) -> tuple:
        """``(header, [build(payload) per record line])``.

        ``source`` names the artifact in errors (a path when read from
        disk); it defaults to ``<name>.jsonl``.
        """
        source = source or f"{self.name}.jsonl"
        header: dict = {}
        records = []
        first = True
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:
                raise self._error(source, number, "not JSON", line) from exc
            if not isinstance(payload, dict):
                raise self._error(source, number, "not a JSON object", line)
            if first and "schema_version" in payload and not any(
                key in payload for key in self.record_keys
            ):
                check_version(payload["schema_version"], self.version, f"{source} line {number}")
                header = payload
            else:
                try:
                    records.append(build(payload))
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise self._error(source, number, _reason(exc), line) from exc
            first = False
        return header, records

    def _error(self, source: str, number: int, reason: str, line: str) -> ArtifactSchemaError:
        return ArtifactSchemaError(
            f"malformed {self.name} line {number} of {source}: {reason}: {line!r}"
        )

    def read(self, path, build: Callable[[dict], object]) -> tuple:
        return self.decode(pathlib.Path(path).read_text(), build, source=str(path))
