"""Append-only checkpoint journals for campaign shards.

Each shard writes one journal: a header line identifying the campaign
configuration, then a line per completed site carrying the site's
population index and its per-site outcome as a plain dict. A shard
process killed mid-run leaves a valid prefix (plus at most one torn final
line, which the loader discards); on resume the shard replays the
recorded outcomes instead of re-fetching, then continues from the first
unrecorded site. Because per-site outcomes are additive and
order-independent, the merged campaign result is bit-identical to an
uninterrupted run.

Format: one JSON object per line. The first line is the header,
``{"v": 2, "fp": <fingerprint>}``; every following line is
``{"i": <index>, "d": <outcome dict>}``. JSON framing makes torn-write
detection trivial. The campaign owns the outcome schema: it records
``outcome.to_dict()`` and hands :meth:`CheckpointJournal.load` the
matching ``from_dict``, so a journal line is data, never code. A line
whose ``d`` the decoder rejects counts as undecodable, like a torn one.

The fingerprint pins the journal to one campaign configuration (dataset,
seed, scale, fault plan, shard partition — see
``repro.analysis.parallel``). A journal whose header does not match the
resuming run — another fingerprint, or another format version — is
*stale* and is discarded wholesale rather than replayed: its sites
re-run, and the first ``record()`` truncates the file under the new
header. Without this check, resuming with, say, a different seed would
silently splice the old run's outcomes into the new run's results.
Version-1 journals, whose payloads were serialized Python objects, are
stale under this rule: their sites re-run and no payload is decoded.

The journal deliberately stays outside the versioned-JSONL artifact
contract of :mod:`repro.obs.artifact`: it is an append-only recovery log,
not a run artifact. A stale fingerprint discards it instead of raising,
and a torn final line is expected and dropped instead of being an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Optional

JOURNAL_VERSION = 2


class CheckpointCorruptError(RuntimeError):
    """A journal has an undecodable line *before* its final line.

    Append-and-flush writes can only tear the tail, so damage anywhere
    else is genuine corruption (or the wrong file) — surfaced instead of
    silently skipped, because skipping would merge a partial replay as if
    it were complete.
    """


@dataclass
class CheckpointJournal:
    """One shard's crash-safe progress journal."""

    path: Path
    #: campaign fingerprint written to (and checked against) the header;
    #: a mismatch marks the journal stale and ``load()`` returns nothing
    fingerprint: str = ""
    _handle: Optional[IO[str]] = field(default=None, repr=False)
    _stale: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self.path = Path(self.path)

    def load(self, decode: Callable[[dict], object] = dict) -> dict[int, object]:
        """Completed ``index → decode(payload)``; drops at most a torn tail.

        ``decode`` turns a line's payload dict back into an outcome and
        raises on one it does not recognize; the default returns the
        dict. A missing, header-less, or fingerprint-mismatched journal
        loads empty (and is truncated by the next ``record()``). An
        undecodable line before the final line raises
        :class:`CheckpointCorruptError`.
        """
        if not self.path.exists():
            return {}
        lines = self.path.read_text().splitlines()
        if not self._header_matches(lines):
            self._stale = True
            return {}
        done: dict[int, object] = {}
        body = lines[1:]
        for position, raw in enumerate(body):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                index = int(record["i"])
                payload = record["d"]
                if not isinstance(payload, dict):
                    raise TypeError(f"payload is {type(payload).__name__}, not a dict")
                outcome = decode(payload)
            except Exception as exc:
                if any(later.strip() for later in body[position + 1:]):
                    raise CheckpointCorruptError(
                        f"{self.path}: undecodable journal line "
                        f"{position + 2} is not a torn tail"
                    ) from exc
                break  # torn final line from a mid-write kill: the site re-runs
            done[index] = outcome
        return done

    def _header_matches(self, lines: list[str]) -> bool:
        if not lines:
            return False
        try:
            header = json.loads(lines[0])
            return (
                isinstance(header, dict)
                and header.get("v") == JOURNAL_VERSION
                and header.get("fp") == self.fingerprint
            )
        except Exception:
            return False  # torn or foreign header: treat the file as stale

    def record(self, index: int, payload: dict) -> None:
        """Append one completed site's outcome dict; flushed so a kill
        loses at most the lines still in the OS page cache (which the
        loader tolerates)."""
        if not isinstance(payload, dict):
            raise TypeError(f"journal payloads are dicts, not {type(payload).__name__}")
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = (
                self._stale
                or not self.path.exists()
                or self.path.stat().st_size == 0
            )
            self._handle = open(self.path, "w" if fresh else "a")
            if fresh:
                self._handle.write(
                    json.dumps({"v": JOURNAL_VERSION, "fp": self.fingerprint}) + "\n"
                )
                self._stale = False
        self._handle.write(json.dumps({"i": index, "d": payload}) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def shard_journal(
    directory: Optional[str], campaign: str, shard_id: int, fingerprint: str = ""
) -> Optional[CheckpointJournal]:
    """The journal for one shard of one campaign pass, or ``None``.

    ``campaign`` must identify the pass uniquely within the directory —
    the sharded campaigns prefix it with the dataset name so the four
    datasets of a ``reproduce`` run never share a journal file.
    """
    if directory is None:
        return None
    return CheckpointJournal(
        Path(directory) / f"{campaign}-shard{shard_id:04d}.journal",
        fingerprint=fingerprint,
    )
