"""Structured detection evidence and the persisted verdict ledger.

Every detection decision in the pipeline — a NoCoin rule firing, a Wasm
signature lookup, an instruction-mix threshold test, a WebSocket backend
match, a Merkle-root block attribution — can be captured as an
:class:`Evidence` record: which detector spoke, what it concluded, and
the concrete facts (rule text + line number, signature hex + hash count,
feature value vs. threshold, cluster id + Merkle root) that produced the
conclusion. A :class:`VerdictRecord` bundles one subject's verdict (a
crawled domain, or an attributed block) with its evidence chain.

Verdicts persist as ``verdicts.jsonl`` in the run ledger, one verdict
object per line under the versioned-JSONL contract of
:mod:`repro.obs.artifact`, so the file is byte-identical for the same
seed + config.

The disabled-observability path never builds these objects: campaigns
only collect evidence when their ``Obs`` context is enabled, so
``NULL_OBS`` runs perform zero evidence construction and serialization
(pinned in ``benchmarks/bench_perf_primitives.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.artifact import ArtifactFormat, write_atomic

#: Version of the on-disk verdict format this module reads and writes.
EVIDENCE_SCHEMA_VERSION = 1

_EVIDENCE_FIELDS = ("detector", "verdict", "summary", "details")
_VERDICT_FIELDS = (
    "subject",
    "dataset",
    "pipeline",
    "kind",
    "status",
    "nocoin_hit",
    "wasm_present",
    "is_miner",
    "family",
    "method",
    "confidence",
    "stratum",
    "evidence",
)

VERDICTS = ArtifactFormat("verdicts", EVIDENCE_SCHEMA_VERSION, record_keys=("subject",))


@dataclass(frozen=True)
class Evidence:
    """One detector's contribution to a verdict.

    ``details`` is an ordered tuple of ``(key, value)`` string pairs — the
    concrete facts behind the conclusion, in the order the detector
    produced them (rule citation first, matched span second, ...).
    """

    detector: str  # nocoin | signature | name-hint | instruction-mix | backend | websocket | dynamic | pool
    verdict: str   # short machine verdict: "hit", "miner", "benign", "attributed", ...
    summary: str   # one human-readable sentence
    details: tuple = ()

    def to_dict(self) -> dict:
        return {
            "detector": self.detector,
            "verdict": self.verdict,
            "summary": self.summary,
            "details": [[key, value] for key, value in self.details],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Evidence":
        unknown = set(payload) - set(_EVIDENCE_FIELDS)
        if unknown:
            raise ValueError(f"unknown evidence fields: {sorted(unknown)}")
        return cls(
            detector=payload["detector"],
            verdict=payload["verdict"],
            summary=payload.get("summary", ""),
            details=tuple(
                (str(key), str(value)) for key, value in payload.get("details", [])
            ),
        )


@dataclass(frozen=True)
class VerdictRecord:
    """One subject's detection verdict plus its evidence chain.

    ``subject`` is the crawled domain for page verdicts and a
    ``block-<height>`` identifier for pool-attributed blocks; ``pipeline``
    names which pass produced it (``zgrab0``/``zgrab1``/``chrome``/
    ``pool``).
    """

    subject: str
    dataset: str
    pipeline: str
    kind: str = "page"  # page | block
    status: str = "ok"
    nocoin_hit: bool = False
    wasm_present: bool = False
    is_miner: bool = False
    family: str = ""
    method: str = ""
    confidence: float = 0.0
    #: rank stratum of the subject (streaming populations; "" legacy)
    stratum: str = ""
    evidence: tuple = ()

    def to_dict(self) -> dict:
        payload = {
            "subject": self.subject,
            "dataset": self.dataset,
            "pipeline": self.pipeline,
            "kind": self.kind,
            "status": self.status,
            "nocoin_hit": self.nocoin_hit,
            "wasm_present": self.wasm_present,
            "is_miner": self.is_miner,
            "family": self.family,
            "method": self.method,
            "confidence": self.confidence,
            "evidence": [item.to_dict() for item in self.evidence],
        }
        if self.stratum:
            # emitted only when set: legacy verdicts.jsonl stays byte-identical
            payload["stratum"] = self.stratum
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "VerdictRecord":
        unknown = set(payload) - set(_VERDICT_FIELDS)
        if unknown:
            raise ValueError(f"unknown verdict fields: {sorted(unknown)}")
        return cls(
            subject=payload["subject"],
            dataset=payload.get("dataset", ""),
            pipeline=payload.get("pipeline", ""),
            kind=payload.get("kind", "page"),
            status=payload.get("status", "ok"),
            nocoin_hit=bool(payload.get("nocoin_hit", False)),
            wasm_present=bool(payload.get("wasm_present", False)),
            is_miner=bool(payload.get("is_miner", False)),
            family=payload.get("family", ""),
            method=payload.get("method", ""),
            confidence=float(payload.get("confidence", 0.0)),
            stratum=payload.get("stratum", ""),
            evidence=tuple(
                Evidence.from_dict(item) for item in payload.get("evidence", [])
            ),
        )


# ---------------------------------------------------------------------------
# serialization


def verdicts_to_jsonl(records: Iterable[VerdictRecord]) -> str:
    return VERDICTS.encode(record.to_dict() for record in records)


def parse_verdicts_jsonl(text: str) -> list:
    """Inverse of :func:`verdicts_to_jsonl` (lossless round-trip)."""
    return VERDICTS.decode(text, VerdictRecord.from_dict)[1]


def write_verdicts_jsonl(path, records: Iterable[VerdictRecord]) -> int:
    """Write a verdicts file; returns the record count."""
    records = list(records)
    write_atomic(path, verdicts_to_jsonl(records))
    return len(records)


def read_verdicts_jsonl(path) -> list:
    """Load a ``verdicts.jsonl`` back into :class:`VerdictRecord` objects."""
    return VERDICTS.read(path, VerdictRecord.from_dict)[1]


# ---------------------------------------------------------------------------
# rendering (the `repro obs explain` view)


def render_verdict(record: VerdictRecord) -> str:
    """Human-readable evidence chain for one verdict."""
    mark = "MINER" if record.is_miner else ("error" if record.status != "ok" else "clean")
    lines = [
        f"{record.subject} [{record.dataset}/{record.pipeline}] -> {mark}",
        f"  nocoin_hit={record.nocoin_hit} wasm_present={record.wasm_present}"
        + (
            f" family={record.family} method={record.method}"
            f" confidence={record.confidence:g}"
            if record.is_miner
            else ""
        ),
    ]
    if not record.evidence:
        lines.append("  (no evidence recorded)")
    for item in record.evidence:
        lines.append(f"  [{item.detector}] {item.verdict}: {item.summary}")
        for key, value in item.details:
            lines.append(f"      {key} = {value}")
    return "\n".join(lines)
