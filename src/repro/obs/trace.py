"""Lightweight structured tracing for campaign pipelines.

A :class:`Span` records one timed stage of work — ``campaign`` → ``shard``
→ ``site`` → ``fetch``/``parse``/``detect``/``ws-poll`` — with an id, a
parent link, start/end stamps from the injectable obs clock, and string
tags (``domain``, ``error_class``, …). A :class:`Tracer` hands out spans
via a context manager, auto-parenting nested spans through an explicit
stack, and serializes the collected list to JSONL (``--trace-out``).

Determinism: span ids are ``<prefix>-<sequence>``; each shard worker gets
its own tracer with a shard-derived prefix, so the id *set* of a sharded
run is independent of worker count and completion order — only the
durations reflect the real schedule. :func:`read_jsonl` inverts
:meth:`Tracer.write_jsonl` losslessly (floats round-trip exactly through
JSON's shortest-repr encoding).

File format: one span object per line under the versioned-JSONL contract
of :mod:`repro.obs.artifact`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.artifact import ArtifactFormat, write_atomic
from repro.obs.clock import get_clock

#: Version of the on-disk trace format this module reads and writes.
TRACE_SCHEMA_VERSION = 1

_FIELDS = ("span_id", "parent_id", "name", "start", "end", "tags")

TRACE = ArtifactFormat("trace", TRACE_SCHEMA_VERSION, record_keys=("span_id",))


@dataclass
class Span:
    """One timed stage of work."""

    span_id: str
    name: str
    start: float
    end: float = 0.0
    parent_id: str = ""
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def set_tag(self, key: str, value) -> None:
        self.tags[str(key)] = str(value)

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "tags": dict(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        unknown = set(payload) - set(_FIELDS)
        if unknown:
            raise ValueError(f"unknown span fields: {sorted(unknown)}")
        return cls(
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id", ""),
            name=payload["name"],
            start=payload["start"],
            end=payload.get("end", 0.0),
            tags=dict(payload.get("tags", {})),
        )


class _SpanContext:
    """Context manager closing a span (and popping the tracer stack)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc_type is not None:
            self._span.set_tag("error", exc_type.__name__)
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Collects spans for one execution context (campaign or shard).

    Not safe for concurrent use by multiple threads — the sharded
    executor gives every shard worker its own tracer and merges the span
    lists afterwards (see :meth:`adopt`), which is also what keeps ids
    deterministic.
    """

    def __init__(self, prefix: str = "t", clock=None) -> None:
        self.prefix = prefix
        self._clock = clock
        self.spans: list[Span] = []
        self._seq = 0
        self._stack: list[Span] = []

    @property
    def clock(self):
        return self._clock if self._clock is not None else get_clock()

    def span(self, name: str, **tags) -> _SpanContext:
        """Open a child of the innermost open span (or a root span)."""
        self._seq += 1
        span = Span(
            span_id=f"{self.prefix}-{self._seq}",
            name=name,
            start=self.clock.now(),
            parent_id=self._stack[-1].span_id if self._stack else "",
            tags={key: str(value) for key, value in tags.items()},
        )
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self.clock.now()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        self.spans.append(span)

    # -- aggregation ---------------------------------------------------------------

    def adopt(self, spans: Iterable[Span], parent_id: str = "") -> None:
        """Merge another tracer's spans, re-rooting orphans under ``parent_id``.

        Shard workers trace independently; the campaign adopts their span
        lists and links each shard's root spans to the campaign span, so
        the exported trace is one connected tree.
        """
        for span in spans:
            if parent_id and not span.parent_id:
                span.parent_id = parent_id
            self.spans.append(span)

    def counts_by_name(self) -> dict:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
        return counts

    # -- serialization ---------------------------------------------------------------

    def to_jsonl(self) -> str:
        return spans_to_jsonl(self.spans)

    def write_jsonl(self, path) -> int:
        """Write a header + one span object per line; returns the span count."""
        write_atomic(path, self.to_jsonl())
        return len(self.spans)


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    return TRACE.encode(span.to_dict() for span in spans)


def parse_jsonl(text: str) -> list:
    """Inverse of :func:`spans_to_jsonl` (lossless round-trip)."""
    return TRACE.decode(text, Span.from_dict)[1]


def read_jsonl(path) -> list:
    """Load a ``--trace-out`` file back into :class:`Span` objects."""
    return TRACE.read(path, Span.from_dict)[1]
