"""Unified metrics registry with a single merge law.

Campaign accounting used to be split across ad-hoc aggregations —
``ShardMetrics``/``CampaignMetrics`` summed their own fields, the
``FaultLedger`` merged its own counters. The registry subsumes them under
one algebra so every aggregation path (serial, process, resumed)
is the *same* operation:

- **counters** — monotone event counts; merge by integer addition,
- **gauges** — high-water marks (queue depths, peak RSS); merge by max,
- **histograms** — latency distributions over fixed bucket bounds; merge
  bucket-wise. Durations are stored as integer nanoseconds, so merging is
  exactly associative and commutative (no float re-association drift) and
  an empty registry is a true identity element. The property suite
  (``tests/test_obs_properties.py``) pins these laws.

Everything serializes to plain dicts (:meth:`MetricsRegistry.to_dict` /
:meth:`from_dict`) for checkpointing and cross-process transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Default latency bucket upper bounds, in seconds (last bucket is +inf).
DEFAULT_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

_NS = 1_000_000_000


def _to_ns(seconds: float) -> int:
    return int(round(seconds * _NS))


@dataclass
class Histogram:
    """Fixed-bound latency histogram with exact integer arithmetic."""

    bounds: tuple = DEFAULT_BOUNDS  # ascending upper bounds, seconds
    counts: list = None  # len(bounds) + 1 (last = overflow)
    count: int = 0
    total_ns: int = 0
    min_ns: Optional[int] = None
    max_ns: Optional[int] = None

    def __post_init__(self) -> None:
        self.bounds = tuple(self.bounds)
        # bucketing compares in the exact integer-ns domain: dividing ns
        # by 1e9 can round an observation *down* onto a bound it exceeds,
        # silently shifting it a bucket low at bucket boundaries
        self._bounds_ns = tuple(_to_ns(bound) for bound in self.bounds)
        if self.counts is None:
            self.counts = [0] * (len(self.bounds) + 1)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError("counts must have len(bounds) + 1 entries")

    def observe(self, seconds: float) -> None:
        self.observe_ns(_to_ns(seconds))

    def observe_ns(self, ns: int) -> None:
        bucket = len(self.bounds)
        for i, bound_ns in enumerate(self._bounds_ns):
            if ns <= bound_ns:
                bucket = i
                break
        self.counts[bucket] += 1
        self.count += 1
        self.total_ns += ns
        self.min_ns = ns if self.min_ns is None else min(self.min_ns, ns)
        self.max_ns = ns if self.max_ns is None else max(self.max_ns, ns)

    def merge(self, other: "Histogram") -> "Histogram":
        if self.bounds != other.bounds:
            raise ValueError(f"bucket bounds differ: {self.bounds} vs {other.bounds}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total_ns += other.total_ns
        if other.min_ns is not None:
            self.min_ns = other.min_ns if self.min_ns is None else min(self.min_ns, other.min_ns)
        if other.max_ns is not None:
            self.max_ns = other.max_ns if self.max_ns is None else max(self.max_ns, other.max_ns)
        return self

    # -- summary statistics ---------------------------------------------------------

    @property
    def mean_seconds(self) -> float:
        return (self.total_ns / self.count) / _NS if self.count else 0.0

    @property
    def total_seconds(self) -> float:
        return self.total_ns / _NS

    @property
    def max_seconds(self) -> float:
        return (self.max_ns or 0) / _NS

    @property
    def min_seconds(self) -> float:
        return (self.min_ns or 0) / _NS

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket.

        Exact at the extremes (min/max are tracked precisely); inner
        quantiles are bucket-resolution, which is what a merged-histogram
        representation can honestly offer. Inner results are clamped into
        ``[min, max]`` so quantiles are monotone in ``q`` even when a
        bound's float form sits a hair under the tracked extreme.
        """
        if not self.count:
            return 0.0
        if q <= 0:
            return self.min_seconds
        if q >= 1:
            return self.max_seconds
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                if i < len(self.bounds):
                    return max(min(self.bounds[i], self.max_seconds), self.min_seconds)
                return self.max_seconds
        return self.max_seconds

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        return cls(
            bounds=tuple(payload["bounds"]),
            counts=list(payload["counts"]),
            count=payload["count"],
            total_ns=payload["total_ns"],
            min_ns=payload["min_ns"],
            max_ns=payload["max_ns"],
        )


@dataclass
class MetricsRegistry:
    """Counters, gauges, and histograms under one merge law."""

    counters: dict = field(default_factory=dict)    # name → int
    gauges: dict = field(default_factory=dict)      # name → float (high-water)
    histograms: dict = field(default_factory=dict)  # name → Histogram

    # -- recording -------------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add ``n`` to a counter; zero increments are identity-preserving no-ops."""
        if n:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, seconds: float, bounds: tuple = DEFAULT_BOUNDS) -> None:
        self.observe_ns(name, _to_ns(seconds), bounds)

    def observe_ns(self, name: str, ns: int, bounds: tuple = DEFAULT_BOUNDS) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(bounds=bounds)
        histogram.observe_ns(ns)

    # -- the merge law ---------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` in: counters add, gauges max, histograms merge."""
        for name, n in other.counters.items():
            self.inc(name, n)
        for name, value in other.gauges.items():
            self.gauge_max(name, value)
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = Histogram.from_dict(histogram.to_dict())
            else:
                mine.merge(histogram)
        return self

    # -- views -----------------------------------------------------------------------

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def counters_with_prefix(self, prefix: str) -> dict:
        return {k: v for k, v in self.counters.items() if k.startswith(prefix)}

    def histogram_counts(self) -> dict:
        """name → observation count — the schedule-independent histogram view."""
        return {name: h.count for name, h in self.histograms.items()}

    def stage_names(self) -> list:
        return sorted(
            name[len("stage."):] for name in self.histograms if name.startswith("stage.")
        )

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histograms[name].to_dict() for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        return cls(
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            histograms={
                name: Histogram.from_dict(h)
                for name, h in payload.get("histograms", {}).items()
            },
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.to_dict() == other.to_dict()
