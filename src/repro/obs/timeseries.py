"""Windowed time-series telemetry over the metrics registry.

The obs stack so far is strictly post-hoc: a run finishes, then the
toolkit reads one cumulative :class:`~repro.obs.metrics.MetricsRegistry`.
This module adds the temporal axis a long-running campaign or verdict
service needs. A :class:`TimeSeriesRecorder` is *fed* time (it never
reads a clock itself — the caller polls it with whatever clock drives the
workload: the sim clock for the service, the obs clock for campaigns)
and, on every completed tick, snapshots the registry *delta* since the
previous tick:

- **counters** → per-tick increments (rates = delta / interval),
- **gauges**  → point-in-time high-water values,
- **histograms** → windowed bucket deltas (:class:`HistogramWindow`),
  so per-window p50/p90/p99 are answerable without the cumulative tail.

Ticks land in a bounded ring buffer (``capacity`` most recent ticks) and
persist as a ``timeseries.jsonl`` run-dir artifact (the versioned-JSONL
contract of :mod:`repro.obs.artifact`, its header carrying the tick
interval) that obeys the registry merge law: merging two series merges
their ticks pointwise (counters add, gauges max, histogram buckets add),
exactly associative and commutative with the empty series as identity.

Metric names carry *service dimensions* inline
(``service.tenant.tenant-0.offered``, ``service.tier.static-only``,
``crawl.zgrab0.stratum.top1k.hits``); :func:`parse_dimensions` lifts the
segment after a known dimension token into a label so the timeline view
and the Prometheus exporter can group by tenant / degradation tier /
bundle version / stratum.

Determinism: every tick boundary is a pure function of ``origin``,
``interval``, and the polled times, so two same-seed service runs write
byte-identical ``timeseries.jsonl`` (sim time is seeded), and campaigns
do the same under a :class:`~repro.obs.clock.TickClock`.
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.obs.alerts import AlertEvent, AlertRuleSet
from repro.obs.artifact import ArtifactFormat, ArtifactSchemaError, dumps, write_atomic
from repro.obs.clock import get_clock

#: Version of the ``timeseries.jsonl`` line schema.
TIMESERIES_SCHEMA_VERSION = 1

TIMESERIES = ArtifactFormat(
    "timeseries", TIMESERIES_SCHEMA_VERSION, record_keys=("tick", "alert")
)

#: Metric-name segments that introduce a one-segment dimension value.
DIMENSION_TOKENS = ("tenant", "tier", "bundle", "stratum")


def parse_dimensions(name: str):
    """Split a metric name into (base name, dimension labels).

    ``service.tenant.tenant-0.offered`` → (``service.tenant.offered``,
    ``{"tenant": "tenant-0"}``). Unknown segments pass through verbatim.
    """
    parts = name.split(".")
    base = []
    labels = {}
    index = 0
    while index < len(parts):
        part = parts[index]
        if part in DIMENSION_TOKENS and index + 1 < len(parts):
            labels[part] = parts[index + 1]
            base.append(part)
            index += 2
        else:
            base.append(part)
            index += 1
    return ".".join(base), labels


@dataclass
class HistogramWindow:
    """One tick's histogram delta: bucket counts over fixed bounds.

    Deliberately *not* a :class:`~repro.obs.metrics.Histogram`: min/max
    are cumulative extremes and do not difference, so a window only
    carries what subtracts cleanly — bucket counts and total time. Its
    quantiles are bucket-resolution (the covering bucket's upper bound;
    the overflow bucket reports the top bound).
    """

    bounds: tuple
    counts: list
    count: int = 0
    total_ns: int = 0

    def __post_init__(self) -> None:
        self.bounds = tuple(self.bounds)
        self.counts = list(self.counts)
        if len(self.counts) != len(self.bounds) + 1:
            raise ValueError("counts must have len(bounds) + 1 entries")

    def copy(self) -> "HistogramWindow":
        return HistogramWindow(
            bounds=self.bounds,
            counts=list(self.counts),
            count=self.count,
            total_ns=self.total_ns,
        )

    def merge(self, other: "HistogramWindow") -> "HistogramWindow":
        if self.bounds != other.bounds:
            raise ValueError(f"bucket bounds differ: {self.bounds} vs {other.bounds}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total_ns += other.total_ns
        return self

    @property
    def mean_seconds(self) -> float:
        return (self.total_ns / self.count) / 1e9 if self.count else 0.0

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def max_seconds(self) -> float:
        """The covering bucket's bound: a window has no exact max."""
        return self.quantile(1.0)

    def quantile(self, q: float) -> float:
        if not self.count:
            return 0.0
        target = max(1.0, min(q, 1.0) * self.count)
        cumulative = 0
        for i, n in enumerate(self.counts):
            cumulative += n
            if cumulative >= target:
                if i < len(self.bounds):
                    return self.bounds[i]
                break
        return self.bounds[-1] if self.bounds else 0.0

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total_ns": self.total_ns,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "HistogramWindow":
        return cls(
            bounds=tuple(payload["bounds"]),
            counts=list(payload["counts"]),
            count=payload["count"],
            total_ns=payload["total_ns"],
        )


@dataclass
class TickRecord:
    """One completed tick: the registry delta over ``[start, end)``.

    ``time`` is the *end* of the window in seconds since the recorder's
    origin — relative, so the artifact is byte-stable no matter what
    absolute clock anchored the run.
    """

    tick: int
    time: float
    counters: dict = field(default_factory=dict)    # name → int delta (non-zero)
    gauges: dict = field(default_factory=dict)      # name → float high-water
    histograms: dict = field(default_factory=dict)  # name → HistogramWindow

    def merge(self, other: "TickRecord") -> "TickRecord":
        if self.tick != other.tick:
            raise ValueError(f"tick mismatch: {self.tick} vs {other.tick}")
        for name, delta in other.counters.items():
            merged = self.counters.get(name, 0) + delta
            if merged:
                self.counters[name] = merged
            else:
                self.counters.pop(name, None)
        for name, value in other.gauges.items():
            current = self.gauges.get(name)
            if current is None or value > current:
                self.gauges[name] = value
        for name, window in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = window.copy()
            else:
                mine.merge(window)
        return self

    def copy(self) -> "TickRecord":
        return TickRecord(
            tick=self.tick,
            time=self.time,
            counters=dict(self.counters),
            gauges=dict(self.gauges),
            histograms={name: w.copy() for name, w in self.histograms.items()},
        )

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "time": self.time,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: self.histograms[name].to_dict()
                for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TickRecord":
        return cls(
            tick=payload["tick"],
            time=payload["time"],
            counters=dict(payload.get("counters", {})),
            gauges=dict(payload.get("gauges", {})),
            histograms={
                name: HistogramWindow.from_dict(window)
                for name, window in payload.get("histograms", {}).items()
            },
        )


def _alert_sort_key(event: AlertEvent):
    return (event.tick, event.rule, event.kind)


# ---------------------------------------------------------------------------
# line encoders — the one format path shared by ``TimeSeries.to_jsonl`` and
# the recorder's per-tick flush, so the two can never drift apart


def _record_line(record: TickRecord) -> str:
    return dumps(record.to_dict())


def _alert_line(event: AlertEvent) -> str:
    return dumps({"alert": event.to_dict()})


def _entry(payload: dict):
    """A decoded line as a :class:`TickRecord` or an :class:`AlertEvent`."""
    if "alert" in payload:
        return AlertEvent.from_dict(payload["alert"])
    if "tick" in payload:
        return TickRecord.from_dict(payload)
    raise ValueError("unrecognized timeseries line")


def _series(header: dict, entries: list) -> "TimeSeries":
    """Assemble decoded lines into a series, ticks and alerts in order."""
    records = sorted((e for e in entries if isinstance(e, TickRecord)), key=lambda r: r.tick)
    alerts = sorted((e for e in entries if isinstance(e, AlertEvent)), key=_alert_sort_key)
    interval = header.get("interval")
    if interval is None:
        # legacy headerless file: recover the tick width from the first
        # record's (end time / tick count) ratio, defaulting to 1s
        interval = 1.0
        for record in records:
            if record.time > 0:
                interval = record.time / (record.tick + 1)
                break
    elif isinstance(interval, bool) or not isinstance(interval, (int, float)):
        raise ArtifactSchemaError(f"timeseries.jsonl line 1: malformed interval {interval!r}")
    return TimeSeries(interval=float(interval), records=records, alerts=alerts)


@dataclass
class TimeSeries:
    """A sequence of tick records plus the alert events they produced."""

    interval: float
    records: list = field(default_factory=list)  # TickRecords, ascending tick
    alerts: list = field(default_factory=list)   # AlertEvents

    # -- the merge law (mirrors MetricsRegistry.merge) --------------------------------

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """Pointwise tick merge; alerts union (deduplicated)."""
        if other.records or other.alerts:
            if self.interval != other.interval:
                raise ValueError(
                    f"tick intervals differ: {self.interval} vs {other.interval}"
                )
        by_tick = {record.tick: record for record in self.records}
        for record in other.records:
            mine = by_tick.get(record.tick)
            if mine is None:
                by_tick[record.tick] = record.copy()
            else:
                mine.merge(record)
        self.records = [by_tick[tick] for tick in sorted(by_tick)]
        seen = {json.dumps(e.to_dict(), sort_keys=True) for e in self.alerts}
        for event in other.alerts:
            key = json.dumps(event.to_dict(), sort_keys=True)
            if key not in seen:
                seen.add(key)
                self.alerts.append(event)
        self.alerts.sort(key=_alert_sort_key)
        return self

    # -- views ------------------------------------------------------------------------

    def counter_series(self) -> dict:
        """name → per-tick delta list (zero-filled), over all retained ticks."""
        names = sorted({name for r in self.records for name in r.counters})
        return {
            name: [record.counters.get(name, 0) for record in self.records]
            for name in names
        }

    def fired(self, rule: Optional[str] = None) -> list:
        return [
            event
            for event in self.alerts
            if event.kind == "fire" and (rule is None or event.rule == rule)
        ]

    def resolved(self, rule: Optional[str] = None) -> list:
        return [
            event
            for event in self.alerts
            if event.kind == "resolve" and (rule is None or event.rule == rule)
        ]

    # -- serialization ----------------------------------------------------------------

    def to_jsonl(self) -> str:
        return TIMESERIES.encode_lines(
            itertools.chain(
                (_record_line(r) for r in sorted(self.records, key=lambda r: r.tick)),
                (_alert_line(e) for e in sorted(self.alerts, key=_alert_sort_key)),
            ),
            interval=self.interval,
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "TimeSeries":
        return _series(*TIMESERIES.decode(text, _entry))


def write_timeseries_jsonl(path, series: TimeSeries) -> int:
    """Atomically persist a series; returns the number of tick records."""
    write_atomic(path, series.to_jsonl())
    return len(series.records)


def read_timeseries_jsonl(path) -> TimeSeries:
    return _series(*TIMESERIES.read(path, _entry))


# ---------------------------------------------------------------------------
# the recorder


class TimeSeriesRecorder:
    """Snapshots registry deltas on a fixed tick, into a bounded ring.

    Clock-agnostic by construction: the recorder holds no clock, the
    caller feeds it time via :meth:`poll`. Tick ``k`` covers
    ``[origin + k*interval, origin + (k+1)*interval)`` and is emitted the
    first time ``poll(now)`` sees ``now`` at or past the window end —
    including empty ticks, so retained tick indices are always
    contiguous and window arithmetic over the ring is exact.

    ``capacity`` bounds both rings (ticks and alert events). If a poll
    gap exceeds the capacity, the skipped ticks are dropped *before*
    materialization (they would be evicted immediately) and the
    accumulated delta lands in the first retained tick.
    """

    def __init__(
        self,
        registry,
        interval: float,
        rules: Optional[AlertRuleSet] = None,
        capacity: int = 1024,
        origin: float = 0.0,
        flush_path=None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"tick interval must be positive, got {interval!r}")
        if capacity < 1:
            raise ValueError(f"ring capacity must be >= 1, got {capacity!r}")
        self.registry = registry
        self.interval = float(interval)
        self.rules = rules
        self.capacity = int(capacity)
        self.origin = float(origin)
        self.flush_path = pathlib.Path(flush_path) if flush_path is not None else None
        if rules is not None:
            needed = rules.max_window_ticks(self.interval)
            if needed > self.capacity:
                raise ValueError(
                    f"ring capacity {self.capacity} cannot cover the longest "
                    f"alert window ({needed} ticks at interval {self.interval}s)"
                )
        self._records: deque = deque(maxlen=self.capacity)
        self._alerts: deque = deque(maxlen=self.capacity)
        # with a flush path, each tick and alert is encoded once, when it
        # is recorded; the line rings evict in lockstep with the rings above
        self._record_lines: deque = deque(maxlen=self.capacity)
        self._alert_lines: deque = deque(maxlen=self.capacity)  # (sort key, line)
        self._pending: list = []  # lines encoded since the last flush
        self._appended = None     # lines appended since the last rewrite (None: no write yet)
        self._finished = False
        self._firing: dict = {}
        self._emitted = 0
        self._prev_counters: dict = {}
        self._prev_hist: dict = {}

    # -- feeding time -----------------------------------------------------------------

    def poll(self, now: float) -> int:
        """Emit every tick whose window ended at or before ``now``."""
        emitted = self._emit(now)
        if emitted and self.flush_path is not None:
            self.flush()
        return emitted

    def _emit(self, now: float) -> int:
        complete = int(math.floor((now - self.origin) / self.interval))
        if complete <= self._emitted:
            return 0
        pending = complete - self._emitted
        if pending > self.capacity:
            # fast-forward over ticks that would be evicted unseen; the
            # delta since the last snapshot lands in the first kept tick
            self._emitted = complete - self.capacity
        emitted = 0
        while self._emitted < complete:
            self._snapshot()
            emitted += 1
        return emitted

    def finish(self, now: float) -> None:
        """Final poll, then one flush that compacts the file."""
        self._finished = True
        self._emit(now)
        if self.flush_path is not None:
            self.flush()

    def flush(self) -> None:
        """Bring ``flush_path`` up to date with the ring.

        The first flush of a run writes the header and every line so far
        in one atomic rewrite; each later flush appends only the tick and
        alert lines encoded since the one before, without an fsync (the
        durability the atomic rewrite has). The file is opened for each
        append and closed again, so no handle outlives a flush. A flush
        that would take the lines appended since the last rewrite past
        ``capacity``, and the flush of :meth:`finish`, compact instead:
        one atomic rewrite from the line rings. Mid-run the file therefore
        decodes to a superset of the ring (alert lines may sit between
        tick lines; readers sort both); once finished it is byte-identical
        to ``write_timeseries_jsonl(path, self.timeseries())``.
        """
        pending = self._pending
        if (
            self._appended is None
            or self._finished
            or self._appended + len(pending) > self.capacity
        ):
            self._rewrite()
        else:
            with self.flush_path.open("a") as handle:
                handle.write("".join(line + "\n" for line in pending))
            self._appended += len(pending)
        pending.clear()

    def _rewrite(self) -> None:
        alerts = sorted(self._alert_lines, key=lambda pair: pair[0])
        write_atomic(
            self.flush_path,
            TIMESERIES.encode_lines(
                itertools.chain(self._record_lines, (line for _, line in alerts)),
                interval=self.interval,
            ),
        )
        self._appended = 0

    # -- snapshots --------------------------------------------------------------------

    def _snapshot(self) -> None:
        tick = self._emitted
        self._emitted += 1
        counters = {}
        for name, value in self.registry.counters.items():
            delta = value - self._prev_counters.get(name, 0)
            if delta:
                counters[name] = delta
        self._prev_counters = dict(self.registry.counters)
        histograms = {}
        for name, histogram in self.registry.histograms.items():
            prev_counts, prev_total = self._prev_hist.get(
                name, ((0,) * len(histogram.counts), 0)
            )
            delta_counts = [c - p for c, p in zip(histogram.counts, prev_counts)]
            count = sum(delta_counts)
            if count:
                histograms[name] = HistogramWindow(
                    bounds=histogram.bounds,
                    counts=delta_counts,
                    count=count,
                    total_ns=histogram.total_ns - prev_total,
                )
            self._prev_hist[name] = (tuple(histogram.counts), histogram.total_ns)
        record = TickRecord(
            tick=tick,
            time=round((tick + 1) * self.interval, 9),
            counters=counters,
            gauges=dict(self.registry.gauges),
            histograms=histograms,
        )
        self._records.append(record)
        flushing = self.flush_path is not None
        if flushing:
            line = _record_line(record)
            self._record_lines.append(line)
            self._pending.append(line)
        if self.rules is not None:
            events = self.rules.evaluate(
                list(self._records), self.interval, self._firing
            )
            self._alerts.extend(events)
            if flushing:
                for event in events:
                    line = _alert_line(event)
                    self._alert_lines.append((_alert_sort_key(event), line))
                    self._pending.append(line)

    # -- views ------------------------------------------------------------------------

    @property
    def records(self) -> list:
        return list(self._records)

    @property
    def alerts(self) -> list:
        return list(self._alerts)

    def timeseries(self) -> TimeSeries:
        """A detached copy: merging into it never touches the ring."""
        return TimeSeries(
            interval=self.interval,
            records=[record.copy() for record in self._records],
            alerts=self.alerts,
        )


class RecorderProgress:
    """Adapter that rides the campaign progress hooks to poll a recorder.

    Campaigns already thread an optional ``progress`` object through the
    executors (per-site in serial mode, per-shard in process mode). Wrapping the real :class:`~repro.obs.heartbeat.ProgressReporter`
    (or ``None``) keeps that plumbing unchanged while giving the recorder
    a poll on every completion, clocked by the obs clock.
    """

    def __init__(
        self,
        recorder: TimeSeriesRecorder,
        inner=None,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        self.recorder = recorder
        self.inner = inner
        self._now = now if now is not None else (lambda: get_clock().now())

    def begin(self, total: int, label=None) -> None:
        if self.inner is not None:
            self.inner.begin(total, label)

    def advance(self, n: int = 1, **counts) -> None:
        if self.inner is not None:
            self.inner.advance(n, **counts)
        self.recorder.poll(self._now())

    def finish(self) -> None:
        if self.inner is not None:
            self.inner.finish()
        self.recorder.poll(self._now())
