"""Property tests (Hypothesis) for the timeseries merge law and artifact.

Three invariants keep the windowed-telemetry layer honest:

1. ``TimeSeries.merge`` is the registry merge law lifted pointwise over
   ticks — associative, commutative, with the empty series as identity —
   so sharded or resumed recorders aggregate exactly like live ones.
2. ``timeseries.jsonl`` round-trips losslessly (canonical serialization
   as the equality witness).
3. Ring-buffer eviction never rewrites history: the ticks a
   small-capacity recorder retains are byte-identical to the same ticks
   in an unbounded recorder fed the same schedule.
4. The per-tick flush, which writes lines cached when each tick and
   alert was recorded, is byte-identical to re-serializing the whole
   recorder with ``to_jsonl`` after every poll.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.alerts import AlertRule, AlertRuleSet
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    HistogramWindow,
    TickRecord,
    TimeSeries,
    TimeSeriesRecorder,
    read_timeseries_jsonl,
)

# ---------------------------------------------------------------------------
# strategies

_names = st.sampled_from(
    [
        "service.requests.offered",
        "service.rejected.queue_full",
        "service.tier.static-only",
        "work.done",
        "x",
    ]
)

_BOUNDS = (0.01, 0.1, 1.0)


def _window(counts):
    return HistogramWindow(
        bounds=_BOUNDS,
        counts=counts,
        count=sum(counts),
        total_ns=sum(counts) * 5_000_000,
    )


_windows = st.builds(
    _window,
    st.lists(
        st.integers(min_value=0, max_value=50), min_size=4, max_size=4
    ).filter(lambda counts: sum(counts) > 0),
)

_ticks = st.builds(
    lambda tick, counters, gauges, histograms: TickRecord(
        tick=tick,
        time=float(tick + 1),
        counters={k: v for k, v in counters.items() if v},
        gauges=gauges,
        histograms=histograms,
    ),
    tick=st.integers(min_value=0, max_value=6),
    counters=st.dictionaries(_names, st.integers(min_value=0, max_value=10**6), max_size=3),
    gauges=st.dictionaries(_names, st.floats(min_value=0, max_value=1e6, width=32), max_size=2),
    histograms=st.dictionaries(st.sampled_from(["service.latency", "stage.fetch"]), _windows, max_size=2),
)

_series = st.builds(
    lambda records: _dedupe(records),
    st.lists(_ticks, max_size=6),
)


def _dedupe(records):
    series = TimeSeries(interval=1.0)
    for record in records:
        series.merge(TimeSeries(interval=1.0, records=[record]))
    return series


def _canon(series: TimeSeries) -> str:
    return series.to_jsonl()


def _copy(series: TimeSeries) -> TimeSeries:
    return TimeSeries.from_jsonl(series.to_jsonl())


# ---------------------------------------------------------------------------
# the merge law


@settings(max_examples=60, deadline=None)
@given(a=_series, b=_series)
def test_merge_commutes(a, b):
    left = _copy(a).merge(_copy(b))
    right = _copy(b).merge(_copy(a))
    assert _canon(left) == _canon(right)


@settings(max_examples=60, deadline=None)
@given(a=_series, b=_series, c=_series)
def test_merge_associates(a, b, c):
    left = _copy(a).merge(_copy(b).merge(_copy(c)))
    right = _copy(a).merge(_copy(b)).merge(_copy(c))
    assert _canon(left) == _canon(right)


@settings(max_examples=60, deadline=None)
@given(a=_series)
def test_empty_series_is_identity(a):
    merged = _copy(a).merge(TimeSeries(interval=1.0))
    assert _canon(merged) == _canon(a)
    onto_empty = TimeSeries(interval=1.0).merge(_copy(a))
    assert _canon(onto_empty) == _canon(a)


# ---------------------------------------------------------------------------
# serialization round trip


@settings(max_examples=60, deadline=None)
@given(a=_series)
def test_jsonl_round_trip_is_lossless(a):
    text = a.to_jsonl()
    loaded = TimeSeries.from_jsonl(text)
    assert loaded.to_jsonl() == text
    assert loaded.interval == a.interval
    assert [record.tick for record in loaded.records] == [
        record.tick for record in a.records
    ]


# ---------------------------------------------------------------------------
# ring-buffer eviction


_schedules = st.lists(
    st.tuples(
        st.sampled_from(["service.requests.offered", "work.done", "x"]),
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.1, max_value=3.0),
    ),
    min_size=1,
    max_size=20,
)


@settings(max_examples=60, deadline=None)
@given(schedule=_schedules, capacity=st.integers(min_value=1, max_value=8))
def test_eviction_never_changes_retained_window_values(schedule, capacity):
    """A bounded ring holds exactly the suffix an unbounded one would."""
    bounded_registry = MetricsRegistry()
    unbounded_registry = MetricsRegistry()
    bounded = TimeSeriesRecorder(bounded_registry, interval=1.0, capacity=capacity)
    unbounded = TimeSeriesRecorder(unbounded_registry, interval=1.0, capacity=10_000)
    now = 0.0
    for name, increment, advance in schedule:
        bounded_registry.inc(name, increment)
        unbounded_registry.inc(name, increment)
        now += advance
        bounded.poll(now)
        unbounded.poll(now)
    retained = bounded.records
    reference = {record.tick: record for record in unbounded.records}
    assert len(retained) <= capacity
    if not unbounded.records:
        # the schedule never crossed the first tick boundary
        assert retained == []
        return
    for record in retained:
        # the fast-forward tick may absorb deltas the unbounded recorder
        # spread over evicted ticks; every later tick must match exactly
        expected = reference[record.tick]
        if record is retained[0]:
            assert record.tick == expected.tick
            continue
        assert record.to_dict() == expected.to_dict()
    # retained ticks are contiguous and end at the newest tick
    ticks = [record.tick for record in retained]
    assert ticks == list(range(ticks[0], ticks[0] + len(ticks)))
    assert ticks[-1] == unbounded.records[-1].tick


# ---------------------------------------------------------------------------
# cached-line flush vs full re-serialization


_FLAP_RULES = AlertRuleSet(
    rules=(
        AlertRule.parse("hot", "work.done>4", windows=(1.0, 2.0)),
        AlertRule.parse("slow", "service.latency.p99>0.5", windows=(1.0,)),
    )
)

_steps = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from(["work.done", "x"]), st.integers(0, 12)),
        st.tuples(st.just("observe"), st.just("service.latency"), st.sampled_from([0.004, 0.2, 0.9])),
        st.tuples(st.just("gauge"), st.just("service.queue.depth"), st.integers(0, 40)),
        st.tuples(st.just("poll"), st.just(""), st.floats(min_value=0.0, max_value=4.5)),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(steps=_steps, capacity=st.integers(min_value=2, max_value=5))
def test_flushed_file_equals_full_reserialization(steps, capacity):
    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeseries.jsonl"
        recorder = TimeSeriesRecorder(
            registry, interval=1.0, rules=_FLAP_RULES, capacity=capacity, flush_path=path
        )
        now = 0.0
        for op, name, value in steps:
            if op == "inc":
                registry.inc(name, value)
            elif op == "observe":
                registry.observe(name, value)
            elif op == "gauge":
                registry.gauge_max(name, value)
            else:
                now += value
                recorder.poll(now)
                if recorder.records:  # the first emitted tick creates the file
                    _assert_covers_ring(path, recorder)
        recorder.finish(now + 1.0)
        _assert_flushed(path, recorder)


def _assert_covers_ring(path, recorder):
    """Mid-run, the appended file decodes to a superset of the ring, with
    the ring's own records and alerts on its ticks."""
    live = read_timeseries_jsonl(path)
    on_disk = {record.tick: record.to_dict() for record in live.records}
    for record in recorder.records:
        assert on_disk[record.tick] == record.to_dict()
    disk_alerts = [event.to_dict() for event in live.alerts]
    for event in recorder.alerts:
        assert event.to_dict() in disk_alerts


def _assert_flushed(path, recorder):
    text = path.read_text()
    assert text == recorder.timeseries().to_jsonl()
    assert read_timeseries_jsonl(path).to_jsonl() == text
