"""Unit tests for the observability layer (clock, tracer, registry, facade)."""

from __future__ import annotations

import pytest

from repro.obs.artifact import ArtifactSchemaError
from repro.obs.clock import PerfClock, TickClock, get_clock, set_clock, use_clock
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from repro.obs.profile import NULL_OBS, make_obs, profile_rows, render_profile
from repro.obs.trace import Span, Tracer, parse_jsonl, read_jsonl


# ---------------------------------------------------------------------------
# clock


def test_tick_clock_is_deterministic():
    clock = TickClock(start=0.0, tick=0.5)
    assert clock.now() == 0.5
    assert clock.now() == 1.0
    assert clock.reads == 2


def test_tick_clock_rejects_nonpositive_tick():
    with pytest.raises(ValueError):
        TickClock(tick=0.0)


def test_perf_clock_is_monotonic():
    clock = PerfClock()
    a, b = clock.now(), clock.now()
    assert b >= a


def test_use_clock_installs_and_restores():
    before = get_clock()
    tick = TickClock()
    with use_clock(tick):
        assert get_clock() is tick
    assert get_clock() is before


def test_set_clock_returns_previous():
    before = get_clock()
    tick = TickClock()
    assert set_clock(tick) is before
    assert set_clock(before) is tick


# ---------------------------------------------------------------------------
# tracer


def test_spans_nest_and_auto_parent():
    tracer = Tracer(prefix="x", clock=TickClock())
    with tracer.span("campaign") as campaign:
        with tracer.span("site", domain="a.org") as site:
            with tracer.span("fetch") as fetch:
                pass
    assert campaign.parent_id == ""
    assert site.parent_id == campaign.span_id
    assert fetch.parent_id == site.span_id
    assert [s.span_id for s in tracer.spans] == ["x-3", "x-2", "x-1"]  # finish order
    assert site.tags == {"domain": "a.org"}
    assert all(s.duration > 0 for s in tracer.spans)


def test_span_tags_error_class_on_exception():
    tracer = Tracer(prefix="x", clock=TickClock())
    with pytest.raises(RuntimeError):
        with tracer.span("site"):
            raise RuntimeError("boom")
    assert tracer.spans[0].tags["error"] == "RuntimeError"


def test_trace_jsonl_round_trip_is_lossless():
    tracer = Tracer(prefix="rt", clock=TickClock(tick=0.0007))
    with tracer.span("campaign", mode="serial"):
        with tracer.span("site", domain="x.com"):
            pass
    restored = parse_jsonl(tracer.to_jsonl())
    assert [s.to_dict() for s in restored] == [s.to_dict() for s in tracer.spans]


def test_trace_file_round_trip(tmp_path):
    tracer = Tracer(prefix="f", clock=TickClock())
    with tracer.span("site"):
        pass
    path = tmp_path / "trace.jsonl"
    assert tracer.write_jsonl(path) == 1
    restored = read_jsonl(path)
    assert [s.to_dict() for s in restored] == [s.to_dict() for s in tracer.spans]


def test_span_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown span fields"):
        Span.from_dict({"span_id": "a", "name": "x", "start": 0.0, "bogus": 1})


def test_trace_line_missing_a_field_is_rejected():
    text = Tracer().to_jsonl() + '{"span_id":"a","start":0.0}\n'
    with pytest.raises(ArtifactSchemaError, match="line 2 .*missing field 'name'"):
        parse_jsonl(text)


def test_adopt_reroots_orphans_only():
    shard = Tracer(prefix="s0", clock=TickClock())
    with shard.span("shard"):
        with shard.span("site"):
            pass
    campaign = Tracer(prefix="c", clock=TickClock())
    with campaign.span("campaign") as root:
        pass
    campaign.adopt(shard.spans, parent_id=root.span_id)
    by_name = {s.name: s for s in campaign.spans}
    assert by_name["shard"].parent_id == root.span_id  # orphan re-rooted
    assert by_name["site"].parent_id == by_name["shard"].span_id  # untouched
    assert campaign.counts_by_name() == {"campaign": 1, "shard": 1, "site": 1}


# ---------------------------------------------------------------------------
# the Obs facade


def test_null_obs_reads_no_clock_and_reuses_context():
    clock = TickClock()
    with use_clock(clock):
        ctx1 = NULL_OBS.span("fetch", domain="a.org")
        with ctx1 as span:
            span.set_tag("anything", 1)
        ctx2 = NULL_OBS.span("parse")
    assert ctx1 is ctx2  # one shared pre-built no-op context
    assert clock.reads == 0
    assert NULL_OBS.tracer.spans == []
    NULL_OBS.inc("never")
    assert NULL_OBS.registry.counters == {}


def test_enabled_obs_records_stage_histograms():
    with use_clock(TickClock(tick=0.01)):
        obs = make_obs(prefix="u")
        with obs.span("fetch", domain="a.org"):
            pass
        with obs.span("fetch"):
            pass
        with pytest.raises(ValueError):
            with obs.span("detect"):
                raise ValueError("bad")
    assert obs.registry.histograms["stage.fetch"].count == 2
    assert obs.registry.histograms["stage.detect"].count == 1
    assert obs.registry.counter("stage.detect.errors") == 1
    assert obs.registry.counter("stage.fetch.errors") == 0
    assert obs.tracer.counts_by_name() == {"fetch": 2, "detect": 1}


def test_profile_rows_sorted_by_total_time():
    registry = MetricsRegistry()
    registry.observe("stage.fetch", 0.002)
    registry.observe("stage.detect", 5.0)
    registry.observe("stage.detect", 5.0)
    rows = profile_rows(registry)
    assert [row[0] for row in rows] == ["detect", "fetch"]
    detect = rows[0]
    assert detect[1] == 2  # count
    assert detect[2] == 0  # errors
    rendered = render_profile(registry)
    assert "detect" in rendered and "fetch" in rendered


def test_render_profile_empty_registry():
    assert "no stages" in render_profile(MetricsRegistry())


# ---------------------------------------------------------------------------
# histogram / registry basics


def test_histogram_buckets_and_stats():
    histogram = Histogram()
    histogram.observe(0.0005)  # first bucket (≤1ms)
    histogram.observe(0.3)     # ≤0.5s bucket
    histogram.observe(120.0)   # overflow
    assert histogram.count == 3
    assert histogram.counts[0] == 1
    assert histogram.counts[DEFAULT_BOUNDS.index(0.5)] == 1
    assert histogram.counts[-1] == 1
    assert histogram.max_seconds == pytest.approx(120.0)
    assert histogram.mean_seconds == pytest.approx((0.0005 + 0.3 + 120.0) / 3)
    assert histogram.quantile(0.0) == pytest.approx(0.0005)
    assert histogram.quantile(1.0) == pytest.approx(120.0)
    assert 0.0005 <= histogram.quantile(0.5) <= 120.0


def test_histogram_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError, match="bucket bounds differ"):
        Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))


def test_registry_round_trip_and_merge():
    a = MetricsRegistry()
    a.inc("sites", 3)
    a.gauge_max("peak", 2.0)
    a.observe("stage.fetch", 0.01)
    restored = MetricsRegistry.from_dict(a.to_dict())
    assert restored == a

    b = MetricsRegistry()
    b.inc("sites", 4)
    b.gauge_max("peak", 1.0)
    b.observe("stage.fetch", 0.02)
    a.merge(b)
    assert a.counter("sites") == 7
    assert a.gauges["peak"] == 2.0
    assert a.histograms["stage.fetch"].count == 2
    # merging a restored copy must not alias the source histograms
    c = MetricsRegistry()
    c.merge(b)
    c.observe("stage.fetch", 0.5)
    assert b.histograms["stage.fetch"].count == 1


def test_registry_views():
    registry = MetricsRegistry()
    registry.inc("shard.sites", 5)
    registry.inc("poll.ticks", 2)
    registry.observe("stage.fetch", 0.01)
    registry.observe("stage.detect", 0.01)
    assert registry.counters_with_prefix("shard.") == {"shard.sites": 5}
    assert registry.histogram_counts() == {"stage.fetch": 1, "stage.detect": 1}
    assert registry.stage_names() == ["detect", "fetch"]
    assert registry.counter("missing") == 0
