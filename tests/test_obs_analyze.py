"""Trace analysis: critical paths, Chrome export, diffs, --fail-on gates."""

from __future__ import annotations

import pytest

from repro.analysis.parallel import ParallelConfig, ShardedZgrabCampaign
from repro.internet.population import build_population
from repro.obs.analyze import (
    CriticalPath,
    build_tree,
    chrome_trace,
    critical_paths,
    diff_runs,
    error_breakdown,
    slowest_spans,
    span_ns,
    stage_attribution,
    subtree_stage_ns,
)
from repro.obs import gates
from repro.obs.clock import TickClock, use_clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import make_obs
from repro.obs.trace import Span


def _span(span_id, name, start, end, parent_id="", **tags):
    return Span(
        span_id=span_id,
        name=name,
        start=start,
        end=end,
        parent_id=parent_id,
        tags={k: str(v) for k, v in tags.items()},
    )


@pytest.fixture(scope="module")
def campaign_spans():
    """A real sharded campaign trace under TickClock."""
    population = build_population("net", seed=7, scale=0.03)
    obs = make_obs(prefix="az")
    with use_clock(TickClock()):
        ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=2, workers=1, mode="serial"),
            obs=obs,
        ).scan(0)
    return obs.tracer.spans


class TestCriticalPath:
    def test_stage_totals_telescope_exactly(self, campaign_spans):
        # the acceptance identity: per-stage self-times sum to the
        # analyzed subtree's duration, to the nanosecond
        for path in critical_paths(campaign_spans):
            target = path.bounding if path.bounding is not None else path.root
            assert sum(path.stage_ns.values()) == span_ns(target)

    def test_whole_trace_attribution_telescopes(self, campaign_spans):
        roots, _children = build_tree(campaign_spans)
        assert sum(stage_attribution(campaign_spans).values()) == sum(
            span_ns(root) for root in roots
        )

    def test_bounding_is_slowest_shard(self, campaign_spans):
        (path,) = critical_paths(campaign_spans)
        assert path.root.name == "campaign"
        assert path.bounding is not None and path.bounding.name == "shard"
        _roots, children = build_tree(campaign_spans)
        shard_ns = [
            span_ns(kid)
            for kid in children[path.root.span_id]
            if kid.name == "shard"
        ]
        assert path.path_ns == max(shard_ns)
        assert path.bounding_stage in path.stage_ns

    def test_unsharded_root_attributes_itself(self):
        spans = [
            _span("a-2", "fetch", 1.0, 2.0, parent_id="a-1"),
            _span("a-1", "site", 0.0, 3.0),
        ]
        (path,) = critical_paths(spans)
        assert path.bounding is None
        assert path.path_ns == path.wall_ns == span_ns(spans[1])
        assert path.stage_ns == {"site": 2_000_000_000, "fetch": 1_000_000_000}

    def test_orphan_spans_count_as_roots(self):
        spans = [_span("x-1", "site", 0.0, 1.0, parent_id="gone")]
        roots, _ = build_tree(spans)
        assert roots == spans

    def test_duplicate_span_ids_terminate(self):
        # a hand-merged trace can repeat ids; naive traversal would
        # re-expand shared subtrees 2^depth times
        spans = []
        for layer in range(40):
            parent = f"L{layer - 1}" if layer else ""
            for _ in range(2):
                spans.append(_span(f"L{layer}", "site", 0.0, 1.0, parent_id=parent))
        roots, children = build_tree(spans)
        for root in roots:
            # each distinct span object is visited at most once, so this
            # returns (in linear time) instead of exploding; with shared
            # children the self-time bucket can go negative — only the
            # termination matters here
            totals = subtree_stage_ns(root, children)
            assert "site" in totals


class TestSlowestAndErrors:
    def test_slowest_spans_order_and_tiebreak(self):
        spans = [
            _span("s-3", "site", 0.0, 1.0),
            _span("s-1", "site", 0.0, 2.0),
            _span("s-2", "site", 0.0, 1.0),
            _span("s-4", "fetch", 0.0, 9.0),
        ]
        picked = slowest_spans(spans, k=2)
        assert [s.span_id for s in picked] == ["s-1", "s-2"]

    def test_error_breakdown_joins_spans_and_fault_counters(self):
        spans = [
            _span("e-1", "fetch", 0.0, 1.0, error_class="timeout"),
            _span("e-2", "fetch", 0.0, 1.0, error_class="timeout"),
            _span("e-3", "site", 0.0, 1.0, error="ValueError"),
        ]
        registry = MetricsRegistry()
        registry.inc("fault.observed.timeout", 2)
        registry.inc("fault.injected.timeout", 1)
        registry.inc("fault.observed.dns", 4)
        rows = error_breakdown(spans, registry)
        assert rows[0] == ["timeout", 2, 2, 1, 0]
        assert ["ValueError", 1, 0, 0, 0] in rows
        assert ["dns", 0, 4, 0, 0] in rows  # counter-only class still listed


class TestChromeTrace:
    def test_export_shape(self, campaign_spans):
        payload = chrome_trace(campaign_spans, run_id="run-abc")
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert len(complete) == len(campaign_spans)
        prefixes = {s.span_id.rsplit("-", 1)[0] for s in campaign_spans}
        assert {e["args"]["name"] for e in meta} == prefixes
        assert payload["otherData"]["run_id"] == "run-abc"
        # microseconds per the trace_event spec
        by_id = {e["args"]["span_id"]: e for e in complete}
        span = campaign_spans[0]
        assert by_id[span.span_id]["dur"] == pytest.approx(span_ns(span) / 1000.0)


class TestDiff:
    def test_identical_registries_diff_to_zero(self):
        a = MetricsRegistry()
        a.inc("crawl.zgrab0.domains_probed", 5)
        a.observe_ns("stage.fetch", 2_000_000)
        b = MetricsRegistry.from_dict(a.to_dict())
        diff = diff_runs(a, b)
        assert diff.is_zero
        assert diff.counter_deltas == []
        assert diff.histogram_count_deltas == []

    def test_counter_and_histogram_deltas(self):
        base, head = MetricsRegistry(), MetricsRegistry()
        base.inc("crawl.zgrab0.fetch_failures", 2)
        head.inc("crawl.zgrab0.fetch_failures", 5)
        head.observe_ns("stage.fetch", 1_000_000)
        diff = diff_runs(base, head)
        assert not diff.is_zero
        assert ["crawl.zgrab0.fetch_failures", 2, 5] in diff.counter_deltas
        assert ["stage.fetch", 0, 1] in diff.histogram_count_deltas
        (shift,) = [s for s in diff.stage_shifts if s.stage == "fetch"]
        assert (shift.base_count, shift.head_count) == (0, 1)

    def test_error_class_churn(self):
        base, head = MetricsRegistry(), MetricsRegistry()
        base.inc("fault.observed.dns", 1)
        head.inc("fault.observed.tls", 1)
        diff = diff_runs(base, head)
        assert diff.new_error_classes == ["tls"]
        assert diff.vanished_error_classes == ["dns"]

    def test_duration_shift_alone_is_still_zero(self):
        # durations are schedule-dependent; is_zero deliberately ignores them
        base, head = MetricsRegistry(), MetricsRegistry()
        base.observe_ns("stage.fetch", 1_000_000)
        head.observe_ns("stage.fetch", 900_000_000)
        assert diff_runs(base, head).is_zero


class TestFailOn:
    def test_parse_relative_stage_expression(self):
        t = gates.parse("stage.fetch.p90>1.2x")
        assert (t.target, t.op, t.value, t.relative) == (
            "stage.fetch.p90", ">", 1.2, True
        )

    def test_parse_absolute_counter_expression(self):
        t = gates.parse("fault.observed.timeout>=10")
        assert (t.target, t.relative) == ("fault.observed.timeout", False)

    @pytest.mark.parametrize(
        "expression",
        ["stage.fetch>1.2x", "stage.fetch.p42>1x", "nonsense", ">1.2x"],
    )
    def test_parse_rejects_malformed(self, expression):
        with pytest.raises(ValueError):
            gates.parse(expression)

    def test_relative_threshold_fires_on_regression(self):
        base, head = MetricsRegistry(), MetricsRegistry()
        base.observe_ns("stage.fetch", 1_000_000)
        head.observe_ns("stage.fetch", 40_000_000)
        verdict = gates.evaluate(gates.parse("stage.fetch.p90>1.1x"), head, base)
        assert verdict.violated and "VIOLATED" in verdict.detail

    def test_relative_threshold_passes_on_identical_runs(self):
        base = MetricsRegistry()
        base.observe_ns("stage.fetch", 1_000_000)
        head = MetricsRegistry.from_dict(base.to_dict())
        verdict = gates.evaluate(gates.parse("stage.fetch.p90>1.1x"), head, base)
        assert not verdict.violated and "ok" in verdict.detail

    def test_zero_base_ratio_is_infinite(self):
        base, head = MetricsRegistry(), MetricsRegistry()
        head.observe_ns("stage.fetch", 1_000_000)
        verdict = gates.evaluate(gates.parse("stage.fetch.count>1x"), head, base)
        assert verdict.violated

    def test_absolute_counter_threshold(self):
        head = MetricsRegistry()
        head.inc("crawl.zgrab0.fetch_failures", 7)
        verdict = gates.evaluate(
            gates.parse("crawl.zgrab0.fetch_failures>5"), head, MetricsRegistry()
        )
        assert verdict.violated
