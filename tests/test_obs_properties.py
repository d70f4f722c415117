"""Property tests (Hypothesis) for the observability merge laws.

The whole point of :class:`~repro.obs.metrics.MetricsRegistry` is that
every aggregation path in the codebase — serial fold, thread pool, process
pool, resumed run — is the *same* algebra. That only holds if merge is
exactly associative and commutative with the empty registry as identity,
which in turn only holds because histogram durations are stored as integer
nanoseconds. These tests pin the laws; the executor determinism tests
(``test_obs_determinism.py``) then get them for free.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.ledger import FaultLedger
from repro.faults.plan import FaultKind
from repro.faults.taxonomy import ErrorClass
import json

import pytest

from repro.obs.artifact import ArtifactSchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    parse_jsonl,
    spans_to_jsonl,
)


# ---------------------------------------------------------------------------
# strategies

_names = st.sampled_from(
    ["shard.sites", "stage.fetch", "stage.detect", "poll.ticks", "fault.dns", "x"]
)

_registries = st.builds(
    lambda counters, gauges, observations: _build_registry(counters, gauges, observations),
    counters=st.dictionaries(_names, st.integers(min_value=0, max_value=10**9), max_size=5),
    gauges=st.dictionaries(
        _names, st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=4
    ),
    observations=st.dictionaries(
        _names,
        st.lists(st.integers(min_value=0, max_value=120 * 10**9), max_size=8),
        max_size=4,
    ),
)


def _build_registry(counters, gauges, observations) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, n in counters.items():
        registry.inc(name, n)
    for name, value in gauges.items():
        registry.gauge_max(name, value)
    for name, series in observations.items():
        for ns in series:
            registry.observe_ns(name, ns)
    return registry


def _merged(*registries: MetricsRegistry) -> MetricsRegistry:
    out = MetricsRegistry()
    for registry in registries:
        out.merge(registry)
    return out


_tag_text = st.text(max_size=20)

_spans = st.builds(
    Span,
    span_id=st.text(min_size=1, max_size=12),
    name=st.sampled_from(["campaign", "shard", "site", "fetch", "detect", "ws-poll"]),
    start=st.floats(min_value=0, max_value=10**6, allow_nan=False),
    end=st.floats(min_value=0, max_value=10**6, allow_nan=False),
    parent_id=st.text(max_size=12),
    tags=st.dictionaries(_tag_text, _tag_text, max_size=4),
)

_ledgers = st.builds(
    lambda injections, observed, recoveries, ints: _build_ledger(
        injections, observed, recoveries, ints
    ),
    injections=st.lists(st.sampled_from(list(FaultKind)), max_size=10),
    observed=st.lists(st.sampled_from(list(ErrorClass)), max_size=10),
    recoveries=st.lists(
        st.tuples(st.sampled_from(list(FaultKind)), st.booleans()), max_size=10
    ),
    ints=st.lists(st.integers(min_value=0, max_value=50), min_size=6, max_size=6),
)


def _build_ledger(injections, observed, recoveries, ints) -> FaultLedger:
    ledger = FaultLedger()
    for kind in injections:
        ledger.record_injection(kind)
    for error_class in observed:
        ledger.record_observed(error_class)
    for kind, recovered in recoveries:
        ledger.settle([kind], recovered=recovered)
    (
        ledger.retries,
        ledger.breaker_opened,
        ledger.breaker_half_open,
        ledger.breaker_closed,
        ledger.checkpoint_recorded,
        ledger.checkpoint_resumed,
    ) = ints
    return ledger


# ---------------------------------------------------------------------------
# registry merge laws


@settings(max_examples=200)
@given(a=_registries, b=_registries, c=_registries)
def test_merge_is_associative(a, b, c):
    left = _merged(_merged(a, b), c)
    right = _merged(a, _merged(b, c))
    assert left.to_dict() == right.to_dict()


@settings(max_examples=200)
@given(a=_registries, b=_registries)
def test_merge_is_commutative(a, b):
    assert _merged(a, b).to_dict() == _merged(b, a).to_dict()


@given(a=_registries)
def test_empty_registry_is_identity(a):
    assert _merged(a, MetricsRegistry()).to_dict() == a.to_dict()
    assert _merged(MetricsRegistry(), a).to_dict() == a.to_dict()


@given(a=_registries, b=_registries)
def test_merge_does_not_mutate_operand(a, b):
    before = b.to_dict()
    _merged(a, b)
    assert b.to_dict() == before


@given(a=_registries)
def test_registry_serialization_round_trips(a):
    assert MetricsRegistry.from_dict(a.to_dict()) == a


# ---------------------------------------------------------------------------
# trace serialization + aggregation


@settings(max_examples=200)
@given(spans=st.lists(_spans, max_size=10))
def test_span_jsonl_round_trip_is_lossless(spans):
    tracer = Tracer(prefix="p")
    tracer.adopt(copy.deepcopy(spans))
    restored = parse_jsonl(tracer.to_jsonl())
    assert [s.to_dict() for s in restored] == [s.to_dict() for s in spans]


@settings(max_examples=200)
@given(spans=st.lists(_spans, max_size=10))
def test_versioned_files_start_with_schema_header(spans):
    text = spans_to_jsonl(copy.deepcopy(spans))
    first = json.loads(text.splitlines()[0])
    assert first == {"schema_version": TRACE_SCHEMA_VERSION}
    restored = parse_jsonl(text)
    assert [s.to_dict() for s in restored] == [s.to_dict() for s in spans]


@settings(max_examples=200)
@given(spans=st.lists(_spans, max_size=10))
def test_legacy_headerless_files_still_parse(spans):
    # files written before the header existed: span lines only
    legacy = "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )
    restored = parse_jsonl(legacy)
    assert [s.to_dict() for s in restored] == [s.to_dict() for s in spans]


@given(
    spans=st.lists(_spans, max_size=4),
    version=st.integers(min_value=TRACE_SCHEMA_VERSION + 1, max_value=10**6),
)
def test_future_schema_versions_are_rejected(spans, version):
    text = spans_to_jsonl(spans)
    bumped = text.replace(
        json.dumps({"schema_version": TRACE_SCHEMA_VERSION}, separators=(",", ":")),
        json.dumps({"schema_version": version}, separators=(",", ":")),
        1,
    )
    with pytest.raises(ArtifactSchemaError, match="upgrade repro"):
        parse_jsonl(bumped)


@given(a=st.lists(_spans, max_size=8), b=st.lists(_spans, max_size=8))
def test_span_counts_are_additive_under_adoption(a, b):
    merged = Tracer(prefix="m")
    merged.adopt(copy.deepcopy(a))
    merged.adopt(copy.deepcopy(b))
    counts_a = Tracer(prefix="a")
    counts_a.adopt(copy.deepcopy(a))
    counts_b = Tracer(prefix="b")
    counts_b.adopt(copy.deepcopy(b))
    expected = counts_a.counts_by_name()
    for name, n in counts_b.counts_by_name().items():
        expected[name] = expected.get(name, 0) + n
    assert merged.counts_by_name() == expected


# ---------------------------------------------------------------------------
# fault-ledger homomorphism: export-then-merge == merge-then-export


@settings(max_examples=200)
@given(a=_ledgers, b=_ledgers)
def test_ledger_export_is_a_merge_homomorphism(a, b):
    merged_first = copy.deepcopy(a).merge(b).as_registry()
    exported_first = _merged(a.as_registry(), b.as_registry())
    assert merged_first.to_dict() == exported_first.to_dict()


@given(a=_ledgers)
def test_ledger_export_matches_totals(a):
    registry = a.as_registry()
    assert sum(registry.counters_with_prefix("fault.injected.").values()) == a.total_injected
    assert sum(registry.counters_with_prefix("fault.observed.").values()) == a.total_observed
    assert registry.counter("health.retries") == a.retries


# ---------------------------------------------------------------------------
# Histogram.quantile edge cases: empty, single sample, extremes, and
# monotonicity across bucket boundaries (the float-division misbucketing
# fix — an observation exactly on a bound must land in that bound's
# bucket, and quantiles must never decrease as q grows)


from repro.obs.metrics import DEFAULT_BOUNDS, Histogram


class TestHistogramQuantileEdges:
    def test_empty_histogram_quantiles_are_zero(self):
        histogram = Histogram()
        for q in (0.0, 0.5, 1.0):
            assert histogram.quantile(q) == 0.0

    def test_single_sample_is_every_quantile(self):
        histogram = Histogram()
        histogram.observe(0.007)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == pytest.approx(0.007)

    def test_q0_is_min_and_q1_is_max_exactly(self):
        histogram = Histogram()
        histogram.observe(0.002)
        histogram.observe(0.8)
        assert histogram.quantile(0.0) == pytest.approx(0.002)
        assert histogram.quantile(1.0) == pytest.approx(0.8)
        # out-of-range q clamps rather than misindexing
        assert histogram.quantile(-1.0) == pytest.approx(0.002)
        assert histogram.quantile(2.0) == pytest.approx(0.8)

    def test_observation_on_a_bound_lands_in_that_bucket(self):
        # 0.05 is an exact bucket bound; float ns/1e9 division used to
        # round it down into the next-lower bucket for some bounds
        for bound in DEFAULT_BOUNDS:
            histogram = Histogram()
            histogram.observe(bound)
            bucket = histogram.bounds.index(bound)
            assert histogram.counts[bucket] == 1, f"bound {bound} misbucketed"

    @settings(max_examples=120)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
            min_size=1,
            max_size=40,
        )
    )
    def test_quantiles_are_monotone_in_q(self, samples):
        histogram = Histogram()
        for sample in samples:
            histogram.observe(sample)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        values = [histogram.quantile(q) for q in qs]
        assert values == sorted(values), f"non-monotone quantiles: {values}"
        assert values[0] == histogram.min_seconds
        assert values[-1] == histogram.max_seconds

    @settings(max_examples=120)
    @given(
        samples=st.lists(
            st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
            min_size=1,
            max_size=40,
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_quantiles_stay_within_observed_range(self, samples, q):
        histogram = Histogram()
        for sample in samples:
            histogram.observe(sample)
        value = histogram.quantile(q)
        assert histogram.min_seconds <= value <= histogram.max_seconds
