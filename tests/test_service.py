"""The verdict-server tentpole: bundle hot-reload atomicity, admission
control, tier-aware cascade entry, and the serving loop's semantics.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.detector import (
    DEGRADATION_TIERS,
    TIER_FULL,
    TIER_NO_CLASSIFIER,
    TIER_NO_DYNAMIC,
    TIER_STATIC_ONLY,
    PageDetector,
)
from repro.core.nocoin import FilterList, default_nocoin_list
from repro.core.signatures import SignatureDatabase
from repro.internet.population import build_population
from repro.service.admission import AdmissionQueue, ServicePolicy, TokenBucket
from repro.service.bundles import (
    BundleStore,
    BundleValidationError,
    DetectionBundle,
    validate_bundle,
)
from repro.service.server import ServiceRequest, VerdictServer
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder

SEED = 2018


# ---------------------------------------------------------------------------
# bundles: validation, rollback, atomic swap


class TestDetectionBundle:
    def test_build_stamps_consistent_versions(self):
        bundle = DetectionBundle.build("v1")
        assert bundle.consistent()
        assert bundle.filter_version == bundle.db_version == "v1"
        validate_bundle(bundle)  # does not raise

    def test_torn_stamps_rejected(self):
        good = DetectionBundle.build("v1")
        torn = DetectionBundle(
            version="v1",
            filters=good.filters,
            signatures=good.signatures,
            filter_version="v1",
            db_version="v0",  # the half-swapped state validation must catch
        )
        assert not torn.consistent()
        with pytest.raises(BundleValidationError, match="torn"):
            validate_bundle(torn)

    def test_empty_version_rejected(self):
        bundle = DetectionBundle.build("")
        with pytest.raises(BundleValidationError, match="no version"):
            validate_bundle(bundle)

    def test_empty_filter_list_rejected(self):
        bundle = DetectionBundle.build("v1", filters=FilterList())
        with pytest.raises(BundleValidationError, match="empty filter list"):
            validate_bundle(bundle)

    def test_minerless_signature_db_rejected(self):
        bundle = DetectionBundle.build("v1", signatures=SignatureDatabase())
        with pytest.raises(BundleValidationError, match="no miner records"):
            validate_bundle(bundle)


class TestBundleStore:
    def test_defaults_to_seed_bundle(self):
        store = BundleStore()
        assert store.active().version == "seed"
        assert store.generation == 0
        assert store.history == ["seed"]

    def test_applied_reload_swaps_and_counts(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        store = BundleStore(metrics=metrics)
        assert store.reload(DetectionBundle.build("v2"))
        assert store.active().version == "v2"
        assert store.generation == 1
        assert store.history == ["seed", "v2"]
        assert metrics.counter("service.reload.requests") == 1
        assert metrics.counter("service.reload.applied") == 1
        assert metrics.counter("service.reload.rejected") == 0

    def test_rejected_reload_rolls_back(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        store = BundleStore(metrics=metrics)
        assert not store.reload(DetectionBundle.build("bad", filters=FilterList()))
        assert store.active().version == "seed"  # rollback: active unchanged
        assert store.generation == 0
        assert metrics.counter("service.reload.rejected") == 1
        assert metrics.counter("service.reload.applied") == 0

    def test_concurrent_reloads_never_expose_a_torn_bundle(self):
        """Reader threads hammer ``active()`` while writers hot-swap: every
        observed bundle must be internally consistent and a known version —
        the no-mixed-bundle guarantee the service counters assert."""
        store = BundleStore()
        versions = [f"v{i}" for i in range(1, 9)]
        bundles = [DetectionBundle.build(v) for v in versions]
        known = {"seed", *versions}
        stop = threading.Event()
        torn = []
        observed = set()

        def read() -> None:
            while not stop.is_set():
                bundle = store.active()
                if not bundle.consistent() or bundle.version not in known:
                    torn.append(bundle.version)
                observed.add(bundle.version)

        def write() -> None:
            for bundle in bundles:
                assert store.reload(bundle)

        readers = [threading.Thread(target=read) for _ in range(4)]
        for thread in readers:
            thread.start()
        writers = [threading.Thread(target=write) for _ in range(2)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop.set()
        for thread in readers:
            thread.join()
        assert torn == []
        assert observed <= known
        # both writers applied every version: 16 swaps, order interleaved
        assert store.generation == 2 * len(versions)


# ---------------------------------------------------------------------------
# admission: policy, buckets, queue


class TestServicePolicy:
    def test_tier_ladder_matches_thresholds(self):
        policy = ServicePolicy(degrade_thresholds=(4, 12, 24))
        assert policy.tier_for_depth(0) == TIER_FULL
        assert policy.tier_for_depth(3) == TIER_FULL
        assert policy.tier_for_depth(4) == TIER_NO_DYNAMIC
        assert policy.tier_for_depth(11) == TIER_NO_DYNAMIC
        assert policy.tier_for_depth(12) == TIER_NO_CLASSIFIER
        assert policy.tier_for_depth(24) == TIER_STATIC_ONLY
        assert policy.tier_for_depth(1000) == TIER_STATIC_ONLY

    def test_thresholds_must_be_three_and_sorted(self):
        with pytest.raises(ValueError, match="3 depths"):
            ServicePolicy(degrade_thresholds=(4, 12))
        with pytest.raises(ValueError, match="non-decreasing"):
            ServicePolicy(degrade_thresholds=(12, 4, 24))

    def test_nominal_capacity_is_clean_page_throughput(self):
        policy = ServicePolicy(fetch_cost=0.04, static_cost=0.01)
        assert policy.nominal_capacity == pytest.approx(20.0)


class TestTokenBucket:
    def test_burst_then_paced_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst spent
        assert not bucket.try_take(0.5)  # half a token refilled
        assert bucket.try_take(1.5)      # 1.5 tokens refilled by now

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        assert bucket.try_take(0.0)
        assert bucket.try_take(1000.0)
        assert bucket.try_take(1000.0)
        assert not bucket.try_take(1000.0)  # capped at burst, not rate*elapsed

    def test_identical_timelines_admit_identically(self):
        times = [0.0, 0.1, 0.15, 0.9, 2.0, 2.05, 2.1]
        a = TokenBucket(rate=2.0, burst=2.0)
        b = TokenBucket(rate=2.0, burst=2.0)
        assert [a.try_take(t) for t in times] == [b.try_take(t) for t in times]


class TestAdmissionQueue:
    def test_bounded_offer(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")  # shed, never queued
        assert queue.depth == 2
        assert queue.take() == "a"  # FIFO


# ---------------------------------------------------------------------------
# tier-aware cascade entry point


def _miner_capture(seed: int = SEED) -> bytes:
    return WasmCorpusBuilder(root_seed=seed).build(ModuleBlueprint("coinhive", 0))


def _benign_capture(seed: int = SEED) -> bytes:
    return WasmCorpusBuilder(root_seed=seed).build(ModuleBlueprint("game-engine", 0))


class _AlwaysMinerDynamic:
    """A stub execution profiler that flags everything — lets the tests
    observe exactly which tiers still consult the dynamic stage."""

    calls = 0

    def explain(self, data: bytes):
        from repro.core.dynamic import DynamicDecision

        type(self).calls += 1
        return True, DynamicDecision(True)


class TestDetectRequest:
    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError, match="unknown degradation tier"):
            PageDetector().detect_request("x.example", "", tier="turbo")

    def test_tier_ladder_is_ordered(self):
        assert DEGRADATION_TIERS == (
            TIER_FULL, TIER_NO_DYNAMIC, TIER_NO_CLASSIFIER, TIER_STATIC_ONLY,
        )

    def test_static_only_ignores_submitted_wasm(self):
        report = PageDetector().detect_request(
            "x.example", "<html></html>",
            wasm_dumps=(_miner_capture(),),
            tier=TIER_STATIC_ONLY,
        )
        assert not report.wasm_present
        assert not report.is_miner

    def test_static_only_still_matches_nocoin(self):
        html = '<script src="https://coinhive.com/lib/coinhive.min.js"></script>'
        report = PageDetector().detect_request(
            "x.example", html, tier=TIER_STATIC_ONLY
        )
        assert report.nocoin_hit

    def test_no_classifier_is_signature_lookup_only(self):
        from repro.core.classifier import MinerClassifier
        from repro.core.signatures import build_reference_database

        detector = PageDetector(
            classifier=MinerClassifier(database=build_reference_database())
        )
        flagged = detector.detect_request(
            "x.example", "", wasm_dumps=(_miner_capture(),), tier=TIER_NO_CLASSIFIER
        )
        assert flagged.is_miner
        assert flagged.miner.method == "signature"
        # a module outside the signature db stays unclassified at this tier
        mutated = _miner_capture() + b"\x00"
        missed = detector.detect_request(
            "x.example", "", wasm_dumps=(mutated,), tier=TIER_NO_CLASSIFIER
        )
        assert missed.wasm_present and not missed.is_miner

    def test_full_tier_consults_dynamic_on_static_miss(self):
        dynamic = _AlwaysMinerDynamic()
        report = PageDetector().detect_request(
            "x.example", "",
            wasm_dumps=(_benign_capture(),),
            tier=TIER_FULL,
            dynamic=dynamic,
        )
        assert report.is_miner
        assert report.miner.method == "dynamic"
        assert report.miner.family == "unknown-miner"

    def test_no_dynamic_tier_sheds_the_dynamic_stage(self):
        _AlwaysMinerDynamic.calls = 0
        dynamic = _AlwaysMinerDynamic()
        report = PageDetector().detect_request(
            "x.example", "",
            wasm_dumps=(_benign_capture(),),
            tier=TIER_NO_DYNAMIC,
            dynamic=dynamic,
        )
        assert not report.is_miner
        assert _AlwaysMinerDynamic.calls == 0  # stage shed, never consulted

    def test_static_hit_skips_dynamic(self):
        _AlwaysMinerDynamic.calls = 0
        report = PageDetector().detect_request(
            "x.example", "",
            wasm_dumps=(_miner_capture(),),
            tier=TIER_FULL,
            dynamic=_AlwaysMinerDynamic(),
        )
        assert report.is_miner and report.miner.method != "dynamic"
        assert _AlwaysMinerDynamic.calls == 0


# ---------------------------------------------------------------------------
# the serving loop


def _population():
    return build_population("alexa", seed=SEED, scale=0.05)


def _request(domain, arrival, tenant="t0", deadline=None, sequence=0, wasm=()):
    return ServiceRequest(
        tenant=tenant,
        domain=domain,
        arrival=arrival,
        deadline=deadline if deadline is not None else arrival + 2.0,
        wasm_dumps=wasm,
        sequence=sequence,
    )


class TestVerdictServer:
    def test_rate_limit_rejects_over_bucket_arrivals(self):
        population = _population()
        server = VerdictServer(
            population=population,
            policy=ServicePolicy(tenant_rate=1.0, tenant_burst=2.0),
        )
        domain = population.sites[0].domain
        responses = [
            server.submit(_request(domain, 0.0, sequence=i)) for i in range(4)
        ]
        rejected = [r for r in responses if r is not None]
        assert len(rejected) == 2
        assert {r.reason for r in rejected} == {"rate-limit"}
        assert server.metrics.counter("service.rejected.rate_limit") == 2
        assert server.metrics.counter("service.requests.admitted") == 2

    def test_queue_full_sheds_instead_of_growing(self):
        population = _population()
        server = VerdictServer(
            population=population,
            policy=ServicePolicy(
                queue_capacity=3, tenant_rate=1000.0, tenant_burst=1000.0
            ),
        )
        domain = population.sites[0].domain
        responses = [
            server.submit(_request(domain, 0.0, sequence=i)) for i in range(10)
        ]
        shed = [r for r in responses if r is not None and r.reason == "queue-full"]
        assert len(shed) == 7
        assert server.queue_depth == 3  # the bound held

    def test_deadline_passed_in_queue_rejected_at_dequeue(self):
        population = _population()
        server = VerdictServer(population=population)
        domain = population.sites[0].domain
        assert server.submit(_request(domain, 0.0, deadline=10.0)) is None
        # the second request's deadline expires while the first is served
        assert server.submit(_request(domain, 0.0, deadline=0.01, sequence=1)) is None
        server.drain()
        statuses = [(r.status, r.reason) for r in server.responses]
        assert ("rejected", "deadline") in statuses
        assert server.metrics.counter("service.rejected.deadline") == 1
        # the expired request never touched the cascade
        assert server.metrics.counter("service.requests.completed") == 1

    def test_mid_run_swap_changes_verdicts_only_after_the_swap_point(self):
        """An atomic bundle swap flips NoCoin verdicts for the same domain
        exactly at the reload event — never before, never mixed."""
        population = _population()
        miners = population.ground_truth_miners()
        covert = next(
            s.domain for s in population.sites
            if s.role == "miner" and not s.official_url
        )
        assert covert in miners
        server = VerdictServer(population=population, collect_evidence=False)
        # v2 additionally lists the first-party loader path covert miners use
        extra_rules = [rule.raw for rule in default_nocoin_list().rules]
        extra_rules.append("/js/app-")
        v2 = DetectionBundle.build("v2", filters=FilterList.from_lines(extra_rules))

        requests = [
            _request(covert, round(0.25 * i, 2), sequence=i) for i in range(12)
        ]
        swap_at = 1.5
        responses = server.run(requests, reloads=[(swap_at, v2)])
        served = [r for r in responses if r.status == "ok"]
        assert len(served) == 12
        for response in served:
            if response.started < swap_at:
                assert response.bundle_version == "seed"
                assert not response.nocoin_hit
            else:
                assert response.bundle_version == "v2"
                assert response.nocoin_hit
        versions = [r.bundle_version for r in served]
        flip = versions.index("v2")
        assert 0 < flip < 12  # the swap landed mid-run
        assert versions == ["seed"] * flip + ["v2"] * (12 - flip)
        assert server.metrics.counter("service.reload.mixed_bundle") == 0
        assert server.metrics.counter("service.reload.applied") == 1

    def test_malformed_capture_is_answered_and_the_run_completes(self):
        """A capture whose ``block`` type byte is 0x55 fails to decode: each
        request carrying it still gets a verdict, with the failure cited."""
        from tests.test_wasm_decoder_differential import _block_typed

        population = _population()
        server = VerdictServer(population=population)
        domain = population.sites[0].domain
        bad = _block_typed(0x55)
        responses = server.run(
            [_request(domain, 0.5 * i, sequence=i, wasm=(bad,)) for i in range(3)]
        )
        assert [(r.status, r.tier) for r in responses] == [("ok", TIER_FULL)] * 3
        assert server.metrics.counter("service.requests.completed") == 3
        for record in server.verdicts:
            cited = {e.detector: e for e in record.evidence}
            assert cited["signature"].verdict == "invalid"
            assert cited["dynamic"].details == (("error", "WasmDecodeError"),)

    def test_rejected_reload_leaves_service_on_active_bundle(self):
        population = _population()
        server = VerdictServer(population=population, collect_evidence=False)
        domain = population.sites[0].domain
        broken = DetectionBundle.build("broken", filters=FilterList())
        responses = server.run(
            [_request(domain, 0.25 * i, sequence=i) for i in range(4)],
            reloads=[(0.6, broken)],
        )
        assert {r.bundle_version for r in responses if r.status == "ok"} == {"seed"}
        assert server.metrics.counter("service.reload.rejected") == 1
        assert server.store.active().version == "seed"

    def test_degraded_response_carries_the_reason_in_evidence(self):
        population = _population()
        server = VerdictServer(
            population=population,
            policy=ServicePolicy(
                degrade_thresholds=(1, 2, 3),
                queue_capacity=8,
                tenant_rate=1000.0,
                tenant_burst=1000.0,
            ),
        )
        domain = population.sites[0].domain
        server.run([_request(domain, 0.0, sequence=i) for i in range(6)])
        degraded = [
            v for v in server.verdicts
            if any("degraded to" in e.summary for e in v.evidence)
        ]
        assert degraded
        evidence = next(
            e for e in degraded[0].evidence if e.detector == "service"
        )
        details = dict(evidence.details)
        assert details["tier"] in (
            TIER_NO_DYNAMIC, TIER_NO_CLASSIFIER, TIER_STATIC_ONLY
        )
        assert "queue depth" in evidence.summary
        assert "bundle_version" in details

    def test_unsorted_arrivals_cannot_rewind_the_clock(self):
        population = _population()
        server = VerdictServer(population=population, collect_evidence=False)
        domain = population.sites[0].domain
        # burst at t=0: serving runs past later arrival instants
        responses = server.run(
            [_request(domain, 0.0, sequence=i) for i in range(3)]
            + [_request(domain, 0.05, sequence=3)]
        )
        assert len([r for r in responses if r.status == "ok"]) == 4
