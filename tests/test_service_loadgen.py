"""Load generation, overload invariants, SLO gates, and the service CLI
surfaces (`serve`, `loadgen`, `obs slo`).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.detector import TIER_FULL, TIER_STATIC_ONLY
from repro.obs import gates
from repro.obs.metrics import MetricsRegistry
from repro.service.admission import ServicePolicy
from repro.service.loadgen import LoadgenConfig, build_requests, run_loadgen

SEED = 2018

#: rate ≈ 2× the default policy's nominal_capacity (~23.8 r/s)
OVERLOAD = LoadgenConfig(
    seed=SEED,
    dataset="alexa",
    scale=0.05,
    rate=48.0,
    duration=15.0,
    tenants=4,
    fault_profile="heavy",
    reload_at=(5.0,),
    bad_reload_at=(9.0,),
)


@pytest.fixture(scope="module")
def overload_report():
    return run_loadgen(OVERLOAD)


class TestRequestSynthesis:
    def test_schedule_is_seeded_and_sorted(self):
        from repro.internet.population import build_population

        population = build_population("alexa", seed=SEED, scale=0.05)
        first = build_requests(OVERLOAD, population)
        second = build_requests(OVERLOAD, population)
        assert first == second
        arrivals = [r.arrival for r in first]
        assert arrivals == sorted(arrivals)
        assert {r.tenant for r in first} == {f"tenant-{i}" for i in range(4)}

    def test_miner_sites_carry_their_corpus_capture(self):
        from repro.internet.population import build_population

        population = build_population("alexa", seed=SEED, scale=0.05)
        miners = population.ground_truth_miners()
        requests = build_requests(OVERLOAD, population)
        with_capture = [r for r in requests if r.domain in miners]
        assert with_capture
        assert all(r.wasm_dumps and r.websocket_urls for r in with_capture)


class TestOverloadInvariants:
    """The acceptance-criteria run: heavy faults at 2× capacity."""

    def test_run_completes_with_bounded_queue(self, overload_report):
        report = overload_report
        assert report.offered > 0
        depth = report.server.metrics.gauges["service.queue.depth"]
        assert depth <= report.config.policy.queue_capacity
        assert report.server.queue_depth == 0  # fully drained, no deadlock

    def test_every_offer_is_accounted(self, overload_report):
        report = overload_report
        counter = report.counter
        assert report.offered == (
            counter("service.requests.admitted")
            + counter("service.rejected.rate_limit")
            + counter("service.rejected.queue_full")
        )
        assert counter("service.requests.admitted") == (
            report.completed + counter("service.rejected.deadline")
        )
        assert len(report.responses) == report.offered

    def test_fault_ledger_balances(self, overload_report):
        ledger = overload_report.server.ledger
        assert ledger.has_events()
        assert ledger.balanced()  # injected == recovered + unrecovered

    def test_overload_actually_sheds_and_degrades(self, overload_report):
        report = overload_report
        assert report.shed_rate > 0.1
        degraded = sum(
            report.server.metrics.counters_with_prefix("service.degraded.").values()
        )
        assert degraded > 0
        assert report.counter("service.reload.applied") == 1
        assert report.counter("service.reload.rejected") == 1
        assert report.counter("service.reload.mixed_bundle") == 0

    def test_metrics_are_byte_identical_across_twin_runs(self, overload_report):
        twin = run_loadgen(OVERLOAD)
        first = json.dumps(overload_report.server.metrics.to_dict(), sort_keys=True)
        second = json.dumps(twin.server.metrics.to_dict(), sort_keys=True)
        assert first == second

    def test_chaos_reaches_the_signature_path(self, overload_report):
        assert overload_report.counter("service.signature.stalls") > 0


class TestRecallByTier:
    def test_full_tier_recall_is_total_at_low_load(self):
        report = run_loadgen(
            LoadgenConfig(seed=SEED, dataset="alexa", scale=0.05, rate=6.0, duration=20.0)
        )
        assert report.recall(TIER_FULL) == 1.0
        assert report.shed_rate == 0.0

    def test_static_only_recall_drops_to_the_nocoin_listed_share(self, overload_report):
        static = overload_report.recall(TIER_STATIC_ONLY)
        full = overload_report.recall(TIER_FULL)
        if static is None or full is None:
            pytest.skip("tier not exercised at this seed")
        # static-only keeps only the NoCoin match: strictly blinder
        assert static < full


class TestSloGates:
    def test_parse_latency_shorthand(self):
        gate = gates.parse("p99>0.5")
        assert (gate.target, gate.op, gate.value) == ("p99", ">", 0.5)

    def test_parse_rejects_relative_expressions(self):
        with pytest.raises(ValueError, match="absolute"):
            gates.evaluate(gates.parse("p99>1.2x"), MetricsRegistry())

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad gate expression"):
            gates.parse("p99 is too high")

    def test_values_resolve_against_run_metrics(self, overload_report):
        view = gates.RegistryView(overload_report.server.metrics)
        assert view.value("p99") == overload_report.latency_quantile(0.99)
        assert view.value("shed_rate") == pytest.approx(overload_report.shed_rate)
        assert view.value("service.reload.mixed_bundle") == 0
        assert view.value("service.latency.count") == overload_report.completed
        assert view.value("degraded_rate") > 0

    def test_evaluate_flags_violations_only(self, overload_report):
        registry = overload_report.server.metrics
        verdict = gates.evaluate(gates.parse("p99>100"), registry)
        assert not verdict.violated and "ok" in verdict.detail
        verdict = gates.evaluate(gates.parse("service.requests.offered<1"), registry)
        assert not verdict.violated
        verdict = gates.evaluate(gates.parse("p99>0.000001"), registry)
        assert verdict.violated and "VIOLATED" in verdict.detail


class TestServiceCli:
    def test_loadgen_then_obs_slo_gate_passes(self, tmp_path, capsys):
        run_dir = tmp_path / "svc"
        assert main(
            [
                "--seed", "11", "loadgen", "--dataset", "alexa", "--scale", "0.05",
                "--rate", "30", "--duration", "8", "--tenants", "3",
                "--fault-profile", "heavy", "--reload-at", "3",
                "--bad-reload-at", "5", "--run-dir", str(run_dir),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "load report" in out
        assert "shed rate" in out
        assert (run_dir / "metrics.json").exists()
        assert main(
            [
                "obs", "slo", str(run_dir),
                "--fail-on", "p99>10",
                "--fail-on", "service.reload.mixed_bundle>0",
            ]
        ) == 0
        assert "service SLOs" in capsys.readouterr().out

    def test_obs_slo_gate_violation_exits_1(self, tmp_path, capsys):
        run_dir = tmp_path / "svc"
        main(
            [
                "--seed", "11", "loadgen", "--dataset", "alexa", "--scale", "0.05",
                "--rate", "30", "--duration", "5", "--run-dir", str(run_dir),
            ]
        )
        capsys.readouterr()
        assert main(["obs", "slo", str(run_dir), "--fail-on", "p99>0.000001"]) == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_obs_slo_bad_expression_exits_2(self, tmp_path, capsys):
        run_dir = tmp_path / "svc"
        main(
            [
                "--seed", "11", "loadgen", "--dataset", "alexa", "--scale", "0.05",
                "--rate", "20", "--duration", "4", "--run-dir", str(run_dir),
            ]
        )
        capsys.readouterr()
        assert main(["obs", "slo", str(run_dir), "--fail-on", "p99>1.2x"]) == 2

    def test_obs_slo_rejects_non_service_runs(self, tmp_path, capsys):
        run_dir = tmp_path / "crawl"
        main(
            [
                "--seed", "11", "crawl", "--dataset", "net", "--scale", "0.03",
                "--run-dir", str(run_dir),
            ]
        )
        capsys.readouterr()
        assert main(["obs", "slo", str(run_dir)]) == 1
        assert "no service.* metrics" in capsys.readouterr().out

    def test_obs_explain_renders_service_verdicts(self, tmp_path, capsys):
        run_dir = tmp_path / "svc"
        main(
            [
                "--seed", "11", "loadgen", "--dataset", "alexa", "--scale", "0.05",
                "--rate", "20", "--duration", "5", "--run-dir", str(run_dir),
            ]
        )
        capsys.readouterr()
        payloads = [
            json.loads(line)
            for line in (run_dir / "verdicts.jsonl").read_text().splitlines()
        ]
        subject = next(p["subject"] for p in payloads if "subject" in p)
        assert main(["obs", "explain", str(run_dir), subject]) == 0
        assert "[alexa/service]" in capsys.readouterr().out

    def test_serve_named_domains(self, capsys):
        assert main(
            ["--seed", "3", "serve", "--dataset", "alexa", "--scale", "0.05"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdicts" in out
        assert "offered=12" in out

    def test_serve_unknown_domain_exits_2(self, capsys):
        assert main(
            [
                "--seed", "3", "serve", "--dataset", "alexa", "--scale", "0.05",
                "not-a-site.example",
            ]
        ) == 2
        assert "not in the alexa population" in capsys.readouterr().err


class TestPolicyCapacity:
    def test_overload_rate_is_twice_capacity(self):
        # guards the acceptance criterion: the canned overload profile
        # really offers ~2x what the default policy can serve
        capacity = ServicePolicy().nominal_capacity
        assert OVERLOAD.rate == pytest.approx(2 * capacity, rel=0.05)
