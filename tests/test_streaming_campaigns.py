"""Streaming campaigns end to end: determinism, resume, strata, memory.

The streaming population promises the campaign layer an internet that is
identical however it is executed. This suite drives the real campaigns
(sharded zgrab, checkpoint journals, run ledger, scorecard, CLI) over
streamed populations and pins:

- serial / process executor invariance of results, counters, and span
  views;
- kill-and-resume equal to an uninterrupted run, with O(1)-sized journal
  fingerprints doing the matching;
- per-stratum prevalence estimates converging on the configured rates,
  including empty and single-site strata;
- stratum labels surviving into verdicts.jsonl and scorecard rows;
- a 10M-domain sampled campaign completing under a measured memory
  bound (the tentpole's constant-memory claim, asserted).
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.analysis.crawl import ZgrabCampaign
from repro.analysis.parallel import ParallelConfig, ShardedZgrabCampaign, can_fork
from repro.faults.resilience import RetryPolicy
from repro.internet.population import DATASETS
from repro.internet.streaming import StreamingPopulation, parse_strata
from repro.obs.clock import TickClock, use_clock
from repro.obs.profile import make_obs
from tests.oracles.crawl import SequentialZgrabCampaign

SEED = 2018
SIZE = 320
SHARDS = 4
STRATA_TEXT = "top:40:0.5,mid:160:0.25,tail:-:0.1"

needs_fork = pytest.mark.skipif(not can_fork(), reason="needs the fork start method")


def _population(dataset="alexa", seed=SEED, size=SIZE, strata_text=STRATA_TEXT, sample=0):
    strata = parse_strata(strata_text, DATASETS[dataset]) if strata_text else None
    return StreamingPopulation(
        dataset, seed=seed, size=size, strata=strata, sample_per_stratum=sample
    )


def _run(population, mode, workers, checkpoint_dir=None, retry=None):
    obs = make_obs(prefix="sdet")
    campaign = ShardedZgrabCampaign(
        population=population,
        config=ParallelConfig(
            shards=SHARDS,
            workers=workers,
            mode=mode,
            retry=retry if retry is not None else RetryPolicy(),
            checkpoint_dir=checkpoint_dir,
        ),
        obs=obs,
    )
    result = campaign.scan(0)
    return result, campaign.metrics, obs


def _span_view(obs):
    counts: dict = {}
    for span in obs.tracer.spans:
        counts[span.name] = counts.get(span.name, 0) + 1
    return counts, {span.span_id for span in obs.tracer.spans}


def _nonhealth_counters(registry):
    return {k: v for k, v in registry.counters.items() if not k.startswith("health.")}


class TestExecutorInvariance:
    @needs_fork
    @pytest.mark.parametrize("mode,workers", [("process", 2)])
    def test_parallel_equals_serial(self, mode, workers):
        serial_result, serial_metrics, serial_obs = _run(_population(), "serial", 1)
        result, metrics, obs = _run(_population(), mode, workers)
        assert result == serial_result
        assert (
            metrics.merged_registry().counters
            == serial_metrics.merged_registry().counters
        )
        assert (
            metrics.merged_registry().histogram_counts()
            == serial_metrics.merged_registry().histogram_counts()
        )
        assert _span_view(obs) == _span_view(serial_obs)

    @needs_fork
    def test_verdict_stream_is_mode_invariant(self):
        serial_result, _, _ = _run(_population(), "serial", 1)
        process_result, _, _ = _run(_population(), "process", 3)
        serial_dump = [v.to_dict() for v in serial_result.verdicts]
        assert serial_dump == [v.to_dict() for v in process_result.verdicts]
        assert all(v["stratum"] in ("top", "mid", "tail") for v in serial_dump)

    @needs_fork
    def test_sampled_campaign_is_mode_invariant(self):
        serial_result, _, _ = _run(_population(sample=11), "serial", 1)
        process_result, _, _ = _run(_population(sample=11), "process", 3)
        assert serial_result == process_result
        assert serial_result.domains_probed == 33  # 11 per stratum

    def test_sharded_equals_unsharded_campaign(self):
        population = _population()
        sequential = SequentialZgrabCampaign(population=population)
        partial = sequential.scan_sites(population.sites, 0)
        baseline = sequential.finalize_scan(partial, 0)
        sharded, _, _ = _run(_population(), "serial", 1)
        assert sharded == baseline

    def test_timing_reproduces_under_tick_clock(self):
        snapshots = []
        for _ in range(2):
            with use_clock(TickClock()):
                _result, metrics, obs = _run(_population(), "serial", 1)
            snapshots.append(
                (
                    metrics.wall_seconds,
                    [s.wall_seconds for s in metrics.shards],
                    obs.tracer.to_jsonl(),
                )
            )
        assert snapshots[0] == snapshots[1]


class TestKillAndResume:
    def test_killed_run_resumes_bit_identical(self, tmp_path, monkeypatch):
        baseline, baseline_metrics, _ = _run(_population(), "serial", 1)

        calls = {"n": 0}
        original = ZgrabCampaign._scan_site

        def bomb(self, fetcher, site):
            calls["n"] += 1
            if calls["n"] % 5 == 0:
                raise RuntimeError("simulated kill")
            return original(self, fetcher, site)

        monkeypatch.setattr(ZgrabCampaign, "_scan_site", bomb)
        interrupted, interrupted_metrics, _ = _run(
            _population(),
            "serial",
            1,
            checkpoint_dir=str(tmp_path),
            retry=RetryPolicy(max_attempts=1),
        )
        assert interrupted_metrics.failed_shards
        assert interrupted.domains_probed < baseline.domains_probed
        monkeypatch.setattr(ZgrabCampaign, "_scan_site", original)

        resumed, resumed_metrics, _ = _run(
            _population(), "serial", 1, checkpoint_dir=str(tmp_path)
        )
        assert resumed == baseline
        assert [v.to_dict() for v in resumed.verdicts] == [
            v.to_dict() for v in baseline.verdicts
        ]
        assert _nonhealth_counters(resumed_metrics.merged_registry()) == _nonhealth_counters(
            baseline_metrics.merged_registry()
        )
        assert resumed_metrics.merged_registry().counter("health.checkpoint.resumed") > 0

    def test_journal_pins_population_identity_not_domain_list(self, tmp_path):
        """A journal written for one streamed internet must not replay
        into a differently-seeded or differently-sized one."""
        _run(_population(seed=1), "serial", 1, checkpoint_dir=str(tmp_path))

        reseeded, metrics, _ = _run(
            _population(seed=2), "serial", 1, checkpoint_dir=str(tmp_path)
        )
        clean, _, _ = _run(_population(seed=2), "serial", 1)
        assert reseeded == clean
        assert metrics.merged_registry().counter("health.checkpoint.resumed") == 0

    def test_resume_works_on_sampled_scans(self, tmp_path):
        fresh, _, _ = _run(
            _population(sample=9), "serial", 1, checkpoint_dir=str(tmp_path)
        )
        resumed, metrics, _ = _run(
            _population(sample=9), "serial", 1, checkpoint_dir=str(tmp_path)
        )
        assert resumed == fresh
        assert metrics.merged_registry().counter("health.checkpoint.resumed") > 0


class TestStratifiedPrevalence:
    def test_per_stratum_rates_converge_on_configuration(self):
        """Observed signal prevalence per stratum tracks the configured
        rate within sampling tolerance — the stratified draw really does
        skew the streamed internet by rank."""
        population = _population("com", size=4000, strata_text="hot:400:0.4,cold:-:0.02")
        hits = {"hot": 0, "cold": 0}
        totals = {"hot": 0, "cold": 0}
        for site in population.iter_sites():
            totals[site.stratum] += 1
            if site.role != "clean":
                hits[site.stratum] += 1
        hot_rate = hits["hot"] / totals["hot"]
        cold_rate = hits["cold"] / totals["cold"]
        assert abs(hot_rate - 0.4) < 0.08
        assert abs(cold_rate - 0.02) < 0.012
        assert hot_rate > 5 * cold_rate

    def test_stratum_rows_extrapolate_sampled_scans(self):
        population = _population("com", size=2000, strata_text="hot:200:0.5,cold:-:0.0", sample=60)
        result, _, _ = _run(population, "serial", 1)
        rows = {row.stratum: row for row in result.stratum_rows}
        assert set(rows) == {"hot", "cold"}
        assert rows["hot"].probed == 60 and rows["cold"].probed == 60
        assert rows["hot"].population_size == 200
        assert rows["cold"].population_size == 1800
        # extrapolation: estimated domains scale the stratum, not the sample
        assert rows["hot"].estimated_domains == round(rows["hot"].prevalence * 200)
        assert rows["hot"].prevalence > 0.2
        assert rows["cold"].hits == 0 and rows["cold"].estimated_domains == 0

    def test_empty_stratum_yields_no_row(self):
        """Strata past the population's end simply never appear."""
        population = _population("net", size=30, strata_text="a:100:0.3,b:500:0.2,c:-:0.1")
        assert population.stratum_sizes() == {"a": 30, "b": 0, "c": 0}
        result, _, _ = _run(population, "serial", 1)
        assert [row.stratum for row in result.stratum_rows] == ["a"]

    def test_single_site_stratum(self):
        population = _population("net", size=5, strata_text="one:1:1.0,rest:-:0.0")
        result, _, _ = _run(population, "serial", 1)
        rows = {row.stratum: row for row in result.stratum_rows}
        assert rows["one"].probed == 1 and rows["one"].population_size == 1
        assert population.site(0).role != "clean"  # rate 1.0 forces a signal role
        assert all(site.role == "clean" for site in population.iter_sites(range(1, 5)))


class TestScorecardStrata:
    def test_stratum_labels_survive_to_scorecard_rows(self, tmp_path):
        from repro.cli import main
        from repro.obs.ledger import load_run
        from repro.obs.scorecard import build_scorecard, scorecard_rows

        run_dir = tmp_path / "run"
        main(
            [
                "--seed", str(SEED),
                "crawl",
                "--dataset", "alexa",
                "--population-size", str(SIZE),
                "--zgrab-only",
                "--strata", STRATA_TEXT,
                "--run-dir", str(run_dir),
            ]
        )
        card = build_scorecard(load_run(run_dir))
        names = [row[0] for row in scorecard_rows(card)]
        assert names[:4] == [
            "nocoin_static",
            "nocoin_static.top",
            "nocoin_static.mid",
            "nocoin_static.tail",
        ]
        # the per-stratum slices partition the base detector's matrix
        base = card.matrices["nocoin_static"]
        sliced = [card.matrices[f"nocoin_static.{s}"] for s in ("top", "mid", "tail")]
        assert sum(m.tp for m in sliced) == base.tp
        assert sum(m.fp + m.fn + m.tn for m in sliced) == base.fp + base.fn + base.tn
        assert card.truth_miners > 0  # lazy streaming truth found the miners
        # stratum metrics are addressable by --fail-on's grammar
        assert "detector.nocoin_static.top.recall" in card.metrics()
        # and the persisted verdicts carry the labels
        payloads = [
            json.loads(line)
            for line in (run_dir / "verdicts.jsonl").read_text().splitlines()
        ]
        records = [p for p in payloads if "subject" in p]  # skip schema header
        assert records
        assert {p.get("stratum") for p in records} == {"top", "mid", "tail"}

    def test_materialized_runs_emit_no_stratum_keys(self, tmp_path):
        from repro.cli import main

        run_dir = tmp_path / "legacy"
        main(
            [
                "--seed", str(SEED),
                "crawl",
                "--dataset", "com",
                "--scale", "0.05",
                "--run-dir", str(run_dir),
            ]
        )
        payloads = [
            json.loads(line)
            for line in (run_dir / "verdicts.jsonl").read_text().splitlines()
        ]
        records = [p for p in payloads if "subject" in p]
        assert records
        assert all("stratum" not in p for p in records)


class TestConstantMemoryAtScale:
    def test_10m_domain_sampled_campaign_is_memory_bounded(self):
        """The acceptance scenario: a 10M-domain internet, stratified
        sample, real sharded campaign — peak derivation memory must stay
        flat (it would be gigabytes if anything materialized)."""
        population = StreamingPopulation(
            "com", seed=SEED, size=10_000_000, sample_per_stratum=25
        )
        assert population.stratum_sizes() == {
            "top1k": 1_000,
            "top10k": 9_000,
            "top100k": 90_000,
            "top1m": 900_000,
            "tail": 9_000_000,
        }
        tracemalloc.start()
        try:
            result, metrics, _ = _run(population, "serial", 1)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.domains_probed == 125  # 25 ranks per stratum
        assert {row.stratum for row in result.stratum_rows} == {
            "top1k", "top10k", "top100k", "top1m", "tail",
        }
        assert len(metrics.shards) == SHARDS
        # 10M sites at ~1KB apiece would be ~10GB materialized; the
        # streamed campaign must stay under a flat few-MB ceiling
        assert peak < 32 * 1024 * 1024, f"peak RSS {peak / 1e6:.1f} MB"

    def test_shard_population_state_does_not_grow_with_size(self):
        small = StreamingPopulation("com", seed=1, size=1_000, sample_per_stratum=10)
        huge = StreamingPopulation("com", seed=1, size=100_000_000, sample_per_stratum=10)
        # identity material is O(1) regardless of population size
        assert len(huge.checkpoint_identity(range(0, 10**7))) == len(
            small.checkpoint_identity(range(0, 500))
        )
        # deriving the same rank yields the same site either way: site i
        # depends on (seed, dataset, i) alone, never on the size
        assert huge.site(123).domain == small.site(123).domain


class TestReproduceRunner:
    def test_streaming_reproduction_reports_strata_and_skips_chrome(self, tmp_path):
        from repro.analysis.runner import ReproductionConfig, run_reproduction
        from repro.obs.ledger import load_run

        run_dir = tmp_path / "rrun"
        config = ReproductionConfig(
            seed=SEED,
            datasets=("alexa", "org"),
            population_size=120,
            strata="top:20:0.4,tail:-:0.1",
            network_days=2,
            shortlink_scale=0.002,
            run_dir=str(run_dir),
        )
        report = run_reproduction(config, log=lambda *args: None)
        assert "Per-stratum prevalence" in report.sections
        assert "alexa" in report.sections["Per-stratum prevalence"]
        # chrome plane skipped: no chrome rows for the chrome datasets
        assert report.sections["Tables 1–2 — Chrome crawls"].count("alexa") == 0
        artifacts = load_run(run_dir)
        assert artifacts.manifest.params["population_size"] == 120
        assert artifacts.manifest.params["strata"] == "top:20:0.4,tail:-:0.1"
        zgrab_verdicts = [v for v in artifacts.verdicts if v.pipeline.startswith("zgrab")]
        assert zgrab_verdicts and all(
            v.stratum in ("top", "tail") for v in zgrab_verdicts
        )
