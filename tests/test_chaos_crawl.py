"""Chaos campaigns: crawls under injected faults.

The three acceptance invariants:

1. campaigns never crash under any profile — failures are accounted, not
   raised;
2. the fault ledger exactly accounts for every injection
   (``injected == recovered + unrecovered`` and, for saturation plans,
   closed-form expected counts);
3. a sharded run and a sequential run under the same plan produce
   bit-identical merged results, and a run killed mid-shard resumes from
   its checkpoint journal to the same merged report.
"""

from __future__ import annotations

import pytest

from repro.analysis.crawl import ZgrabCampaign
from repro.analysis.parallel import (
    ParallelConfig,
    ShardedChromeCampaign,
    ShardedZgrabCampaign,
    can_fork,
)
from repro.faults.ledger import FaultLedger
from repro.faults.plan import FaultKind, FaultPlan, build_fault_plan
from repro.faults.resilience import BreakerPolicy, ResiliencePolicy, RetryPolicy
from repro.internet.population import build_population
from tests.oracles.crawl import SequentialChromeCampaign, SequentialZgrabCampaign

pytestmark = pytest.mark.chaos

#: the sharded cases: serial, and forked workers where ``fork`` exists
SHARDED_MODES = [
    ("serial", 4, 1),
    pytest.param(
        "process", 5, 3,
        marks=pytest.mark.skipif(not can_fork(), reason="needs the fork start method"),
    ),
]

SEED = 2018
SCALE = 0.04


def _chaos_population(profile: str, dataset: str = "alexa"):
    population = build_population(dataset, seed=SEED, scale=SCALE)
    population.attach_fault_plan(build_fault_plan(profile, seed=SEED))
    return population


def _fault_counters(ledger: FaultLedger) -> tuple:
    """The counters that must be identical across execution modes and
    resumes (checkpoint counters legitimately differ)."""
    return (
        ledger.injected,
        ledger.observed,
        ledger.recovered,
        ledger.unrecovered,
        ledger.retries,
        ledger.breaker_opened,
        ledger.breaker_half_open,
        ledger.breaker_closed,
    )


class TestCampaignsNeverCrash:
    @pytest.mark.parametrize("profile", ["mild", "heavy"])
    def test_zgrab_both_scans_complete(self, profile):
        population = _chaos_population(profile)
        campaign = SequentialZgrabCampaign(population=population, resilience=ResiliencePolicy())
        partial = campaign.scan_sites(population.sites, 0)
        result = campaign.finalize_scan(partial, 0)
        assert result.domains_probed == len(population.sites)
        assert partial.fault_ledger.balanced()
        assert partial.fault_ledger.total_injected > 0

    @pytest.mark.parametrize("profile", ["mild", "heavy"])
    def test_chrome_run_completes(self, profile):
        population = _chaos_population(profile)
        campaign = SequentialChromeCampaign(population=population)
        partial = campaign.run_sites(enumerate(population.sites))
        result = campaign.finalize_run(partial)
        assert len(result.reports) == len(population.sites)
        assert partial.fault_ledger.balanced()

    def test_heavy_recovers_some_and_loses_some(self):
        population = _chaos_population("heavy")
        campaign = SequentialZgrabCampaign(population=population, resilience=ResiliencePolicy())
        ledger = campaign.scan_sites(population.sites, 0).fault_ledger
        assert ledger.total_recovered > 0          # retries paid off somewhere
        assert sum(ledger.unrecovered.values()) > 0  # and chaos still hurt
        assert ledger.retries > 0


class TestExactAccounting:
    def test_reset_saturation_closed_form(self):
        """rate=1.0 resets: every domain burns exactly max_attempts
        injections, opens its breaker, and books one terminal failure."""
        population = build_population("alexa", seed=SEED, scale=SCALE)
        population.attach_fault_plan(FaultPlan(seed=SEED, rates={FaultKind.RESET: 1.0}))
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
            breaker=BreakerPolicy(failure_threshold=3),
            deadline=1000.0,
        )
        campaign = SequentialZgrabCampaign(population=population, resilience=resilience)
        partial = campaign.scan_sites(population.sites, 0)
        n = len(population.sites)
        ledger = partial.fault_ledger
        assert partial.fetch_failures == n
        assert ledger.injected["reset"] == 3 * n
        assert ledger.unrecovered["reset"] == 3 * n
        assert ledger.retries == 2 * n
        assert ledger.breaker_opened == n
        assert ledger.observed["connection-reset"] == n
        assert ledger.balanced()

    def test_dns_saturation_fails_fast(self):
        """Permanent faults must not burn the retry budget."""
        population = build_population("alexa", seed=SEED, scale=SCALE)
        population.attach_fault_plan(FaultPlan(seed=SEED, rates={FaultKind.DNS: 1.0}))
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0), breaker=None
        )
        campaign = SequentialZgrabCampaign(population=population, resilience=resilience)
        ledger = campaign.scan_sites(population.sites, 0).fault_ledger
        n = len(population.sites)
        assert ledger.injected["dns"] == n     # exactly one attempt per domain
        assert ledger.retries == 0
        assert ledger.observed["dns"] == n

    def test_flap_saturation_all_recover(self):
        """Flapping origins fail ``flap_failures`` attempts then recover —
        with enough retry budget every injection settles as recovered."""
        population = build_population("alexa", seed=SEED, scale=SCALE)
        population.attach_fault_plan(
            FaultPlan(seed=SEED, rates={FaultKind.FLAP: 1.0}, flap_failures=2)
        )
        resilience = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, backoff_base=0.0),
            breaker=BreakerPolicy(failure_threshold=5),
            deadline=1000.0,
        )
        campaign = SequentialZgrabCampaign(population=population, resilience=resilience)
        partial = campaign.scan_sites(population.sites, 0)
        ledger = partial.fault_ledger
        n = len(population.sites)
        assert ledger.injected["flap"] == 2 * n
        # the flap always clears, so its injections recover exactly on the
        # domains whose *organic* fetch then succeeds, and settle as
        # unrecovered on the population's genuinely dead hosts
        assert ledger.recovered["flap"] == 2 * (n - partial.fetch_failures)
        assert ledger.unrecovered["flap"] == 2 * partial.fetch_failures
        assert ledger.balanced()
        # flap-recovered fetches then hit the organic population, so the
        # scan's outcomes match a no-chaos scan exactly
        clean_population = build_population("alexa", seed=SEED, scale=SCALE)
        clean = SequentialZgrabCampaign(population=clean_population).scan_sites(
            clean_population.sites, 0
        )
        assert partial.nocoin_domains == clean.nocoin_domains
        assert partial.fetch_failures == clean.fetch_failures


class TestShardedEqualsSequential:
    @pytest.fixture(scope="class")
    def sequential(self):
        population = _chaos_population("heavy")
        campaign = SequentialZgrabCampaign(population=population, resilience=ResiliencePolicy())
        partial = campaign.scan_sites(population.sites, 0)
        return campaign.finalize_scan(partial, 0), partial.fault_ledger

    @pytest.mark.parametrize("mode,shards,workers", SHARDED_MODES)
    def test_same_plan_same_results_and_ledger(self, sequential, mode, shards, workers):
        seq_result, seq_ledger = sequential
        population = _chaos_population("heavy")
        config = ParallelConfig(
            shards=shards, workers=workers, mode=mode, resilience=ResiliencePolicy()
        )
        campaign = ShardedZgrabCampaign(population=population, config=config)
        result = campaign.scan(0)
        assert result == seq_result
        assert _fault_counters(campaign.metrics.fault_ledger) == _fault_counters(seq_ledger)

    @pytest.mark.skipif(not can_fork(), reason="needs the fork start method")
    def test_chrome_sharded_equals_sequential(self):
        population = _chaos_population("mild")
        campaign = SequentialChromeCampaign(population=population)
        seq_partial = campaign.run_sites(enumerate(population.sites))
        seq_result = campaign.finalize_run(seq_partial)

        sharded = ShardedChromeCampaign(
            population=_chaos_population("mild"),
            config=ParallelConfig(shards=4, workers=2, mode="process"),
        )
        result = sharded.run()
        assert result == seq_result
        assert _fault_counters(sharded.metrics.fault_ledger) == _fault_counters(
            seq_partial.fault_ledger
        )


class TestStreamingUnderChaos:
    """Fault plans attach to streaming populations exactly as to built
    ones: the lazy web carries the plan, accounting balances,
    and execution mode cannot change the merged outcome."""

    def _streaming_population(self, profile: str):
        from repro.internet.streaming import StreamingPopulation

        population = StreamingPopulation("alexa", seed=SEED, size=220)
        population.attach_fault_plan(build_fault_plan(profile, seed=SEED))
        return population

    @pytest.mark.parametrize("profile", ["mild", "heavy"])
    def test_streamed_scan_completes_and_balances(self, profile):
        population = self._streaming_population(profile)
        campaign = SequentialZgrabCampaign(population=population, resilience=ResiliencePolicy())
        partial = campaign.scan_sites(population.sites, 0)
        assert campaign.finalize_scan(partial, 0).domains_probed == 220
        assert partial.fault_ledger.balanced()
        assert partial.fault_ledger.total_injected > 0

    @pytest.mark.parametrize("mode,shards,workers", SHARDED_MODES)
    def test_streamed_sharded_equals_sequential(self, mode, shards, workers):
        population = self._streaming_population("heavy")
        sequential = SequentialZgrabCampaign(population=population, resilience=ResiliencePolicy())
        seq_partial = sequential.scan_sites(population.sites, 0)
        seq_result = sequential.finalize_scan(seq_partial, 0)

        sharded = ShardedZgrabCampaign(
            population=self._streaming_population("heavy"),
            config=ParallelConfig(
                shards=shards, workers=workers, mode=mode, resilience=ResiliencePolicy()
            ),
        )
        assert sharded.scan(0) == seq_result
        assert _fault_counters(sharded.metrics.fault_ledger) == _fault_counters(
            seq_partial.fault_ledger
        )


class TestKillAndResume:
    def test_zgrab_killed_shards_resume_to_identical_report(self, tmp_path, monkeypatch):
        plan = build_fault_plan("mild", seed=SEED)
        resilience = ResiliencePolicy()

        def fresh_population():
            population = build_population("alexa", seed=SEED, scale=SCALE)
            population.attach_fault_plan(plan)
            return population

        baseline_campaign = ShardedZgrabCampaign(
            population=fresh_population(),
            config=ParallelConfig(shards=4, workers=1, mode="serial", resilience=resilience),
        )
        baseline = baseline_campaign.scan(0)
        baseline_ledger = baseline_campaign.metrics.fault_ledger

        # run 1: every shard dies after 3 sites (the journal keeps the prefix)
        calls = {"n": 0}
        original = ZgrabCampaign._scan_site

        def bomb(self, fetcher, site):
            calls["n"] += 1
            if calls["n"] % 4 == 0:
                raise RuntimeError("simulated kill")
            return original(self, fetcher, site)

        monkeypatch.setattr(ZgrabCampaign, "_scan_site", bomb)
        interrupted = ShardedZgrabCampaign(
            population=fresh_population(),
            config=ParallelConfig(
                shards=4,
                workers=1,
                mode="serial",
                retry=RetryPolicy(max_attempts=1),
                resilience=resilience,
                checkpoint_dir=str(tmp_path),
            ),
        )
        partial_result = interrupted.scan(0)
        assert interrupted.metrics.failed_shards  # the kill really happened
        assert partial_result.domains_probed < baseline.domains_probed
        monkeypatch.setattr(ZgrabCampaign, "_scan_site", original)

        # run 2: same journal directory, no bomb — resumes and completes
        resumed_campaign = ShardedZgrabCampaign(
            population=fresh_population(),
            config=ParallelConfig(
                shards=4,
                workers=1,
                mode="serial",
                resilience=resilience,
                checkpoint_dir=str(tmp_path),
            ),
        )
        resumed = resumed_campaign.scan(0)
        resumed_ledger = resumed_campaign.metrics.fault_ledger
        assert resumed == baseline
        assert _fault_counters(resumed_ledger) == _fault_counters(baseline_ledger)
        assert resumed_ledger.checkpoint_resumed > 0

    def test_datasets_sharing_a_checkpoint_dir_stay_isolated(self, tmp_path):
        """``reproduce`` loops several datasets over one checkpoint
        directory; each dataset's shards must journal under their own
        names and never replay another dataset's outcomes for
        overlapping population indices."""

        def run(dataset, checkpoint_dir=None):
            population = build_population(dataset, seed=SEED, scale=SCALE)
            campaign = ShardedZgrabCampaign(
                population=population,
                config=ParallelConfig(
                    shards=4, workers=1, mode="serial", checkpoint_dir=checkpoint_dir
                ),
            )
            return campaign.scan(0)

        baseline_alexa = run("alexa")
        baseline_com = run("com")
        assert run("alexa", str(tmp_path)) == baseline_alexa
        assert run("com", str(tmp_path)) == baseline_com  # same dir, fresh journals
        # reruns replay each dataset's own journal, not the other's
        assert run("alexa", str(tmp_path)) == baseline_alexa
        assert run("com", str(tmp_path)) == baseline_com

    def test_stale_journal_from_other_config_is_discarded(self, tmp_path):
        """Resuming with a different seed must re-run every site instead
        of replaying the old configuration's outcomes."""

        def run(seed, checkpoint_dir=None):
            population = build_population("alexa", seed=seed, scale=SCALE)
            campaign = ShardedZgrabCampaign(
                population=population,
                config=ParallelConfig(
                    shards=2, workers=1, mode="serial", checkpoint_dir=checkpoint_dir
                ),
            )
            return campaign.scan(0), campaign.metrics.fault_ledger

        run(seed=1, checkpoint_dir=str(tmp_path))
        resumed, ledger = run(seed=2, checkpoint_dir=str(tmp_path))
        clean, _ = run(seed=2)
        assert resumed == clean
        assert ledger.checkpoint_resumed == 0  # nothing crossed the seeds

    def test_chrome_full_replay_is_identical(self, tmp_path):
        config = ParallelConfig(
            shards=3, workers=1, mode="serial", checkpoint_dir=str(tmp_path)
        )
        first_campaign = ShardedChromeCampaign(
            population=_chaos_population("mild"), config=config
        )
        first = first_campaign.run()
        assert first_campaign.metrics.fault_ledger.checkpoint_recorded == len(
            first.reports
        )

        second_campaign = ShardedChromeCampaign(
            population=_chaos_population("mild"), config=config
        )
        second = second_campaign.run()
        assert second == first
        ledger = second_campaign.metrics.fault_ledger
        assert ledger.checkpoint_resumed == len(first.reports)
        assert _fault_counters(ledger) == _fault_counters(
            first_campaign.metrics.fault_ledger
        )
