"""Property tests for the sharded parallel campaign executor (zgrab path).

The contract under test: for any population and any shard/worker/mode
configuration, the sharded scan merges to results exactly equal to the
one-pass oracle's (:class:`tests.oracles.crawl.SequentialZgrabCampaign`)
— counts, script shares, and failure tallies included.
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import (
    ParallelConfig,
    ShardedZgrabCampaign,
    can_fork,
)
from repro.faults.resilience import RetryPolicy, run_with_retry
from repro.internet.population import build_population, partition_indices, stable_shard
from tests.oracles.crawl import SequentialZgrabCampaign

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - dev extra not installed
    HAVE_HYPOTHESIS = False

needs_fork = pytest.mark.skipif(not can_fork(), reason="needs the fork start method")


# ---------------------------------------------------------------------------
# shard assignment


class TestStableShard:
    def test_in_range(self):
        for num_shards in range(1, 9):
            for domain in ("example.com", "a.org", "xn--caf-dma.net"):
                assert 0 <= stable_shard(domain, num_shards) < num_shards

    def test_deterministic_across_calls(self):
        assert stable_shard("example.com", 8) == stable_shard("example.com", 8)

    def test_pinned_values(self):
        # SHA-256 based: must never drift across Python versions/platforms,
        # or resumable campaigns would re-shard mid-flight.
        assert stable_shard("example.com", 8) == int.from_bytes(
            __import__("hashlib").sha256(b"example.com").digest()[:8], "big"
        ) % 8

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ValueError):
            stable_shard("example.com", 0)

    def test_spreads_domains(self):
        population = build_population("net", seed=11, scale=0.3)
        assignments = {stable_shard(s.domain, 8) for s in population.sites}
        assert len(assignments) == 8  # every shard gets work at this size

    if HAVE_HYPOTHESIS:

        @given(st.text(min_size=1, max_size=40), st.integers(min_value=1, max_value=64))
        @settings(max_examples=200, deadline=None)
        def test_property_in_range_and_stable(self, domain, num_shards):
            shard = stable_shard(domain, num_shards)
            assert 0 <= shard < num_shards
            assert shard == stable_shard(domain, num_shards)


class TestPartitionIndices:
    def test_exact_cover(self):
        population = build_population("net", seed=5, scale=0.2)
        shards = partition_indices(population.sites, 5)
        seen = sorted(i for shard in shards for i in shard)
        assert seen == list(range(len(population.sites)))

    def test_follows_domain_hash(self):
        population = build_population("net", seed=5, scale=0.2)
        shards = partition_indices(population.sites, 5)
        for shard_id, indices in enumerate(shards):
            for index in indices:
                assert stable_shard(population.sites[index].domain, 5) == shard_id

    def test_stable_under_site_reordering(self):
        population = build_population("net", seed=5, scale=0.2)
        by_domain = {}
        for shard_id, indices in enumerate(partition_indices(population.sites, 4)):
            for index in indices:
                by_domain[population.sites[index].domain] = shard_id
        reordered = list(reversed(population.sites))
        for shard_id, indices in enumerate(partition_indices(reordered, 4)):
            for index in indices:
                assert by_domain[reordered[index].domain] == shard_id


# ---------------------------------------------------------------------------
# sharded == sequential (seeded property loop)


class TestShardedEqualsSequential:
    # (dataset, seed, scale): three populations of different compositions,
    # including the zgrab-only .com/.net zones and a Chrome-enabled one.
    POPULATIONS = [
        ("net", 3, 0.25),
        ("com", 77, 0.15),
        ("alexa", 2018, 0.04),
    ]

    @pytest.fixture(scope="class")
    def cases(self):
        built = []
        for dataset, seed, scale in self.POPULATIONS:
            population = build_population(dataset, seed=seed, scale=scale)
            campaign = SequentialZgrabCampaign(population=population)
            built.append((population, [campaign.scan(0), campaign.scan(1)]))
        return built

    def test_any_shard_count_serial(self, cases):
        for population, sequential in cases:
            for num_shards in range(1, 9):
                config = ParallelConfig(shards=num_shards, workers=1, mode="serial")
                sharded = ShardedZgrabCampaign(population=population, config=config)
                for scan_index in (0, 1):
                    assert sharded.scan(scan_index) == sequential[scan_index], (
                        population.spec.name, num_shards, scan_index,
                    )

    @needs_fork
    def test_process_mode_every_population(self, cases):
        for population, sequential in cases:
            config = ParallelConfig(shards=6, workers=3, mode="process")
            sharded = ShardedZgrabCampaign(population=population, config=config)
            assert sharded.scan(0) == sequential[0]
            assert sharded.scan(1) == sequential[1]

    @needs_fork
    def test_process_mode(self, cases):
        population, sequential = cases[0]
        config = ParallelConfig(shards=4, workers=2, mode="process")
        sharded = ShardedZgrabCampaign(population=population, config=config)
        assert sharded.scan(0) == sequential[0]

    def test_script_shares_survive_merge(self, cases):
        """Share dicts (label → fraction) must match exactly, not just keys."""
        for population, sequential in cases:
            config = ParallelConfig(shards=7, workers=1, mode="serial")
            result = ShardedZgrabCampaign(population=population, config=config).scan(0)
            assert result.script_shares == sequential[0].script_shares
            # ordered equality too: rendered share listings must not depend
            # on merge order (ties are canonicalized in finalize_scan)
            assert list(result.script_shares.items()) == list(sequential[0].script_shares.items())
            assert sum(result.script_shares.values()) == pytest.approx(
                sum(sequential[0].script_shares.values())
            )


# ---------------------------------------------------------------------------
# metrics


class TestShardMetrics:
    @pytest.fixture(scope="class")
    def campaign(self):
        population = build_population("net", seed=9, scale=0.3)
        campaign = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=4, workers=1, mode="serial"),
        )
        campaign.scan(0)
        return campaign

    def test_per_shard_coverage(self, campaign):
        metrics = campaign.metrics
        assert len(metrics.shards) == 4
        assert sorted(m.shard_id for m in metrics.shards) == [0, 1, 2, 3]
        assert metrics.total_sites == len(campaign.population.sites)

    def test_tallies_match_result(self, campaign):
        sequential = SequentialZgrabCampaign(population=campaign.population).scan(0)
        assert campaign.metrics.total_probed == sequential.domains_probed
        assert campaign.metrics.total_fetch_failures == sequential.fetch_failures
        assert campaign.metrics.total_detector_hits == sequential.nocoin_domains

    def test_wall_clock_recorded(self, campaign):
        assert campaign.metrics.wall_seconds > 0
        assert all(m.wall_seconds >= 0 for m in campaign.metrics.shards)
        assert campaign.metrics.aggregate_rate > 0

    def test_summary_rows_render(self, campaign):
        from repro.analysis.metrics import CampaignMetrics
        from repro.analysis.reporting import render_table

        rows = campaign.metrics.summary_rows()
        assert len(rows) == 4
        text = render_table(CampaignMetrics.SUMMARY_HEADER, rows)
        assert "shard" in text and "ok" in text


# ---------------------------------------------------------------------------
# retry + graceful degradation


class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = []
        delays = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return "done"

        result, retries = run_with_retry(
            flaky, RetryPolicy(max_attempts=5, backoff_base=0.01), sleep=delays.append
        )
        assert result == "done"
        assert retries == 2
        assert delays == [0.01, 0.02]  # exponential backoff

    def test_raises_after_max_attempts(self):
        def poisoned():
            raise RuntimeError("poisoned shard")

        with pytest.raises(RuntimeError):
            run_with_retry(poisoned, RetryPolicy(max_attempts=3, backoff_base=0), sleep=lambda _: None)

    def test_poisoned_shard_degrades_gracefully(self, monkeypatch):
        import repro.analysis.parallel as parallel

        population = build_population("net", seed=9, scale=0.3)
        shard_indices = partition_indices(population.sites, 4)
        original = parallel._zgrab_shard_work

        def poisoned(pop, shard_id, indices, scan_index, *rest):
            if shard_id == 0:
                raise RuntimeError("poisoned")
            return original(pop, shard_id, indices, scan_index, *rest)

        monkeypatch.setattr(parallel, "_zgrab_shard_work", poisoned)
        config = ParallelConfig(
            shards=4, workers=1, mode="serial",
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
        )
        campaign = ShardedZgrabCampaign(population=population, config=config)
        result = campaign.scan(0)  # must not raise

        assert campaign.metrics.failed_shards == [0]
        failed = next(m for m in campaign.metrics.shards if m.shard_id == 0)
        assert failed.error and "poisoned" in failed.error
        # the surviving shards' sites are fully covered
        surviving = sum(len(shard_indices[s]) for s in (1, 2, 3))
        sequential_rest = SequentialZgrabCampaign(population=population).scan_sites(
            (population.sites[i] for s in (1, 2, 3) for i in shard_indices[s]), 0
        )
        assert result.domains_probed == sequential_rest.domains_probed <= surviving

    def test_retries_counted_in_metrics(self, monkeypatch):
        import repro.analysis.parallel as parallel

        population = build_population("net", seed=9, scale=0.2)
        attempts: dict[int, int] = {}
        original = parallel._zgrab_shard_work

        def flaky(pop, shard_id, indices, scan_index, *rest):
            attempts[shard_id] = attempts.get(shard_id, 0) + 1
            if shard_id == 1 and attempts[shard_id] == 1:
                raise RuntimeError("transient")
            return original(pop, shard_id, indices, scan_index, *rest)

        monkeypatch.setattr(parallel, "_zgrab_shard_work", flaky)
        config = ParallelConfig(
            shards=3, workers=1, mode="serial",
            retry=RetryPolicy(max_attempts=3, backoff_base=0.0),
        )
        campaign = ShardedZgrabCampaign(population=population, config=config)
        sequential = SequentialZgrabCampaign(population=population).scan(0)
        assert campaign.scan(0) == sequential  # retry recovered the shard
        by_id = {m.shard_id: m for m in campaign.metrics.shards}
        assert by_id[1].retries == 1
        assert by_id[0].retries == 0


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ParallelConfig(shards=0)
        with pytest.raises(ValueError):
            ParallelConfig(workers=0)
        with pytest.raises(ValueError):
            ParallelConfig(mode="asyncio")
        with pytest.raises(ValueError):
            ParallelConfig(mode="thread")
