"""Sharded Chrome campaign: merged results must equal the sequential run.

Covers both Chrome-crawled datasets (alexa and .org), full report-list
equality, and the ``UnknownWSS`` display-family edge case in
``_display_family`` surviving the shard merge.
"""

from __future__ import annotations

import pytest

from repro.analysis.crawl import ChromeCampaign
from repro.analysis.parallel import ParallelConfig, ShardedChromeCampaign, can_fork
from repro.internet.population import build_population
from tests.oracles.crawl import SequentialChromeCampaign

SCALE = 0.04
SEED = 2018

needs_fork = pytest.mark.skipif(not can_fork(), reason="needs the fork start method")


@pytest.fixture(scope="module")
def sequential():
    """Sequential-oracle Chrome results for both Chrome datasets."""
    results = {}
    for dataset in ("alexa", "org"):
        population = build_population(dataset, seed=SEED, scale=SCALE)
        results[dataset] = SequentialChromeCampaign(population=population).run()
    return results


def _sharded(dataset: str, mode: str, shards: int, workers: int):
    # a fresh build per campaign: visits mutate the Coinhive pool state
    campaign = ShardedChromeCampaign(
        population=build_population(dataset, seed=SEED, scale=SCALE),
        config=ParallelConfig(shards=shards, workers=workers, mode=mode),
    )
    return campaign, campaign.run()


class TestShardedEqualsSequential:
    @pytest.mark.parametrize("dataset", ["alexa", "org"])
    def test_serial_mode(self, sequential, dataset):
        _, result = _sharded(dataset, "serial", shards=5, workers=1)
        assert result == sequential[dataset]

    @needs_fork
    @pytest.mark.parametrize("dataset", ["alexa", "org"])
    def test_process_mode_three_workers(self, sequential, dataset):
        _, result = _sharded(dataset, "process", shards=4, workers=3)
        assert result == sequential[dataset]

    @needs_fork
    def test_process_mode(self, sequential):
        _, result = _sharded("alexa", "process", shards=3, workers=2)
        assert result == sequential["alexa"]

    def test_report_list_in_population_order(self, sequential):
        population = build_population("alexa", seed=SEED, scale=SCALE)
        _, result = _sharded("alexa", "serial", shards=6, workers=1)
        assert [r.domain for r in result.reports] == [s.domain for s in population.sites]
        assert result.reports == sequential["alexa"].reports

    def test_cross_tab_and_fractions(self, sequential):
        _, result = _sharded("org", "serial", shards=4, workers=1)
        seq = sequential["org"]
        assert result.cross_tab == seq.cross_tab
        assert result.nocoin_categorized_fraction == seq.nocoin_categorized_fraction
        assert result.signature_categorized_fraction == seq.signature_categorized_fraction
        assert result.nocoin_categories == seq.nocoin_categories
        assert result.signature_categories == seq.signature_categories


class TestUnknownWssDisplayFamily:
    def test_display_family_mapping(self):
        assert ChromeCampaign._display_family("unknown-wss") == "UnknownWSS"
        assert ChromeCampaign._display_family("unknown-miner") == "UnknownWSS"
        assert ChromeCampaign._display_family("coinhive") == "coinhive"

    @pytest.mark.parametrize("dataset", ["alexa", "org"])
    def test_unknown_wss_survives_merge(self, sequential, dataset):
        """Both datasets seed unknown-wss miners at this scale; the merged
        signature counts must use the display name, never the raw family."""
        population = build_population(dataset, seed=SEED, scale=SCALE)
        assert any(s.family == "unknown-wss" for s in population.sites)
        _, result = _sharded(dataset, "serial", shards=5, workers=1)
        assert result.signature_counts == sequential[dataset].signature_counts
        # ordered: most_common tie-breaks must match the sequential render
        assert result.signature_counts.most_common() == sequential[dataset].signature_counts.most_common()
        assert "unknown-wss" not in result.signature_counts
        assert "unknown-miner" not in result.signature_counts
        assert result.signature_counts["UnknownWSS"] >= 1


class TestShardedChromeMetrics:
    @needs_fork
    def test_metrics_cover_all_sites(self, sequential):
        campaign, result = _sharded("alexa", "process", shards=4, workers=2)
        metrics = campaign.metrics
        assert metrics is not None
        assert metrics.total_sites == len(result.reports)
        assert metrics.total_detector_hits == result.miner_wasm_sites
        assert not metrics.failed_shards


class TestDetectorBuiltOnce:
    @needs_fork
    def test_two_workers_build_the_database_once_in_the_parent(self, tmp_path, monkeypatch):
        """The parent builds the reference database before the pool forks;
        the workers inherit it instead of each building their own."""
        import os

        from repro.analysis import parallel

        builds = tmp_path / "builds"
        build = parallel.build_reference_database

        def logged_build():
            with open(builds, "a") as log:  # appends from any process land here
                log.write(f"{os.getpid()}\n")
            return build()

        monkeypatch.setattr(parallel, "build_reference_database", logged_build)
        monkeypatch.setattr(parallel, "_WORKER_CACHE", {})
        campaign, _ = _sharded("alexa", "process", shards=2, workers=2)
        assert campaign.metrics.mode == "process"
        assert builds.read_text().split() == [str(os.getpid())]
