"""Determinism regression tests for sharded execution.

Same population seed + different worker counts (or repeated runs) must
produce identical merged results. Guards against Counter merge-order
dependence, cross-shard RNG sharing in :mod:`repro.sim.rng`, and the
browser's page-RNG depending on global visit order.
"""

from __future__ import annotations

import pytest

from repro.analysis.parallel import (
    ParallelConfig,
    ShardedChromeCampaign,
    ShardedZgrabCampaign,
    can_fork,
)
from repro.internet.population import build_population
from repro.sim.rng import RngStream
from repro.web.browser import HeadlessBrowser
from tests.oracles.crawl import SequentialZgrabCampaign

needs_fork = pytest.mark.skipif(not can_fork(), reason="needs the fork start method")


class TestZgrabDeterminism:
    @pytest.fixture(scope="class")
    def population(self):
        return build_population("alexa", seed=42, scale=0.04)

    @needs_fork
    def test_worker_count_invariance(self, population):
        results = []
        for mode, workers in (("serial", 1), ("process", 2), ("process", 3)):
            config = ParallelConfig(shards=4, workers=workers, mode=mode)
            campaign = ShardedZgrabCampaign(population=population, config=config)
            results.append((campaign.scan(0), campaign.scan(1)))
        assert results[0] == results[1] == results[2]

    def test_shard_count_invariance(self, population):
        sequential = SequentialZgrabCampaign(population=population).scan(0)
        for shards in (2, 5, 8):
            config = ParallelConfig(shards=shards, workers=1, mode="serial")
            assert ShardedZgrabCampaign(population=population, config=config).scan(0) == sequential

    def test_repeated_runs_identical(self, population):
        config = ParallelConfig(shards=3, workers=1, mode="serial")
        first = ShardedZgrabCampaign(population=population, config=config).scan(0)
        second = ShardedZgrabCampaign(population=population, config=config).scan(0)
        assert first == second


def _chrome_population():
    # a fresh build per campaign: visits mutate the Coinhive pool state
    return build_population("alexa", seed=42, scale=0.04)


class TestChromeDeterminism:
    @needs_fork
    def test_worker_count_invariance(self):
        results = []
        for mode, workers in (("serial", 1), ("process", 2), ("process", 3)):
            config = ParallelConfig(shards=3, workers=workers, mode=mode)
            campaign = ShardedChromeCampaign(population=_chrome_population(), config=config)
            results.append(campaign.run())
        assert results[0] == results[1] == results[2]

    @needs_fork
    def test_mode_invariance(self):
        serial = ShardedChromeCampaign(
            population=_chrome_population(),
            config=ParallelConfig(shards=4, workers=1, mode="serial"),
        ).run()
        process = ShardedChromeCampaign(
            population=_chrome_population(),
            config=ParallelConfig(shards=4, workers=2, mode="process"),
        ).run()
        assert serial == process


class TestRngIsolation:
    """The properties the executor's determinism actually rests on."""

    def test_substreams_independent_of_consumption_order(self):
        root_a = RngStream(7, "campaign")
        a1 = root_a.substream("shard", "1")
        _ = [a1.random() for _ in range(100)]  # heavy use of shard 1 ...
        a2 = root_a.substream("shard", "2")    # ... must not perturb shard 2
        root_b = RngStream(7, "campaign")
        b2 = root_b.substream("shard", "2")
        assert [a2.random() for _ in range(10)] == [b2.random() for _ in range(10)]

    def test_browser_page_rng_independent_of_visit_order(self):
        """Visiting A,B must replay B's behaviour exactly like visiting B,A —
        the property that lets shards regroup sites arbitrarily."""
        population = build_population("alexa", seed=42, scale=0.03)
        miners = [s for s in population.sites if s.role == "miner"][:2]
        assert len(miners) == 2
        urls = [f"http://www.{s.domain}/" for s in miners]

        def visit_all(ordering):
            browser = HeadlessBrowser(
                population.web, behavior_registry=population.behavior_registry
            )
            pages = {url: browser.visit(url) for url in ordering}
            return {
                url: (page.final_html, sorted(page.websocket_urls()), len(page.wasm_dumps))
                for url, page in pages.items()
            }

        forward = visit_all(urls)
        backward = visit_all(list(reversed(urls)))
        assert forward == backward

    def test_browser_repeat_visits_still_distinct(self):
        """Per-URL visit counters: repeat visits of one URL keep drawing
        fresh randomness (regression guard for the counter refactor)."""
        population = build_population("alexa", seed=42, scale=0.03)
        consent = [s for s in population.sites if s.role == "consent-declined"]
        site = consent[0] if consent else population.sites[0]
        url = f"http://www.{site.domain}/"
        browser = HeadlessBrowser(
            population.web, behavior_registry=population.behavior_registry
        )
        browser.visit(url)
        browser.visit(url)
        # the per-URL counter advanced: the second visit drew from a fresh
        # ("page", url, "2") stream rather than replaying visit 1
        assert browser._visit_counts[url] == 2


class TestMergeOrderIndependence:
    @needs_fork
    def test_merge_in_shard_id_order(self):
        """Partials merge by shard id, not completion order: two campaigns
        with wildly different worker counts end up byte-equal, including
        the Counter iteration order-sensitive script_shares mapping."""
        population = build_population("com", seed=13, scale=0.1)
        lhs = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=8, workers=1, mode="serial"),
        ).scan(0)
        rhs = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=8, workers=3, mode="process"),
        ).scan(0)
        assert lhs == rhs
        assert list(lhs.script_shares.items()) == list(rhs.script_shares.items())
