"""End-to-end integration tests spanning the full pipelines."""

import pytest

from repro.analysis.network import NetworkSimConfig, simulate_network
from repro.analysis.shortlink import ShortLinkStudy
from repro.blockchain.block import set_blob_nonce
from repro.blockchain.hashing import FAST_PARAMS, cryptonight, hash_meets_difficulty
from repro.coinhive.miner_script import CoinhiveMinerKit
from repro.coinhive.resolver import LinkResolver
from repro.coinhive.shortlink import ShortLinkService
from repro.core.detector import PageDetector
from repro.core.signatures import build_reference_database
from repro.internet.shortlinks import build_shortlink_population
from repro.pool.protocol import decode_message, JobMessage
from repro.sim.clock import utc_timestamp
from repro.web.browser import HeadlessBrowser
from repro.web.http import SyntheticWeb
from repro.web.scripts import inline_key
from tests.oracles.crawl import SequentialChromeCampaign, SequentialZgrabCampaign


class TestMinerEndToEnd:
    """A Coinhive miner embedded on a page really mines into the chain."""

    def test_browser_miner_reaches_real_pool(self, coinhive_service):
        web = SyntheticWeb()
        kit = CoinhiveMinerKit(service=coinhive_service, web=web)
        kit.install()
        user = coinhive_service.register_user("miningsite.com")
        tags = kit.official_tags(user.token, endpoint_index=3)
        html = "<html><head>{}</head><body></body></html>".format(
            "".join(tag.to_element().serialize() for tag in tags)
        )
        web.register_page("http://www.miningsite.com/", html.encode())
        registry = {
            (tag.src if tag.src else inline_key(tag.inline)): tag.behavior
            for tag in tags
            if tag.behavior is not None
        }
        browser = HeadlessBrowser(web, behavior_registry=registry)
        result = browser.visit("http://www.miningsite.com/")

        # DevTools capture: wasm + pool frames including a job
        assert result.has_wasm()
        received = [
            decode_message(f.payload)
            for f in result.websocket_frames
            if f.direction == "received"
        ]
        assert any(isinstance(m, JobMessage) for m in received)

        # the observer-side detector classifies the page as a coinhive miner
        detector = PageDetector()
        detector.classifier.database = build_reference_database()
        report = detector.detect_page("miningsite.com", result)
        assert report.is_miner
        assert report.miner_family == "coinhive"
        assert report.nocoin_hit  # official embed is NoCoin-visible

    def test_shares_credited_to_site_token(self, coinhive_service):
        """Drive the pool directly as the page's miner would."""
        user = coinhive_service.register_user("paysite.com")
        pool = coinhive_service.pool
        pool.handle_login("conn", user.token)
        job = pool.get_job("conn", 0, now=5.0)
        true_blob = coinhive_service.obfuscator.revert(job.blob)
        assert true_blob == job.template.blob()
        nonce = 0
        while True:
            blob = set_blob_nonce(true_blob, job.template.header, nonce)
            if hash_meets_difficulty(cryptonight(blob, FAST_PARAMS), job.share_difficulty):
                break
            nonce += 1
        result = pool.handle_submit("conn", job.job_id, nonce, now=6.0)
        assert result.accepted
        assert pool.shares.hashes_credited.get(user.token, 0) > 0


class TestShortLinkEndToEnd:
    def test_enumerate_scan_resolve(self):
        population = build_shortlink_population(seed=9, scale=0.0005)
        resolver = LinkResolver(shortlinks=population.service, hash_scale=4096)
        scanned = resolver.scan(max_chars=4)
        assert len(scanned) == len(population.service)
        # resolve a handful and confirm the targets are the ground truth
        for record in scanned[:5]:
            resolved = resolver.resolve(record.link_id)
            truth = population.service.get(record.link_id)
            assert resolved.target_url == truth.target_url

    def test_study_pipeline_runs(self):
        population = build_shortlink_population(seed=9, scale=0.0005)
        study = ShortLinkStudy(population=population, sample_per_top_user=10)
        assert study.links_per_token().total_links == len(population.service)
        result = study.destinations()
        assert result.top_user_sample_size > 0


class TestCrawlConsistency:
    """zgrab and Chrome views of the same population must relate correctly."""

    def test_zgrab_subset_of_chrome_nocoin(self, alexa_population):
        zgrab = SequentialZgrabCampaign(population=alexa_population).scan(0)
        chrome = SequentialChromeCampaign(population=alexa_population).run()
        # Chrome (http + executed JS) always sees at least the TLS/static hits
        assert chrome.cross_tab.nocoin_hits >= zgrab.nocoin_domains

    def test_wasm_signatures_beat_nocoin(self, alexa_population):
        chrome = SequentialChromeCampaign(population=alexa_population).run()
        tab = chrome.cross_tab
        assert tab.wasm_miner_hits > tab.miners_blocked_by_nocoin
        assert tab.miners_missed_by_nocoin + tab.miners_blocked_by_nocoin == tab.wasm_miner_hits


class TestNetworkEndToEnd:
    def test_two_day_run_attributes_blocks(self):
        config = NetworkSimConfig(
            start=utc_timestamp(2018, 6, 10), end=utc_timestamp(2018, 6, 12), seed=21
        )
        observation = simulate_network(config)
        assert observation.chain.height > 1200
        assert observation.attributed
        assert observation.attribution_recall() > 0.9
        # June share factor 1.14: ~9.7 blocks/day expected
        per_day = observation.blocks_per_day()
        assert sum(per_day.values()) == len(observation.attributed)
