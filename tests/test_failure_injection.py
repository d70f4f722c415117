"""Failure-injection tests: the pipelines must degrade, not break.

Real crawls hit dead DNS, TLS-less hosts, hanging servers, truncated
binaries, and mid-observation service outages. Each scenario here injects
one failure class and asserts the affected component (a) survives and
(b) accounts for the failure honestly.
"""

import pytest

from repro.core.detector import PageDetector
from repro.core.pool_association import PoolObserver
from repro.core.signatures import SignatureDatabase
from repro.sim.events import EventLoop
from repro.web.browser import BrowserConfig, HeadlessBrowser
from repro.web.http import Resource, SyntheticWeb
from repro.web.scripts import MinerBehavior, inline_key
from repro.web.websocket import WebSocketChannel, WebSocketClosed
from tests.oracles.crawl import SequentialZgrabCampaign


class TestCrawlerResilience:
    def test_zgrab_campaign_counts_failures(self, alexa_population):
        scan = SequentialZgrabCampaign(population=alexa_population).scan(0)
        # the population contains http-only sites: TLS failures expected
        assert scan.fetch_failures > 0
        assert scan.domains_probed == len(alexa_population.sites)

    def test_browser_survives_dead_subresources(self):
        web = SyntheticWeb()
        html = (
            "<html><head>"
            '<script src="https://gone.example/app.js"></script>'
            '<script src="http://www.site.com/ok.js"></script>'
            "</head><body>x</body></html>"
        )
        web.register_page("http://www.site.com/", html.encode())
        web.register("http://www.site.com/ok.js", Resource(content=b"/*ok*/"))
        result = HeadlessBrowser(web).visit("http://www.site.com/")
        assert result.status == "ok"

    def test_browser_timeout_on_hanging_page_with_no_load_event(self):
        """A page that loads but whose scripts keep the DOM churning past
        every cap still finishes by the load+5s rule."""
        web = SyntheticWeb()
        web.register_page("http://www.busy.com/", b"<html><body></body></html>")
        browser = HeadlessBrowser(web, config=BrowserConfig())
        result = browser.visit("http://www.busy.com/")
        assert result.finished_at <= 15.0 + browser.loop.now

    def test_miner_with_dead_wasm_url_mines_nothing(self):
        web = SyntheticWeb()
        inline = "m('T1');"
        behavior = MinerBehavior(
            wasm_url="https://dead.cdn/cn.wasm",
            socket_url="wss://nope.pool/x",
            token="T1",
        )
        web.register_page(
            "http://www.m.com/", f"<html><head><script>{inline}</script></head></html>".encode()
        )
        browser = HeadlessBrowser(web, behavior_registry={inline_key(inline): behavior})
        result = browser.visit("http://www.m.com/")
        assert not result.has_wasm()
        assert not result.websocket_frames

    def test_miner_with_dead_pool_endpoint(self, corpus):
        from repro.wasm.builder import ModuleBlueprint

        web = SyntheticWeb()
        wasm = corpus.build(ModuleBlueprint("coinhive", 0))
        web.register("https://cdn.x/cn.wasm", Resource(content=wasm, content_type="application/wasm"))
        inline = "m('T2');"
        behavior = MinerBehavior(
            wasm_url="https://cdn.x/cn.wasm",
            socket_url="wss://unregistered.pool/x",
            token="T2",
        )
        web.register_page(
            "http://www.m.com/", f"<html><head><script>{inline}</script></head></html>".encode()
        )
        browser = HeadlessBrowser(web, behavior_registry={inline_key(inline): behavior})
        result = browser.visit("http://www.m.com/")
        assert result.has_wasm()        # the dump still happened
        assert not result.websocket_frames  # but no pool traffic


class TestDetectorResilience:
    def test_truncated_wasm_dump_not_a_crash(self, coinhive_wasm):
        detector = PageDetector()
        from repro.web.browser import PageResult

        page = PageResult(url="x", final_html="<html></html>")
        page.wasm_dumps = [coinhive_wasm[: len(coinhive_wasm) // 2]]
        report = detector.detect_page("x.com", page)
        assert not report.is_miner  # unparseable → not classified as miner

    def test_adversarial_wasm_magic_only(self):
        detector = PageDetector()
        from repro.web.browser import PageResult

        page = PageResult(url="x", final_html="")
        page.wasm_dumps = [b"\x00asm\x01\x00\x00\x00" + b"\xff" * 64]
        report = detector.detect_page("x.com", page)
        assert report.miner is None or not report.miner.is_miner

    def test_error_page_reported_as_error(self):
        detector = PageDetector()
        from repro.web.browser import PageResult

        page = PageResult(url="x", status="error", error="name not resolved")
        report = detector.detect_page("x.com", page)
        assert report.status == "error"
        assert not report.is_miner


class TestObserverResilience:
    def test_observer_survives_total_outage(self, coinhive_service):
        coinhive_service.add_outage(0.0, 10_000.0)
        observer = PoolObserver(
            fetch_input=coinhive_service.pow_input_for_endpoint,
            endpoints=coinhive_service.endpoints(),
            detransform=coinhive_service.obfuscator.revert,
        )
        loop = EventLoop()
        observer.run(loop, duration=30.0)
        assert observer.failures == observer.polls
        assert observer.max_inputs_per_block() == 0

    def test_observer_resumes_after_outage(self, coinhive_service):
        coinhive_service.add_outage(0.0, 10.0)
        observer = PoolObserver(
            fetch_input=coinhive_service.pow_input_for_endpoint,
            endpoints=coinhive_service.endpoints()[:4],
            poll_interval=5.0,
            detransform=coinhive_service.obfuscator.revert,
        )
        loop = EventLoop()
        observer.run(loop, duration=30.0)
        assert observer.failures > 0
        assert observer.observations  # post-outage polls succeeded

    def test_observer_tolerates_garbage_blobs(self):
        observer = PoolObserver(
            fetch_input=lambda endpoint, now: b"\x00\x01garbage",
            endpoints=["e1", "e2"],
        )
        observer.poll_once(0.0)
        assert observer.failures == 2
        assert not observer.observations


class TestWebSocketFailureModes:
    def test_send_on_closed_channel_raises(self):
        loop = EventLoop()
        channel = WebSocketChannel(url="wss://x/y", loop=loop, server_handler=lambda c, p: None)
        channel.close()
        with pytest.raises(WebSocketClosed):
            channel.send("hello")

    def test_server_send_after_close_is_dropped(self):
        loop = EventLoop()
        received = []
        channel = WebSocketChannel(url="wss://x/y", loop=loop, server_handler=lambda c, p: None)
        channel.on_message = received.append
        channel.server_send("late")
        channel.close()
        loop.run_all()
        assert received == []

    def test_in_flight_frames_cancelled_on_close(self):
        loop = EventLoop()
        delivered = []
        channel = WebSocketChannel(
            url="wss://x/y", loop=loop, server_handler=lambda c, p: delivered.append(p)
        )
        channel.send("frame")
        channel.close()
        loop.run_all()
        assert delivered == []
