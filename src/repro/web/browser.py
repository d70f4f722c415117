"""The instrumented headless browser.

Reproduces the paper's Chrome-based crawler (Section 3.2):

- loads ``http://www.<domain>`` and follows redirects (thereby also
  covering non-HTTPS sites, unlike the TLS-only zgrab pass),
- executes page scripts (behaviour objects),
- decides page completion with the paper's heuristic — wait for the load
  event, then a 2-second timer armed on every DOM change, but no more than
  5 extra seconds; without a load event, give up after 15 seconds,
- captures, DevTools-style, every WebSocket frame and every fetched
  WebAssembly module,
- saves the first 65 kB of the *final* (post-execution) HTML for NoCoin
  re-matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.faults.plan import FaultKind
from repro.obs.profile import NULL_OBS, Obs
from repro.sim.events import EventLoop
from repro.sim.rng import RngStream
from repro.web.html import HtmlDocument, HtmlElement, parse_html
from repro.web.http import FetchError, SyntheticWeb, split_url
from repro.web.websocket import CapturedFrame, WebSocketChannel


@dataclass(frozen=True)
class BrowserConfig:
    """The paper's page-load parameters (Section 3.2)."""

    dom_quiet_timer: float = 2.0
    max_wait_after_load: float = 5.0
    page_timeout: float = 15.0
    final_html_bytes: int = 65 * 1024
    fetch_timeout: float = 10.0


@dataclass
class PageResult:
    """Everything the instrumentation captured for one page visit."""

    url: str
    final_url: str = ""
    status: str = "ok"  # ok | timeout | error
    error: Optional[str] = None
    final_html: str = ""
    websocket_frames: list = field(default_factory=list)
    wasm_dumps: list = field(default_factory=list)
    load_event_at: Optional[float] = None
    finished_at: float = 0.0
    dom_mutations: int = 0
    #: taxonomy entry when ``status == "error"``
    error_class: Optional[str] = None
    #: injected fault kinds this visit hit (main document, subresources,
    #: WebSocket drops) — the crawl layer settles these into its ledger
    fault_events: list = field(default_factory=list)
    ws_dropped: int = 0

    def websocket_urls(self) -> set:
        return {frame.url for frame in self.websocket_frames}

    def has_wasm(self) -> bool:
        return bool(self.wasm_dumps)


class PageContext:
    """The capability surface handed to script behaviours.

    Mirrors what page JavaScript can do: fetch subresources, open
    WebSockets, and mutate the DOM — with every action passing through the
    browser's capture hooks.
    """

    def __init__(
        self,
        browser: "HeadlessBrowser",
        document: HtmlDocument,
        result: PageResult,
        rng: RngStream,
        session_key: str = "",
    ) -> None:
        self._browser = browser
        self.loop: EventLoop = browser.loop
        self.document = document
        self.result = result
        self.rng = rng
        #: keys per-visit fault decisions (WS drops) — stable across shards
        self.session_key = session_key
        self._open_channels: list[WebSocketChannel] = []

    def fetch(self, url: str, callback: Callable, expect_wasm: bool = False) -> None:
        """Fetch ``url`` asynchronously; ``callback(ctx, body_or_None)``.

        WebAssembly responses (by content type or magic bytes) are dumped
        into the capture, as the paper's instrumented Chrome does.
        """
        plan = self._browser.web.fault_plan
        if plan is not None:
            try:
                scheme, host, _path = split_url(url)
            except ValueError:
                scheme = host = None
            if host is not None:
                fault = plan.fetch_fault(scheme, host, url, 0)
                if fault is not None:
                    # failed subresource: the page sees None, like a 404
                    self.result.fault_events.append(fault.kind.value)
                    self.loop.call_later(0.01, callback, self, None)
                    return
        try:
            resource = self._browser.web.lookup(url)
        except (FetchError, ValueError):
            self.loop.call_later(0.01, callback, self, None)
            return
        if resource.hang:
            return  # request never completes; page heuristics handle it

        def _complete() -> None:
            body = resource.body()
            is_wasm = expect_wasm or resource.content_type == "application/wasm" or body[:4] == b"\x00asm"
            if is_wasm and body[:4] == b"\x00asm":
                self.result.wasm_dumps.append(body)
            callback(self, body)

        self.loop.call_later(resource.latency, _complete)

    def open_websocket(self, url: str) -> Optional[WebSocketChannel]:
        """Open a captured WebSocket; returns None when the endpoint is dead."""
        try:
            handler = self._browser.web.lookup_ws(url)
        except (FetchError, ValueError):
            return None
        channel = WebSocketChannel(
            url=url,
            loop=self.loop,
            server_handler=handler,
            capture=self._browser._capture_frame,
        )
        plan = self._browser.web.fault_plan
        if plan is not None:
            drop_after = plan.ws_drop_after(url, self.session_key)
            if drop_after is not None:
                channel.drop_after = drop_after
                channel.on_drop = self._record_ws_drop
        self._open_channels.append(channel)
        return channel

    def _record_ws_drop(self, channel: WebSocketChannel) -> None:
        self.result.ws_dropped += 1
        self.result.fault_events.append(FaultKind.WS_DROP.value)

    def append_body_element(self, element: HtmlElement) -> None:
        """Append an element to <body> (or the root) and record the mutation."""
        bodies = self.document.find_all("body")
        target = bodies[0] if bodies else self.document.root
        target.append(element)
        self.mark_dom_mutation()

    def mark_dom_mutation(self) -> None:
        self.result.dom_mutations += 1
        self._browser._on_dom_mutation()

    def close_all(self) -> None:
        for channel in self._open_channels:
            channel.close()


class HeadlessBrowser:
    """Drives page visits on the event loop.

    One browser instance is reusable across visits (like one Chrome
    process); each :meth:`visit` creates a fresh context and capture.
    """

    def __init__(
        self,
        web: SyntheticWeb,
        loop: Optional[EventLoop] = None,
        config: BrowserConfig = BrowserConfig(),
        rng: Optional[RngStream] = None,
        behavior_registry: Optional[dict] = None,
        obs: Obs = NULL_OBS,
    ) -> None:
        self.web = web
        self.loop = loop if loop is not None else EventLoop()
        self.config = config
        self.obs = obs
        self.rng = rng if rng is not None else RngStream(0, "browser")
        #: script-src URL → ScriptBehavior; how the browser "executes" JS.
        self.behavior_registry = behavior_registry if behavior_registry is not None else {}
        self._current: Optional[PageResult] = None
        self._last_mutation: float = 0.0
        self._visit_counts: dict[str, int] = {}

    # -- capture hooks ------------------------------------------------------------

    def _capture_frame(self, frame: CapturedFrame) -> None:
        if self._current is not None:
            self._current.websocket_frames.append(frame)

    def _on_dom_mutation(self) -> None:
        self._last_mutation = self.loop.now

    # -- main entry ---------------------------------------------------------------

    def visit(self, url: str) -> PageResult:
        """Visit ``url`` and return the captured :class:`PageResult`."""
        result = PageResult(url=url)
        self._current = result
        start = self.loop.now
        try:
            with self.obs.span("fetch", url=url) as fetch_span:
                try:
                    response = self.web.fetch(
                        url, timeout=self.config.page_timeout, follow_redirects=True
                    )
                except FetchError as exc:
                    fetch_span.set_tag("error_class", exc.error_class.value)
                    raise
        except FetchError as exc:
            # the only expected failure: SyntheticWeb wraps malformed URLs
            # into FetchError(INVALID_URL); anything else is a bug upstream
            result.status = "error"
            result.error = str(exc)
            result.error_class = exc.error_class.value
            if exc.injected and exc.fault_kind is not None:
                result.fault_events.append(exc.fault_kind.value)
            result.finished_at = self.loop.now
            self._current = None
            return result

        result.final_url = response.url
        if response.fault_truncated:
            result.fault_events.append(FaultKind.TRUNCATE.value)
        with self.obs.span("parse"):
            document = parse_html(response.body.decode("utf-8", errors="replace"))
        # per-visit stream keyed by (url, nth visit of that url): distinct
        # across repeat visits, yet independent of the order in which other
        # URLs are visited — sharded crawls replay identical page behaviour
        visit_count = self._visit_counts.get(url, 0) + 1
        self._visit_counts[url] = visit_count
        context = PageContext(
            self,
            document,
            result,
            self.rng.substream("page", url, str(visit_count)),
            session_key=f"{url}#{visit_count}",
        )
        self._last_mutation = start

        # "Execute" scripts: static script tags run in document order after
        # their (src) resources arrive; latency drawn per script.
        load_delay = response.elapsed
        for src, inline in document.scripts():
            if src:
                behavior = self.behavior_registry.get(src)
            elif inline:
                from repro.web.scripts import inline_key

                behavior = self.behavior_registry.get(inline_key(inline))
            else:
                behavior = None
            script_latency = 0.0
            if src is not None:
                try:
                    script_latency = self.web.lookup(src).latency
                except (FetchError, ValueError):
                    script_latency = 0.05  # failed script: DNS/404 delay only
            load_delay = max(load_delay, response.elapsed + script_latency)
            if behavior is not None:
                self.loop.call_later(response.elapsed + script_latency, behavior.run, context)

        # load event fires when the document and all static subresources are in
        load_at = start + load_delay
        if load_at - start > self.config.page_timeout:
            load_at = None  # load event will never fire in time
        else:
            self.loop.call_later(load_at - self.loop.now, self._fire_load, result)

        with self.obs.span("execute"):
            self._run_page(result, context, start, load_at)
        self._current = None
        return result

    def _fire_load(self, result: PageResult) -> None:
        result.load_event_at = self.loop.now

    def _run_page(self, result: PageResult, context: PageContext, start: float, load_at: Optional[float]) -> None:
        """Advance the loop until the page-load heuristic declares completion."""
        config = self.config
        hard_deadline = start + config.page_timeout
        while True:
            if load_at is None:
                # no load event: run to the 15 s timeout
                self.loop.run_until(hard_deadline)
                result.status = "timeout"
                break
            if self.loop.now < load_at:
                self.loop.run_until(min(load_at, hard_deadline))
                continue
            # After load: wait until DOM has been quiet for dom_quiet_timer,
            # capped at load + max_wait_after_load.
            cap = load_at + config.max_wait_after_load
            quiet_deadline = max(self._last_mutation, load_at) + config.dom_quiet_timer
            target = min(quiet_deadline, cap)
            if self.loop.now >= target:
                break
            self.loop.run_until(target)
            new_quiet = max(self._last_mutation, load_at) + config.dom_quiet_timer
            if self.loop.now >= min(new_quiet, cap):
                break
        result.finished_at = self.loop.now
        context.close_all()
        html = context.document.serialize()
        result.final_html = html[: config.final_html_bytes]
