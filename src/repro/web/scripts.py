"""Declarative script behaviours.

A real crawl executes JavaScript; our headless browser executes *behaviour
objects* attached to script tags instead. Each behaviour receives the
browser's :class:`~repro.web.browser.PageContext` and drives exactly the
observable side effects the paper's instrumentation records: DOM mutations,
subresource fetches (including ``.wasm`` binaries), and WebSocket traffic.

Behaviours used by the synthetic populations:

- :class:`MinerBehavior` — the Coinhive-style web miner: fetch the Wasm,
  open a pool WebSocket, authenticate with the site token, receive jobs,
  (de)obfuscate the PoW blob, and submit shares at a configured hash rate.
- :class:`BenignWasmBehavior` — games/codecs that load Wasm but don't mine
  (the ~4% of Wasm the paper found to be non-mining).
- :class:`DomMutatorBehavior` — widgets/ads that keep mutating the DOM
  (exercises the 2 s quiet-timer page-load heuristic).
- :class:`InjectScriptBehavior` — injects another script tag at runtime;
  miners loaded this way are invisible to static HTML matching, one source
  of the NoCoin false negatives in Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.pool.protocol import (
    JobMessage,
    LoginMessage,
    SubmitMessage,
    decode_message,
    encode_message,
)
from repro.web.html import HtmlElement, escape


class ScriptBehavior:
    """Base class: ``run(ctx)`` is called when the script executes."""

    def run(self, ctx) -> None:  # pragma: no cover - interface
        raise NotImplementedError


def inline_key(inline_text: str) -> str:
    """Behavior-registry key for an inline script.

    The browser resolves behaviours by script ``src``; inline scripts have
    none, so they are keyed by their (hashed) text. Inline scripts carrying
    behaviours must therefore be unique per deployment — the population
    generators embed the site token to guarantee that.
    """
    import hashlib

    digest = hashlib.sha1(inline_text.encode("utf-8")).hexdigest()
    return f"inline::{digest}"


@dataclass(frozen=True)
class ScriptTag:
    """A script on a website.

    ``src``/``inline`` determine the static HTML; ``behavior`` what happens
    when the browser executes it; ``dynamic`` scripts do not appear in the
    static HTML at all — another script injects them at runtime.
    """

    src: Optional[str] = None
    inline: str = ""
    behavior: Optional[ScriptBehavior] = None
    dynamic: bool = False

    def html(self) -> str:
        """``to_element().serialize()`` without building the element."""
        src = "" if self.src is None else f' src="{escape(self.src)}"'
        return f"<script{src}>{self.inline}</script>"

    def to_element(self) -> HtmlElement:
        attrs: dict = {}
        if self.src is not None:
            attrs["src"] = self.src
        element = HtmlElement("script", attrs)
        if self.inline:
            element.append(self.inline)
        return element


@dataclass
class MinerBehavior(ScriptBehavior):
    """The web miner's lifecycle, as observed from the browser.

    Parameters
    ----------
    wasm_url:
        Where the miner fetches its CryptoNight Wasm from.
    socket_url:
        The pool endpoint (``wss://…``).
    token:
        The site owner's Coinhive-style token sent in the auth frame.
    hash_rate:
        Client hashes/second (paper: 20–100 H/s); with ``throttle`` the
        effective rate drops, as Coinhive's ``setThrottle`` did.
    deobfuscate:
        Callable reverting the pool's blob transform, mirroring the XOR
        countermeasure the paper found "deep within the WebAssembly".
    """

    wasm_url: str
    socket_url: str
    token: str
    hash_rate: float = 40.0
    throttle: float = 0.0
    share_difficulty_hint: int = 16
    deobfuscate: Optional[Callable[[bytes], bytes]] = None
    max_shares: int = 4

    def run(self, ctx) -> None:
        ctx.fetch(self.wasm_url, self._on_wasm, expect_wasm=True)

    def _on_wasm(self, ctx, body: Optional[bytes]) -> None:
        if body is None:
            return  # wasm failed to load: miner silently dies, page unaffected
        channel = ctx.open_websocket(self.socket_url)
        if channel is None:
            return
        state = _MinerSession(self, ctx, channel)
        channel.on_message = state.on_frame
        channel.send(encode_message(LoginMessage(token=self.token)))


@dataclass
class _MinerSession:
    """Per-connection miner state machine."""

    behavior: MinerBehavior
    ctx: object
    channel: object
    shares_submitted: int = 0
    current_job: Optional[JobMessage] = None

    def on_frame(self, payload: str) -> None:
        try:
            message = decode_message(payload)
        except Exception:
            return
        if isinstance(message, JobMessage):
            self.current_job = message
            self._schedule_share()

    def effective_rate(self) -> float:
        rate = self.behavior.hash_rate * (1.0 - self.behavior.throttle)
        return max(rate, 0.1)

    def _schedule_share(self) -> None:
        """Model the nonce search as an exponential wait at the hash rate.

        Expected hashes per share = share difficulty, so the expected time
        to the next share is ``difficulty / rate``; we draw the actual wait
        from the corresponding exponential distribution.
        """
        if self.shares_submitted >= self.behavior.max_shares or self.channel.closed:
            return
        mean_wait = self.behavior.share_difficulty_hint / self.effective_rate()
        wait = self.ctx.rng.expovariate(1.0 / mean_wait) if mean_wait > 0 else 0.01
        self.ctx.loop.call_later(min(wait, 30.0), self._submit_share)

    def _submit_share(self) -> None:
        if self.channel.closed or self.current_job is None:
            return
        blob = bytes.fromhex(self.current_job.blob_hex)
        if self.behavior.deobfuscate is not None:
            blob = self.behavior.deobfuscate(blob)
        nonce = self.ctx.rng.getrandbits(32)
        # The simulated client reports the share; hash correctness is the
        # pool's job to verify (and the capture only needs the frame).
        result_hex = self.ctx.rng.randbytes(32).hex()
        try:
            self.channel.send(
                encode_message(
                    SubmitMessage(job_id=self.current_job.job_id, nonce=nonce, result_hex=result_hex)
                )
            )
        except Exception:
            return
        self.shares_submitted += 1
        self._schedule_share()


@dataclass
class BenignWasmBehavior(ScriptBehavior):
    """Loads and instantiates Wasm with no mining traffic."""

    wasm_url: str
    dom_updates: int = 2

    def run(self, ctx) -> None:
        ctx.fetch(self.wasm_url, self._on_wasm, expect_wasm=True)

    def _on_wasm(self, ctx, body: Optional[bytes]) -> None:
        if body is None:
            return
        for i in range(self.dom_updates):
            ctx.loop.call_later(
                0.1 + 0.2 * i, ctx.append_body_element, HtmlElement("canvas", {"data-frame": str(i)})
            )


@dataclass
class DomMutatorBehavior(ScriptBehavior):
    """Appends elements to the body on a schedule (ads, tickers, widgets)."""

    mutations: tuple = ((0.2, "div"), (0.6, "div"))

    def run(self, ctx) -> None:
        for delay, tag in self.mutations:
            ctx.loop.call_later(delay, ctx.append_body_element, HtmlElement(tag, {"class": "widget"}))


@dataclass
class InjectScriptBehavior(ScriptBehavior):
    """Injects another script tag into the DOM at runtime and executes it.

    This is how ad networks and obfuscated miners load their payloads: the
    static HTML carries only an innocuous loader.
    """

    script: ScriptTag = field(default_factory=ScriptTag)
    delay: float = 0.3

    def run(self, ctx) -> None:
        ctx.loop.call_later(self.delay, self._inject, ctx)

    def _inject(self, ctx) -> None:
        ctx.append_body_element(self.script.to_element())
        if self.script.behavior is not None:
            self.script.behavior.run(ctx)


@dataclass
class ConsentMinerBehavior(ScriptBehavior):
    """Authedmine's opt-in flow: ask first, mine only on consent.

    The behaviour renders a consent dialog into the DOM (observable in the
    final HTML), then draws the visitor's decision from the page RNG with
    ``accept_rate``. Declines leave exactly the signature the paper's
    Table 2 false positives show: an authedmine script tag (NoCoin hit)
    with no Wasm and no pool traffic.
    """

    miner: MinerBehavior = None  # type: ignore[assignment]
    accept_rate: float = 0.25
    decision_delay: float = 0.8

    def run(self, ctx) -> None:
        dialog = HtmlElement(
            "div",
            {"class": "authedmine-consent", "data-state": "asking"},
            ["Allow this site to use your CPU for mining?"],
        )
        ctx.append_body_element(dialog)
        ctx.loop.call_later(self.decision_delay, self._decide, ctx, dialog)

    def _decide(self, ctx, dialog: HtmlElement) -> None:
        accepted = ctx.rng.random() < self.accept_rate
        dialog.attrs["data-state"] = "accepted" if accepted else "declined"
        ctx.mark_dom_mutation()
        if accepted and self.miner is not None:
            self.miner.run(ctx)


@dataclass
class NoOpBehavior(ScriptBehavior):
    """Scripts with no observable side effects (the common case)."""

    def run(self, ctx) -> None:
        return None
