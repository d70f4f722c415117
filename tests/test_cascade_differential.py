"""Differential battery: the one-walk cascade against the written-twice oracles.

:class:`~repro.core.detector.PageDetector` decides each layer once and
renders its evidence from those decision records. The detectors it
replaced — a bare and an explained code path per layer — live on in
:mod:`tests.oracles` as :class:`~tests.oracles.ReferencePageDetector`.
For every input here both must agree on every verdict field and on every
``Evidence.to_dict()``, with evidence collection on and off:

1. Hypothesis-generated pages — generated HTML, corpus modules plus their
   stripped, dead-code-padded and truncated variants, known and unknown
   WebSocket backends — through ``detect_static``, ``detect_page`` and
   ``detect_request`` at every degradation tier, with and without a
   dynamic detector, against a signature database and without one.
2. Same-seed Chrome campaigns and verdict-server runs with the production
   detector and with the oracle detector swapped in must serialize
   byte-identical ``verdicts.jsonl`` payloads.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import fastpath
from repro.core.classifier import MinerClassifier
from repro.core.detector import DEGRADATION_TIERS, PageDetector
from repro.core.dynamic import DynamicMinerDetector
from repro.core.nocoin import default_nocoin_list
from repro.core.signatures import SignatureDatabase, build_reference_database
from repro.internet.population import build_population
from repro.obs.clock import TickClock, use_clock
from repro.obs.evidence import verdicts_to_jsonl
from repro.obs.profile import make_obs
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder
from repro.wasm.obfuscate import pad_dead_code, strip_names
from repro.web.browser import PageResult
from repro.web.websocket import CapturedFrame
from tests.oracles import ReferencePageDetector
from tests.oracles.crawl import SequentialChromeCampaign

# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_FAMILIES = (
    "coinhive", "authedmine", "cryptoloot", "jsminer", "wp-monero",
    "skencituer", "unknown-wss", "compression", "game-engine", "math-lib",
)


def _module_pool() -> dict:
    """Modules by variant kind. Stripped modules leave the name-hint branch
    for the instruction mix; padding fools the static mix but not the
    executed one, so padded stripped miners reach the dynamic layer."""
    builder = WasmCorpusBuilder()
    pool: dict = {"corpus": [], "stripped": [], "padded": [], "padded-stripped": []}
    broken = [b"not wasm", b""]
    for family in _FAMILIES:
        module = builder.build(ModuleBlueprint(family, 0))
        stripped = strip_names(module)
        pool["corpus"] += [module, builder.build(ModuleBlueprint(family, 1))]
        pool["stripped"].append(stripped)
        pool["padded"].append(pad_dead_code(module))
        pool["padded-stripped"].append(pad_dead_code(stripped))
        broken.append(module[: len(module) // 2])
    pool["broken"] = broken
    return {kind: tuple(modules) for kind, modules in pool.items()}


_POOL = _module_pool()
_MODULES = tuple(module for modules in _POOL.values() for module in modules)
_NOCOIN = default_nocoin_list()
_KNOWN = MinerClassifier(database=build_reference_database())
_UNKNOWN = MinerClassifier(database=SignatureDatabase())
_DYNAMIC = DynamicMinerDetector()

_SCRIPT_URLS = (
    "https://coinhive.com/lib/coinhive.min.js",
    "https://cdn.example/authedmine.min.js",
    "https://www.cpmstar.com/ads.js",
    "https://cdn.example/app.js",
    "https://static.example/cryptonight.wasm",
)
_INLINE = (
    "var miner = new CoinHive.Anonymous('key');",
    "load('crypto-loot.min.js')",
    "x" * 150 + "coinhive.min.js" + "y" * 150,  # a hit in a truncated subject
    "console.log('clean')",
)
_script_tags = st.one_of(
    st.sampled_from(_SCRIPT_URLS).map(lambda url: f'<script src="{url}"></script>'),
    st.one_of(
        st.sampled_from(_INLINE), st.text(alphabet="abco .-/jsminer", max_size=30)
    ).map(lambda text: f"<script>{text}</script>"),
    st.sampled_from(["<p>text</p>", "<div class='a'>", "</div>", "<br/>"]),
)
_html = st.lists(_script_tags, max_size=5).map(
    lambda parts: "<html><body>" + "".join(parts) + "</body></html>"
)
# each dump picks its variant kind first, so every kind is as likely
_dumps = st.lists(
    st.one_of(*(st.sampled_from(modules) for modules in _POOL.values())), max_size=3
)
_websocket_urls = st.lists(
    st.sampled_from([
        "wss://ws1.coinhive.com/proxy",
        "wss://crypto-loot.com/socket",
        "wss://web.stati.bid/pool",
        "wss://pool.unknown.example/ws",
    ]),
    max_size=2,
    unique=True,
)
_payloads = st.sampled_from([
    json.dumps({"type": "job"}), json.dumps({"type": "submit"}), "not json",
])


def _frames(urls, payloads) -> list:
    return [
        CapturedFrame(url, "received" if i % 2 else "sent", payload, float(i))
        for i, (url, payload) in enumerate(zip(urls, payloads))
    ]


def _detectors(known: bool, collect: bool) -> tuple:
    classifier = _KNOWN if known else _UNKNOWN
    return (
        PageDetector(nocoin=_NOCOIN, classifier=classifier, collect_evidence=collect),
        ReferencePageDetector(_NOCOIN, classifier, collect_evidence=collect),
    )


def _assert_same(walk, oracle) -> None:
    """Every verdict field, the deciding classification and every rendered
    evidence record."""
    assert walk == oracle
    assert walk.nocoin_rule_labels == oracle.nocoin_rule_labels
    assert walk.miner == oracle.miner
    assert [item.to_dict() for item in walk.evidence] == [
        item.to_dict() for item in oracle.evidence
    ]


# ---------------------------------------------------------------------------
# generated pages
# ---------------------------------------------------------------------------


class TestWalkAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(html=_html, collect=st.booleans())
    def test_detect_static(self, html, collect):
        walk, oracle = _detectors(known=True, collect=collect)
        _assert_same(walk.detect_static("a.example", html), oracle.detect_static("a.example", html))

    @settings(max_examples=80, deadline=None)
    @given(
        html=_html,
        dumps=_dumps,
        websocket_urls=_websocket_urls,
        payloads=st.lists(_payloads, max_size=2),
        status=st.sampled_from(["ok", "timeout", "error"]),
        known=st.booleans(),
        collect=st.booleans(),
    )
    def test_detect_page(self, html, dumps, websocket_urls, payloads, status, known, collect):
        page = PageResult(
            url="https://a.example/",
            status=status,
            final_html=html,
            wasm_dumps=list(dumps),
            websocket_frames=_frames(websocket_urls, payloads),
        )
        walk, oracle = _detectors(known, collect)
        _assert_same(walk.detect_page("a.example", page), oracle.detect_page("a.example", page))

    @settings(max_examples=120, deadline=None)
    @given(
        html=_html,
        dumps=_dumps,
        websocket_urls=_websocket_urls,
        tier=st.sampled_from(DEGRADATION_TIERS),
        with_dynamic=st.booleans(),
        known=st.booleans(),
        collect=st.booleans(),
    )
    def test_detect_request(self, html, dumps, websocket_urls, tier, with_dynamic, known, collect):
        dynamic = _DYNAMIC if with_dynamic else None
        walk, oracle = _detectors(known, collect)
        _assert_same(
            walk.detect_request(
                "a.example", html, dumps, websocket_urls, tier=tier, dynamic=dynamic
            ),
            oracle.detect_request(
                "a.example", html, dumps, websocket_urls, tier=tier, dynamic=dynamic
            ),
        )

    @pytest.mark.parametrize("tier", DEGRADATION_TIERS)
    @pytest.mark.parametrize("with_dynamic", [False, True])
    @pytest.mark.parametrize("collect", [False, True])
    def test_tier_grid(self, tier, with_dynamic, collect):
        # pages whose order matters: a dynamic positive before and after
        # other dumps, a signature hit behind a broken module, all-benign
        corpus = dict(zip(_FAMILIES, _POOL["corpus"][::2]))
        stripped = dict(zip(_FAMILIES, _POOL["stripped"]))
        dynamic_only = dict(zip(_FAMILIES, _POOL["padded-stripped"]))["coinhive"]
        benign = corpus["compression"]
        pages = (
            [dynamic_only, benign, dynamic_only],
            [benign, dynamic_only],
            [_POOL["broken"][0], corpus["coinhive"]],
            [benign, stripped["cryptoloot"], stripped["jsminer"]],
        )
        dynamic = _DYNAMIC if with_dynamic else None
        for known in (False, True):
            walk, oracle = _detectors(known, collect)
            for dumps in pages:
                for urls in ((), ("wss://ws1.coinhive.com/proxy",)):
                    _assert_same(
                        walk.detect_request("a.example", "", dumps, urls, tier=tier, dynamic=dynamic),
                        oracle.detect_request("a.example", "", dumps, urls, tier=tier, dynamic=dynamic),
                    )

    def test_every_layer_is_exercised(self):
        # the generated inputs above must reach every cascade branch, or
        # the battery proves less than it claims
        methods = set()
        for module in _MODULES:
            for urls in ((), ("wss://ws1.coinhive.com/proxy",), ("wss://x.example/",)):
                methods.add(_KNOWN.classify_wasm(module, urls).method)
                methods.add(_UNKNOWN.classify_wasm(module, urls).method)
        assert methods == {"signature", "name-hint", "instruction-mix", "backend", "none"}
        outcomes = set()
        for module in _MODULES:
            is_miner, decision = _DYNAMIC.explain(module)
            outcomes.add("error" if decision.error else is_miner)
        assert outcomes == {True, False, "error"}


# ---------------------------------------------------------------------------
# whole runs: byte-identical verdicts, walk vs oracle detector
# ---------------------------------------------------------------------------


def _chrome_verdicts(detector_factory) -> str:
    with use_clock(TickClock()):
        fastpath.reset_shared_cache()
        population = build_population("alexa", seed=11, scale=0.05)
        campaign = SequentialChromeCampaign(
            population=population,
            detector=detector_factory(
                nocoin=default_nocoin_list(),
                classifier=MinerClassifier(database=build_reference_database()),
            ),
            obs=make_obs(prefix="crawl"),
        )
        return verdicts_to_jsonl(campaign.run().verdicts)


def _service_verdicts() -> str:
    with use_clock(TickClock()):
        report = run_loadgen(
            LoadgenConfig(seed=11, scale=0.05, rate=20.0, duration=20.0)
        )
        return verdicts_to_jsonl(report.server.verdicts)


class TestRunsAgainstOracle:
    def test_chrome_campaign_verdicts_identical(self):
        walk = _chrome_verdicts(PageDetector)
        oracle = _chrome_verdicts(ReferencePageDetector)
        assert walk.encode() == oracle.encode()
        assert '"detector":"signature"' in walk  # non-degenerate run

    def test_service_verdicts_identical(self):
        walk = _service_verdicts()
        with mock.patch("repro.service.server.PageDetector", ReferencePageDetector):
            oracle = _service_verdicts()
        assert walk.encode() == oracle.encode()
        assert '"detector":"dynamic"' in walk  # the dynamic layer ran
        assert '"verdict":"no-classifier"' in walk  # and so did a degraded tier
