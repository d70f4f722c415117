"""Differential battery: production vs reference oracles must be byte-identical.

The production hot paths in :mod:`repro.core.fastpath` (combined
filter-list automaton, wasm memo cache) and the single-pass script scanner
exist only under the contract that they change *nothing observable*
relative to the straightforward implementations kept in
:mod:`tests.oracles`. This suite enforces the contract three ways:

1. Hypothesis-generated filter rules (plain, ``||`` anchored, ``/regex/``,
   ``@@`` exceptions, ``$options``) crossed with generated URLs and inline
   text: the automaton and the rule-by-rule reference loops must return
   identical :class:`~repro.core.nocoin.FilterMatch` tuples — same rule
   identity, same ``where``, same matched span.
2. Generated/adversarial HTML: :func:`~repro.web.html.scan_scripts` must
   equal :func:`~repro.web.html.extract_scripts` exactly, both on the
   production tag scans and on the character loops of
   :mod:`tests.oracles.web` (:func:`tests.oracles.web.extract_scripts`).
3. Same-seed campaigns run in production and under
   :func:`~tests.oracles.reference_paths` must produce byte-identical
   ``verdicts.jsonl`` payloads and identical metric registries (counters
   *and* tick-clock histograms).
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.parallel import ParallelConfig, ShardedZgrabCampaign
from repro.core import fastpath
from repro.core.detector import PageDetector
from repro.core.fastpath import AhoCorasick, CompiledFilterSet
from repro.core.nocoin import FilterList, default_nocoin_list, parse_rule
from repro.internet.population import build_population
from repro.internet.streaming import StreamingPopulation
from repro.obs.clock import TickClock, use_clock
from repro.obs.evidence import verdicts_to_jsonl
from repro.obs.profile import make_obs
from repro.web.html import extract_scripts, scan_scripts
from tests.oracles import reference_paths
from tests.oracles import web as web_oracle
from tests.oracles.crawl import SequentialChromeCampaign, SequentialZgrabCampaign

# ---------------------------------------------------------------------------
# rule / subject strategies — deliberately tiny alphabets so patterns and
# subjects collide often (a differential test that never matches anything
# proves nothing)
# ---------------------------------------------------------------------------

_BODY_ALPHABET = "abco.-*^/"
_REGEX_FRAGMENTS = (
    "a", "b", "co", r"\.", "x", "[abo]", ".", r"\w", "o+", "b*", "(?:ab)",
    "a|o", "$", "^", "(a)", "(?i)a", "a{1,2}",
)


def _parses(line: str):
    try:
        return parse_rule(line)
    except Exception:
        return None


_plain_lines = st.builds(
    lambda anchor, body, exception, opts: (
        ("@@" if exception else "") + ("||" if anchor else "") + body + opts
    ),
    st.booleans(),
    st.text(alphabet=_BODY_ALPHABET, min_size=1, max_size=10),
    st.booleans(),
    st.sampled_from(["", "$script", "$script,third-party", "$domain=a.co"]),
)

_regex_lines = st.builds(
    lambda parts, exception: ("@@" if exception else "") + "/" + "".join(parts) + "/",
    st.lists(st.sampled_from(_REGEX_FRAGMENTS), min_size=1, max_size=4),
    st.booleans(),
).filter(
    lambda line: _compiles(line.lstrip("@").strip("/"))
)


def _compiles(source: str) -> bool:
    try:
        re.compile(source, re.IGNORECASE)
    except re.error:
        return False
    return True


_rule_lines = st.one_of(_plain_lines, _regex_lines).filter(
    lambda line: _parses(line) is not None
)

_filter_lists = st.lists(_rule_lines, min_size=1, max_size=15).map(
    lambda lines: FilterList.from_lines(lines, source="gen")
)

_urls = st.builds(
    lambda scheme, host, path: f"{scheme}://{host}/{path}",
    st.sampled_from(["http", "https", "wss"]),
    st.text(alphabet="abco.-", min_size=1, max_size=12),
    st.text(alphabet="abco./-", max_size=12),
)

# mixed-case plus the unicode case-folding troublemakers (Kelvin sign,
# long s, dotted İ, final sigma) that distinguish str.lower() containment
# from re.IGNORECASE matching — the fast path must replicate the
# reference's exact semantics for both
_texts = st.text(alphabet="aAbBcCoO .-/*^<>ſKİςΣ", max_size=40)


def _assert_url_equivalent(filter_list: FilterList, url: str) -> None:
    with reference_paths():
        reference = (filter_list.match_url(url), filter_list.explain_url(url))
    fast = (filter_list.match_url(url), filter_list.explain_url(url))
    assert fast == reference, (url, fast, reference)


def _assert_text_equivalent(filter_list: FilterList, text: str) -> None:
    with reference_paths():
        reference = filter_list.explain_text(text)
    fast = filter_list.explain_text(text)
    assert fast == reference, (text, fast, reference)


class TestFilterDifferential:
    @settings(max_examples=120, deadline=None)
    @given(filter_list=_filter_lists, url=_urls)
    def test_generated_rules_vs_urls(self, filter_list, url):
        _assert_url_equivalent(filter_list, url)

    @settings(max_examples=120, deadline=None)
    @given(filter_list=_filter_lists, text=_texts)
    def test_generated_rules_vs_inline_text(self, filter_list, text):
        _assert_text_equivalent(filter_list, text)

    @settings(max_examples=60, deadline=None)
    @given(
        filter_list=_filter_lists,
        scripts=st.lists(
            st.tuples(st.one_of(st.none(), _urls), _texts), max_size=5
        ),
    )
    def test_generated_script_batches(self, filter_list, scripts):
        with reference_paths():
            reference = (
                filter_list.match_scripts(scripts),
                filter_list.explain_scripts(scripts),
            )
        fast = (
            filter_list.match_scripts(scripts),
            filter_list.explain_scripts(scripts),
        )
        assert fast == reference

    @settings(max_examples=100, deadline=None)
    @given(url=_urls, text=_texts)
    def test_default_list(self, url, text):
        _assert_url_equivalent(default_nocoin_list(), url)
        _assert_text_equivalent(default_nocoin_list(), text)

    def test_urls_built_from_rule_patterns_hit(self):
        # deterministic hot cases: every default rule fired through both paths
        filter_list = default_nocoin_list()
        for rule in filter_list.rules:
            needle = rule.pattern.split("^")[0] if rule.regex is None else "cryptonight.wasm"
            for url in (
                f"https://{needle}/x.js",
                f"https://cdn.example/{needle}",
                f"https://{needle.upper()}/Y.JS",
            ):
                _assert_url_equivalent(filter_list, url)
            _assert_text_equivalent(filter_list, f"fetch('{needle}')")
            _assert_text_equivalent(filter_list, needle.upper())

    def test_exception_suppression_identical(self):
        filter_list = FilterList.from_lines(
            ["||coinhive.com^", "@@||coinhive.com^/opt-in", "miner.js"],
            source="gen",
        )
        for url in (
            "https://coinhive.com/lib.js",
            "https://coinhive.com/opt-in/x.js",
            "https://a.co/miner.js",
        ):
            _assert_url_equivalent(filter_list, url)

    def test_list_order_beats_leftmost_position(self):
        # rule 0 matches late in the URL, rule 1 matches at position 0;
        # the reference returns rule 0 — the automaton must too, even
        # though the combined regex finds rule 1's match first
        filter_list = FilterList.from_lines(["tail-bit", "http"], source="gen")
        hit = filter_list.match_url("http://x.co/tail-bit")
        assert hit is filter_list.rules[0]
        _assert_url_equivalent(filter_list, "http://x.co/tail-bit")

    def test_residual_regex_rules_keep_provenance(self):
        # capturing groups and inline flags cannot be embedded in the
        # combined alternation; they must still match via the residual path
        filter_list = FilterList.from_lines(
            ["/(coin)hive/", "/(?i)miner/", "plain.js"], source="gen"
        )
        fast_set = filter_list._fast()
        assert fast_set._url_residual  # the first two rules
        for url in (
            "https://coinhive.co/x",
            "https://MINER.example/y",
            "https://a.co/plain.js",
            "https://clean.example/z",
        ):
            _assert_url_equivalent(filter_list, url)

    def test_mutation_after_warm_invalidates_automaton(self):
        filter_list = FilterList.from_lines(["aminer.js"], source="gen")
        filter_list.warm()
        filter_list.add(parse_rule("||late.co^"))
        _assert_url_equivalent(filter_list, "https://late.co/x.js")
        assert filter_list.match_url("https://late.co/x.js") is not None


class TestAhoCorasick:
    @settings(max_examples=150, deadline=None)
    @given(
        needles=st.lists(
            st.text(alphabet="abco", min_size=1, max_size=5), min_size=1, max_size=8
        ),
        text=st.text(alphabet="abco", max_size=30),
    )
    def test_occurrence_matches_bruteforce(self, needles, text):
        automaton = AhoCorasick(needles)
        expected = {i for i, needle in enumerate(needles) if needle in text}
        assert automaton.occurring(text) == expected

    def test_overlapping_and_nested_needles(self):
        automaton = AhoCorasick(["ab", "babc", "abc", "c"])
        assert automaton.occurring("babc") == {0, 1, 2, 3}


_HTML_FRAGMENTS = (
    "<script>", "</script>", "<script src='x.js'>",
    '<script src="coinhive.min.js" defer>', "<SCRIPT>", "</SCRIPT >",
    "<ScRiPt TYPE=text/javascript>", "<style>", "</style>",
    "<!-- <script>hidden()</script> -->", "<!doctype html>", "<?xml?>",
    "<div class='a>b'>", "text < more", "var CoinHive;", "<script/>",
    "<script src=bare attr>", "</div>", "<p>", "&amp;", "<", ">", "-->",
    "<script src='unterminated", "\n", "COINHIVE.MIN.JS", "<br/>",
    "<script src=\"a&amp;b\">", "x</scrip>y", "<b", "<img src=x>",
)


class TestScannerDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        html=st.lists(
            st.one_of(
                st.sampled_from(_HTML_FRAGMENTS),
                st.text(alphabet="abc<>/!-= '\"\n", max_size=12),
            ),
            max_size=25,
        ).map("".join)
    )
    def test_scan_equals_extract(self, html):
        assert scan_scripts(html) == extract_scripts(html) == web_oracle.extract_scripts(html)

    @settings(max_examples=80, deadline=None)
    @given(
        html=st.lists(st.sampled_from(_HTML_FRAGMENTS), max_size=25).map("".join)
    )
    def test_static_detection_identical(self, html):
        detector = PageDetector(collect_evidence=True)
        with reference_paths():
            reference = detector.detect_static("site.example", html)
        fast = detector.detect_static("site.example", html)
        assert fast == reference


# ---------------------------------------------------------------------------
# whole campaigns: byte-identical verdicts and metrics, production vs oracles
# ---------------------------------------------------------------------------


def _materialized_campaign():
    with use_clock(TickClock()):
        fastpath.reset_shared_cache()
        population = build_population("alexa", seed=11, scale=0.05)
        obs = make_obs(prefix="crawl")
        scans = SequentialZgrabCampaign(population=population, obs=obs).both_scans()
        chrome = SequentialChromeCampaign(population=population, obs=obs).run()
        verdicts = [v for scan in scans for v in scan.verdicts]
        verdicts.extend(chrome.verdicts)
        return verdicts_to_jsonl(verdicts), obs.registry.to_dict()


def _streaming_campaign():
    with use_clock(TickClock()):
        fastpath.reset_shared_cache()
        population = StreamingPopulation(
            "com", seed=11, size=20_000, sample_per_stratum=100
        )
        obs = make_obs(prefix="crawl")
        campaign = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=2, workers=1, mode="serial"),
            obs=obs,
        )
        result = campaign.scan(0)
        return verdicts_to_jsonl(result.verdicts), obs.registry.to_dict()


class TestCampaignByteIdentity:
    def test_same_seed_campaign_verdicts_and_metrics(self):
        fast_verdicts, fast_metrics = _materialized_campaign()
        with reference_paths():
            ref_verdicts, ref_metrics = _materialized_campaign()
        assert fast_verdicts.encode() == ref_verdicts.encode()
        assert fast_metrics == ref_metrics
        assert fast_verdicts.count("\n") > 1  # non-degenerate run

    def test_streaming_campaign_verdicts_and_counters(self):
        fast_verdicts, fast_metrics = _streaming_campaign()
        with reference_paths():
            ref_verdicts, ref_metrics = _streaming_campaign()
        assert fast_verdicts.encode() == ref_verdicts.encode()
        assert fast_metrics == ref_metrics


class TestCompiledFilterSetInternals:
    def test_default_list_is_fully_automaton_backed(self):
        fast_set = default_nocoin_list()._fast()
        assert isinstance(fast_set, CompiledFilterSet)
        assert fast_set._url_combined is not None
        assert fast_set._url_residual == ()

    def test_clean_url_needs_no_per_rule_search(self):
        # the combined regex alone must settle the dominant clean case
        filter_list = default_nocoin_list()
        fast_set = filter_list._fast()
        assert fast_set.find_url("https://clean.example/app.js") is None
        assert not fast_set.any_exception_url("https://clean.example/app.js")
