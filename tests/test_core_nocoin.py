"""Tests for the NoCoin filter-list engine."""

import pytest

from repro.core.nocoin import FilterList, FilterListError, default_nocoin_list, parse_rule


class TestParsing:
    def test_comment_skipped(self):
        assert parse_rule("! a comment") is None

    def test_header_skipped(self):
        assert parse_rule("[Adblock Plus 2.0]") is None

    def test_blank_skipped(self):
        assert parse_rule("   ") is None

    def test_domain_anchor(self):
        rule = parse_rule("||coinhive.com^")
        assert rule.domain_anchor
        assert rule.pattern == "coinhive.com^"

    def test_exception_rule(self):
        rule = parse_rule("@@||goodsite.com^")
        assert rule.is_exception

    def test_options_parsed(self):
        rule = parse_rule("||miner.com^$script,third-party")
        assert rule.options == ("script", "third-party")

    def test_regex_rule(self):
        rule = parse_rule(r"/cryptonight\.wasm/")
        assert rule.regex == r"cryptonight\.wasm"

    def test_empty_body_rejected(self):
        with pytest.raises(FilterListError):
            parse_rule("||")

    def test_uncompilable_regex_body_rejected_at_parse(self):
        # the error must surface as a FilterListError from parse_rule,
        # not as a raw re.error later when the list compiles the rule
        with pytest.raises(FilterListError, match="bad regex rule"):
            parse_rule("/*/")
        with pytest.raises(FilterListError):
            FilterList.from_lines(["||coinhive.com^", "/a{2,1}/"])


class TestUrlMatching:
    @pytest.fixture()
    def nocoin(self):
        return default_nocoin_list()

    def test_official_coinhive_url(self, nocoin):
        rule = nocoin.match_url("https://coinhive.com/lib/coinhive.min.js")
        assert rule is not None
        assert rule.label == "coinhive"

    def test_subdomain_matches_domain_anchor(self, nocoin):
        assert nocoin.match_url("https://cdn.coinhive.com/lib/x.js") is not None

    def test_domain_anchor_requires_label_boundary(self, nocoin):
        # notcoinhive.com must NOT match ||coinhive.com^
        assert nocoin.match_url("https://notcoinhive.com/x.js") is None

    def test_substring_rule(self, nocoin):
        assert nocoin.match_url("https://mirror.example/static/coinhive.min.js") is not None

    def test_cpmstar_overbroad_rule(self, nocoin):
        rule = nocoin.match_url("https://ssl.cpmstar.com/cached/js/cpmstar.js")
        assert rule is not None
        assert rule.label == "cpmstar"

    def test_clean_url_unmatched(self, nocoin):
        assert nocoin.match_url("https://example.com/js/app.js") is None

    def test_self_hosted_miner_unmatched(self, nocoin):
        """The false-negative mechanism: first-party loader URLs are clean."""
        assert nocoin.match_url("https://www.somesite.org/assets/app-support.js") is None

    def test_regex_rule_matches(self, nocoin):
        assert nocoin.match_url("https://cdn.x.com/cryptonight.wasm") is not None

    def test_exception_rules_suppress(self):
        filter_list = FilterList.from_lines(["||ads.com^", "@@||ads.com/safe.js"])
        assert filter_list.match_url("https://ads.com/track.js") is not None
        assert filter_list.match_url("https://ads.com/safe.js") is None

    def test_wildcard_pattern(self):
        filter_list = FilterList.from_lines(["wp-monero-miner*.js"])
        assert filter_list.match_url("https://x.com/wp-monero-miner-v2.js") is not None
        assert filter_list.match_url("https://x.com/wp-monero-thing.css") is None


class TestTextMatching:
    def test_inline_script_with_listed_host(self):
        nocoin = default_nocoin_list()
        text = "var s=document.createElement('script');s.src='https://coinhive.com/lib/x';"
        assert nocoin.explain_text(text).rule.label == "coinhive"

    def test_clean_inline(self):
        nocoin = default_nocoin_list()
        assert nocoin.explain_text("function add(a, b) { return a + b; }") is None

    def test_empty_text(self):
        assert default_nocoin_list().explain_text("") is None


class TestScriptsMatching:
    def test_match_scripts_mixed(self):
        nocoin = default_nocoin_list()
        scripts = [
            ("https://example.com/app.js", ""),
            ("https://coinhive.com/lib/coinhive.min.js", ""),
            (None, "var miner = new CoinHive.Anonymous('K'); // coinhive.com/lib"),
        ]
        hits = nocoin.match_scripts(scripts)
        assert len(hits) == 2

    def test_default_list_has_many_rules(self):
        assert len(default_nocoin_list()) >= 15


class TestParsingEdgeCases:
    def test_regex_rule_containing_dollar(self):
        # "$" inside a /regex/ body is an end-of-string anchor, not an
        # option separator — the options split must not fire
        rule = parse_rule(r"/miner\.js$/")
        assert rule.regex == r"miner\.js$"
        assert rule.options == ()

    def test_regex_rule_with_alternation_and_dollar(self):
        rule = parse_rule(r"/(?:coin|mine)r?$/")
        assert rule.regex == r"(?:coin|mine)r?$"

    def test_empty_body_with_options_rejected(self):
        with pytest.raises(FilterListError):
            parse_rule("||$script")

    def test_empty_exception_body_rejected(self):
        with pytest.raises(FilterListError):
            parse_rule("@@||")

    def test_exception_rule_with_options(self):
        rule = parse_rule("@@||goodsite.com^$script,domain=partner.example")
        assert rule.is_exception
        assert rule.domain_anchor
        assert rule.options == ("script", "domain=partner.example")

    def test_round_trip_stability(self):
        lines = [
            "||coinhive.com^",
            "@@||goodsite.com^/opt-in",
            "coinhive.min.js",
            r"/cryptonight.*\.wasm/",
            r"/miner\.js$/",
            "||miner.com^$script,third-party",
            "@@||partner.example^$domain=a.example",
        ]
        for line in lines:
            rule = parse_rule(line)
            assert rule.to_line() == line
            assert parse_rule(rule.to_line()) == rule


class TestTextCaseHandling:
    def test_mixed_case_domain_anchor_hits_inline_text(self):
        # regression: domain-anchored needles are lowercase; the scan must
        # lowercase the subject (once), not miss mixed-case inline text
        nocoin = default_nocoin_list()
        text = "var s = 'https://CoinHive.COM/lib/x.js';"
        match = nocoin.explain_text(text)
        assert match is not None and match.rule.label == "coinhive"
        assert match.matched.lower() == "coinhive.com"
        assert match.where == "text"

    def test_text_lowered_exactly_once_per_scan(self):
        from contextlib import nullcontext

        from tests.oracles import reference_paths

        class CountingStr(str):
            def lower(self):
                lower_calls.append(1)
                return str.lower(self)

        nocoin = default_nocoin_list()
        # automaton and rule-by-rule reference oracle
        for mode, paths in (("production", nullcontext), ("reference", reference_paths)):
            lower_calls = []
            with paths():
                nocoin.explain_text(CountingStr("no miners in THIS inline block"))
            assert sum(lower_calls) == 1, mode
