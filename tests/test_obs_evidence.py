"""Detection provenance: evidence records, the verdict ledger, and every
detector's explain path.

The contract under test is twofold. First, the evidence each layer's
decision renders is the evidence the written-twice detectors in
:mod:`tests.oracles` built, and collecting it never changes a verdict
(``tests/test_cascade_differential.py`` runs the generated battery; the
cases here pin the edges by name). Second, the persisted
``verdicts.jsonl`` is a lossless, versioned serialization: Hypothesis
round-trips arbitrary verdict records through the JSONL format, legacy
headerless files still parse, and files from a future schema are
rejected loudly (same contract as ``trace.jsonl``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import MinerClassifier
from repro.core.detector import (
    CrossTabulation,
    PageDetector,
    cross_tabulate,
    _render,
    _websocket_evidence,
)
from repro.core.dynamic import DynamicMinerDetector
from repro.core.nocoin import (
    DEFAULT_LIST_SOURCE,
    FilterList,
    default_nocoin_list,
    parse_rule,
)
from repro.core.signatures import SignatureDatabase
from repro.obs.artifact import ArtifactSchemaError
from repro.obs.evidence import (
    EVIDENCE_SCHEMA_VERSION,
    Evidence,
    VerdictRecord,
    parse_verdicts_jsonl,
    render_verdict,
    verdicts_to_jsonl,
)
from tests import oracles


def _walk_wasm(classifier, dumps, websocket_urls=()) -> tuple:
    """``(miner, evidence)`` the cascade walk decides for a page's dumps."""
    detector = PageDetector(
        nocoin=FilterList(), classifier=classifier, collect_evidence=True
    )
    report = detector.detect_request("x.example", "", dumps, websocket_urls)
    return report.miner, report.evidence


# ---------------------------------------------------------------------------
# filter-rule provenance (nocoin)


class TestRuleProvenance:
    def test_from_lines_records_source_and_line_numbers(self):
        lines = ["! a comment", "", "||coinhive.com^", "miner.min.js"]
        filters = FilterList.from_lines(lines, source="test-list")
        assert [(r.source, r.line_number) for r in filters.rules] == [
            ("test-list", 3),
            ("test-list", 4),
        ]

    def test_parse_rule_defaults_to_empty_provenance(self):
        rule = parse_rule("||coinhive.com^")
        assert rule.source == ""
        assert rule.line_number == 0

    def test_bundled_list_is_sourced(self):
        for rule in default_nocoin_list().rules:
            assert rule.source == DEFAULT_LIST_SOURCE
            assert rule.line_number >= 1


class TestNocoinExplain:
    @pytest.fixture(scope="class")
    def filters(self):
        return default_nocoin_list()

    def test_explain_url_cites_rule_and_span(self, filters):
        url = "https://coinhive.com/lib/coinhive.min.js"
        match = filters.explain_url(url)
        assert match is not None
        assert match == oracles.explain_url(filters, url)
        assert match.where == "url"
        assert match.subject == url
        assert match.matched and match.matched in url

    def test_explain_text_truncates_long_inline_subject(self, filters):
        text = "x" * 200 + "coinhive.min.js" + "y" * 200
        match = filters.explain_text(text)
        assert match is not None
        assert match == oracles.explain_text(filters, text)
        assert len(match.subject) <= 120
        assert match.matched == "coinhive.min.js"

    def test_explain_scripts_matches_match_scripts(self, filters):
        scripts = [
            ("https://coinhive.com/lib/coinhive.min.js", ""),
            ("https://cdn.example.com/app.js", ""),
            ("", "var miner = new CoinHive.Anonymous; // crypto-loot.min.js"),
        ]
        explained = filters.explain_scripts(scripts)
        assert explained == oracles.explain_scripts(filters, scripts)
        assert filters.match_scripts(scripts) == oracles.match_scripts(filters, scripts)
        assert len(explained) == 2

    def test_exception_rules_suppress_explained_hits(self):
        filters = FilterList.from_lines(
            ["||coinhive.com^", "@@||coinhive.com/opt-out^"], source="t"
        )
        url = "https://coinhive.com/opt-out/x.js"
        assert filters.explain_url(url) is None
        assert oracles.explain_url(filters, url) is None
        assert filters.explain_url("https://coinhive.com/x.js") is not None


# ---------------------------------------------------------------------------
# classifier cascade provenance


class TestClassifierExplain:
    def test_signature_evidence_cites_db_record(self, signature_db, coinhive_wasm):
        classifier = MinerClassifier(database=signature_db)
        classification, (evidence,) = _walk_wasm(classifier, [coinhive_wasm])
        expected = oracles.explain_wasm(classifier, coinhive_wasm)
        assert classification == expected[0]
        assert evidence.to_dict() == expected[1].to_dict()
        assert classification.method == "signature"
        assert evidence.detector == "signature"
        assert evidence.verdict == "miner"
        details = dict(evidence.details)
        assert len(details["signature"]) == 64
        assert details["db_family"] == "coinhive"
        assert int(details["function_hashes"]) > 0

    def test_benign_evidence_cites_each_threshold(self, benign_wasm):
        classifier = MinerClassifier(database=SignatureDatabase())
        miner, (evidence,) = _walk_wasm(classifier, [benign_wasm])
        assert miner is None
        assert evidence.to_dict() == oracles.explain_wasm(classifier, benign_wasm)[1].to_dict()
        assert evidence.verdict == "benign"
        details = dict(evidence.details)
        # every cascade threshold is cited with the value that was tested
        for key in ("bitop_density", "float_density", "memory_pages", "rotate_count"):
            assert key in details
            assert "ok" in details[key] or "FAIL" in details[key]

    def test_undecodable_module_yields_invalid_evidence(self):
        classifier = MinerClassifier(database=SignatureDatabase())
        miner, (evidence,) = _walk_wasm(classifier, [b"not wasm"])
        assert miner is None
        assert evidence.to_dict() == oracles.explain_wasm(classifier, b"not wasm")[1].to_dict()
        assert evidence.verdict == "invalid"

    def test_explain_page_mirrors_page_is_miner(
        self, signature_db, coinhive_wasm, benign_wasm
    ):
        classifier = MinerClassifier(database=signature_db)
        dumps = [benign_wasm, coinhive_wasm]
        miner, evidence = _walk_wasm(classifier, dumps)
        expected_miner, expected_evidence = oracles.explain_page(classifier, dumps)
        assert miner == expected_miner == oracles.page_is_miner(classifier, dumps)
        assert miner is not None and miner.is_miner
        assert [e.to_dict() for e in evidence] == [e.to_dict() for e in expected_evidence]
        assert evidence and evidence[0].verdict == "miner"

    def test_explain_page_no_dumps(self, signature_db):
        classifier = MinerClassifier(database=signature_db)
        assert classifier.page_decision([]) is None
        assert _walk_wasm(classifier, []) == (None, ())
        assert oracles.explain_page(classifier, []) == (None, ())


# ---------------------------------------------------------------------------
# page detector: evidence only when asked, outcome never changes


@dataclass
class _Frame:
    url: str
    direction: str
    payload: str


class TestDetectorEvidence:
    HTML = '<html><script src="https://coinhive.com/lib/coinhive.min.js"></script></html>'

    def test_default_path_collects_nothing(self):
        report = PageDetector().detect_static("a.com", self.HTML)
        assert report.nocoin_hit
        assert report.evidence == ()

    def test_explained_static_detection_is_outcome_identical(self):
        bare = PageDetector().detect_static("a.com", self.HTML)
        explaining = PageDetector()
        explaining.collect_evidence = True
        explained = explaining.detect_static("a.com", self.HTML)
        assert explained == bare  # evidence is excluded from equality
        assert explained.nocoin_rule_labels == bare.nocoin_rule_labels
        (item,) = explained.evidence
        assert item.detector == "nocoin"
        details = dict(item.details)
        assert details["source"] == DEFAULT_LIST_SOURCE
        assert int(details["line_number"]) >= 1
        assert details["matched"]

    def test_websocket_evidence_counts_jobs_and_submits(self):
        frames = [
            _Frame("wss://pool.example/a", "received", json.dumps({"type": "job"})),
            _Frame("wss://pool.example/a", "sent", json.dumps({"type": "submit"})),
            _Frame("wss://pool.example/b", "received", json.dumps({"type": "job"})),
            _Frame("wss://pool.example/b", "received", "not json"),
        ]
        item = _websocket_evidence(frames)
        assert item.detector == "websocket"
        assert item.verdict == "active"  # at least one submit
        details = dict(item.details)
        assert details["wss://pool.example/a"] == "jobs=1 submits=1"
        assert details["wss://pool.example/b"] == "jobs=1 submits=0"

    def test_websocket_evidence_without_submits_is_observed(self):
        frames = [_Frame("wss://p/x", "received", json.dumps({"type": "job"}))]
        assert _websocket_evidence(frames).verdict == "observed"


# ---------------------------------------------------------------------------
# dynamic detector provenance


class TestDynamicExplain:
    def test_explain_matches_is_miner(self, coinhive_wasm, benign_wasm):
        detector = DynamicMinerDetector()
        for module in (coinhive_wasm, benign_wasm):
            verdict, decision = detector.explain(module)
            expected_verdict, expected = oracles.dynamic_explain(detector, module)
            assert verdict == expected_verdict == oracles.dynamic_is_miner(detector, module)
            evidence = _render(decision, ())
            assert evidence.to_dict() == expected.to_dict()
            assert evidence.detector == "dynamic"
            assert "executed" in dict(evidence.details)

    def test_garbage_module_is_invalid(self):
        detector = DynamicMinerDetector()
        verdict, decision = detector.explain(b"garbage")
        assert verdict is False
        evidence = _render(decision, ())
        assert evidence.to_dict() == oracles.dynamic_explain(detector, b"garbage")[1].to_dict()
        assert evidence.verdict == "invalid"


# ---------------------------------------------------------------------------
# pool attribution provenance


class TestPoolAttributionExplained:
    def test_explained_attribution_cites_merkle_proof(self, small_chain):
        from repro.core.pool_association import BlockAttributor, attribution_evidence
        from repro.pool.jobs import build_template

        template = build_template(
            small_chain, "coinhive", b"be0", timestamp=1_525_000_100
        )
        clusters = {template.header.prev_id: {template.merkle_root()}}
        small_chain.force_append(template.to_block(nonce=5))

        (block,) = BlockAttributor(chain=small_chain).attribute(clusters)
        evidence = attribution_evidence(block, clusters)
        ((expected_block, expected),) = oracles.attribute_explained(small_chain, clusters)
        assert block == expected_block
        assert evidence.to_dict() == expected.to_dict()
        assert evidence.detector == "pool"
        assert evidence.verdict == "attributed"
        details = dict(evidence.details)
        assert details["merkle_root"] == block.merkle_root.hex()
        assert details["prev_block_pointer"] == template.header.prev_id.hex()
        assert details["height"] == str(block.height)

    def test_no_clusters_no_attribution(self, small_chain):
        from repro.core.pool_association import BlockAttributor

        assert BlockAttributor(chain=small_chain).attribute({}) == []
        assert oracles.attribute_explained(small_chain, {}) == []


# ---------------------------------------------------------------------------
# cross-tabulation edge cases (Table 2 denominators)


class TestCrossTabulationEdges:
    def test_empty_report_set(self):
        tab = cross_tabulate([])
        assert tab == CrossTabulation()
        assert tab.missed_fraction == 0.0
        assert tab.detection_factor == 0.0

    def test_zero_miners_zero_denominators(self):
        tab = CrossTabulation(nocoin_hits=5, wasm_miner_hits=0)
        assert tab.missed_fraction == 0.0
        assert tab.detection_factor == 0.0

    def test_no_blocked_miners_is_infinite_factor(self):
        tab = CrossTabulation(
            wasm_miner_hits=7, miners_blocked_by_nocoin=0, miners_missed_by_nocoin=7
        )
        assert tab.detection_factor == float("inf")
        assert tab.missed_fraction == 1.0

    def test_normal_ratio(self):
        tab = CrossTabulation(
            wasm_miner_hits=10, miners_blocked_by_nocoin=2, miners_missed_by_nocoin=8
        )
        assert tab.detection_factor == 5.0
        assert tab.missed_fraction == 0.8


# ---------------------------------------------------------------------------
# verdict ledger: lossless round-trip, legacy tolerance, future rejection


_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=24
)

_evidence = st.builds(
    Evidence,
    detector=st.sampled_from(
        ["nocoin", "signature", "name-hint", "instruction-mix", "backend",
         "websocket", "dynamic", "pool"]
    ),
    verdict=_text,
    summary=_text,
    details=st.lists(st.tuples(_text, _text), max_size=4).map(tuple),
)

_verdicts = st.lists(
    st.builds(
        VerdictRecord,
        subject=_text,
        dataset=st.sampled_from(["alexa", "com", "net", "org", "network"]),
        pipeline=st.sampled_from(["zgrab0", "zgrab1", "chrome", "pool"]),
        kind=st.sampled_from(["page", "block"]),
        status=st.sampled_from(["ok", "error"]),
        nocoin_hit=st.booleans(),
        wasm_present=st.booleans(),
        is_miner=st.booleans(),
        family=_text,
        method=st.sampled_from(
            ["", "signature", "name-hint", "instruction-mix", "backend"]
        ),
        confidence=st.floats(allow_nan=False, allow_infinity=False),
        evidence=st.lists(_evidence, max_size=3).map(tuple),
    ),
    max_size=6,
)


class TestVerdictSerialization:
    @settings(max_examples=60, deadline=None)
    @given(records=_verdicts)
    def test_jsonl_round_trip_is_lossless(self, records):
        assert parse_verdicts_jsonl(verdicts_to_jsonl(records)) == records

    @settings(max_examples=30, deadline=None)
    @given(records=_verdicts)
    def test_serialization_is_deterministic(self, records):
        assert verdicts_to_jsonl(records) == verdicts_to_jsonl(list(records))

    @settings(max_examples=30, deadline=None)
    @given(records=_verdicts)
    def test_legacy_headerless_files_parse(self, records):
        text = verdicts_to_jsonl(records)
        headerless = "\n".join(text.splitlines()[1:])
        assert parse_verdicts_jsonl(headerless) == records

    def test_header_line_is_versioned_and_compact(self):
        first = verdicts_to_jsonl([]).splitlines()[0]
        assert first == '{"schema_version":%d}' % EVIDENCE_SCHEMA_VERSION

    def test_future_schema_version_rejected(self):
        text = verdicts_to_jsonl([])
        bumped = text.replace(
            f'"schema_version":{EVIDENCE_SCHEMA_VERSION}',
            f'"schema_version":{EVIDENCE_SCHEMA_VERSION + 1}',
        )
        with pytest.raises(ArtifactSchemaError, match="upgrade repro"):
            parse_verdicts_jsonl(bumped)

    def test_malformed_header_rejected(self):
        with pytest.raises(ArtifactSchemaError, match="malformed"):
            parse_verdicts_jsonl('{"schema_version":"two"}\n')

    def test_unknown_verdict_fields_rejected(self):
        record = json.dumps({"subject": "a.com", "mystery": 1})
        with pytest.raises(ValueError, match="unknown verdict fields"):
            parse_verdicts_jsonl(record + "\n")

    def test_missing_required_field_rejected(self):
        header = verdicts_to_jsonl([])
        with pytest.raises(ArtifactSchemaError, match="line 2 .*missing field 'subject'"):
            parse_verdicts_jsonl(header + "{}\n")

    def test_empty_file_parses_to_nothing(self):
        assert parse_verdicts_jsonl("") == []


class TestRenderVerdict:
    def test_miner_verdict_renders_evidence_chain(self):
        record = VerdictRecord(
            subject="evil.com",
            dataset="alexa",
            pipeline="chrome",
            nocoin_hit=False,
            wasm_present=True,
            is_miner=True,
            family="coinhive",
            method="signature",
            confidence=1.0,
            evidence=(
                Evidence(
                    detector="signature",
                    verdict="miner",
                    summary="signature-db record matched",
                    details=(("db_family", "coinhive"),),
                ),
            ),
        )
        text = render_verdict(record)
        assert "evil.com [alexa/chrome] -> MINER" in text
        assert "family=coinhive method=signature" in text
        assert "[signature] miner: signature-db record matched" in text
        assert "db_family = coinhive" in text

    def test_clean_verdict_without_evidence(self):
        text = render_verdict(VerdictRecord(subject="ok.com", dataset="net", pipeline="zgrab0"))
        assert "ok.com [net/zgrab0] -> clean" in text
        assert "(no evidence recorded)" in text
