"""Tests for block-list generation from crawl results."""

import pytest

from repro.analysis.defense import (
    augmented_list,
    evaluate_coverage,
    generate_rules,
)
from repro.core.detector import DetectionReport
from repro.core.classifier import Classification
from tests.oracles.crawl import SequentialChromeCampaign


def miner_report(domain: str, ws_urls, nocoin=False) -> DetectionReport:
    report = DetectionReport(domain=domain, nocoin_hit=nocoin)
    report.wasm_present = True
    report.miner = Classification(True, "coinhive", "signature", 1.0)
    report.websocket_urls = tuple(ws_urls)
    return report


class TestGenerateRules:
    def test_collects_websocket_hosts(self):
        reports = [
            miner_report("a.com", ["wss://ws1.coinhive.com/proxy"]),
            miner_report("b.com", ["wss://ws2.coinhive.com/proxy", "wss://pool.x.net/w"]),
        ]
        generated = generate_rules(reports)
        assert "ws1.coinhive.com" in generated.websocket_hosts
        assert "pool.x.net" in generated.websocket_hosts
        assert len(generated) == 3

    def test_non_miners_ignored(self):
        clean = DetectionReport(domain="c.com", nocoin_hit=True)
        assert len(generate_rules([clean])) == 0

    def test_rule_lines_are_adblock_syntax(self):
        reports = [miner_report("a.com", ["wss://evil.pool.io/x"])]
        lines = generate_rules(reports).to_lines()
        assert lines == ["||evil.pool.io^"]


class TestAugmentedList:
    def test_augmented_matches_new_endpoint(self):
        reports = [miner_report("a.com", ["wss://sneaky-pool.biz/ws"])]
        combined = augmented_list(generate_rules(reports))
        assert combined.match_url("wss://sneaky-pool.biz/ws") is not None
        # base rules still present
        assert combined.match_url("https://coinhive.com/lib/coinhive.min.js") is not None


class TestCoverage:
    def test_coverage_improves_with_generated_rules(self):
        reports = [
            miner_report("a.com", ["wss://ws1.coinhive.com/proxy"], nocoin=True),
            miner_report("b.com", ["wss://hidden-pool.net/w"], nocoin=False),
            miner_report("c.com", ["wss://hidden-pool.net/w"], nocoin=False),
        ]
        combined = augmented_list(generate_rules(reports))
        comparison = evaluate_coverage(reports, combined)
        assert comparison.miners_total == 3
        assert comparison.covered_by_base == 1
        assert comparison.covered_by_augmented == 3
        assert comparison.augmented_missed_fraction < comparison.base_missed_fraction

    def test_end_to_end_on_population(self, alexa_population):
        """Crawl → generate → re-evaluate: the 82% gap mostly closes."""
        result = SequentialChromeCampaign(population=alexa_population).run()
        generated = generate_rules(result.reports)
        assert len(generated) > 0
        combined = augmented_list(generated)
        comparison = evaluate_coverage(result.reports, combined)
        assert comparison.base_missed_fraction > 0.6          # the paper's gap
        assert comparison.augmented_missed_fraction < 0.15    # mostly closed
