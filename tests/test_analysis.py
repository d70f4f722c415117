"""Tests for the analysis campaigns (crawls, short-link study, reporting)."""

import pytest

from repro.analysis.economics import EconomicsReport, user_count_bracket
from repro.analysis.reporting import (
    format_quantity,
    render_cdf_points,
    render_day_hour_heatmap,
    render_histogram,
    render_table,
)
from repro.analysis.shortlink import ShortLinkStudy
from tests.oracles.crawl import SequentialChromeCampaign, SequentialZgrabCampaign


class TestZgrabCampaign:
    @pytest.fixture(scope="class")
    def scans(self, alexa_population):
        campaign = SequentialZgrabCampaign(population=alexa_population)
        return campaign.both_scans()

    def test_detects_miners(self, scans):
        assert scans[0].nocoin_domains > 0

    def test_second_scan_smaller(self, scans):
        # churn removes ~12% of tagged sites
        assert scans[1].nocoin_domains < scans[0].nocoin_domains

    def test_coinhive_dominates_shares(self, scans):
        shares = scans[0].script_shares
        assert shares.get("coinhive", 0) > 0.5
        assert max(shares, key=shares.get) == "coinhive"

    def test_prevalence_is_low(self, scans):
        # the paper: < 0.08% of probed domains
        assert scans[0].prevalence < 0.0008

    def test_scan_dates_from_spec(self, scans, alexa_population):
        assert scans[0].scan_date == alexa_population.spec.scan_dates[0]


class TestChromeCampaign:
    @pytest.fixture(scope="class")
    def result(self, alexa_population):
        return SequentialChromeCampaign(population=alexa_population).run()

    def test_finds_most_ground_truth_miners(self, result, alexa_population):
        truth = alexa_population.ground_truth_miners()
        assert result.miner_wasm_sites >= len(truth) * 0.95

    def test_no_false_positives_on_benign_wasm(self, result, alexa_population):
        miner_domains = {r.domain for r in result.reports if r.is_miner}
        benign = {s.domain for s in alexa_population.sites_by_role("benign-wasm")}
        assert not (miner_domains & benign)

    def test_nocoin_misses_majority(self, result):
        # the paper's headline: 82% of Alexa miners missed by NoCoin
        assert result.cross_tab.missed_fraction > 0.6

    def test_detection_factor_matches_magnitude(self, result):
        # "up to a factor of 5.7 more miners than block lists"
        assert result.cross_tab.detection_factor > 3.0

    def test_nocoin_false_positives_exist(self, result):
        # dead tags + cpmstar: NoCoin hits without mining Wasm
        assert result.cross_tab.nocoin_hits > result.cross_tab.nocoin_hits_with_miner_wasm

    def test_coinhive_top_signature(self, result):
        assert result.signature_counts.most_common(1)[0][0] == "coinhive"

    def test_most_wasm_is_mining(self, result):
        # paper: ~96% of Wasm-bearing sites are miners
        assert result.miner_wasm_sites / result.total_wasm_sites > 0.85

    def test_category_tables_have_coverage(self, result):
        assert 0.3 < result.nocoin_categorized_fraction <= 1.0
        assert 0.3 < result.signature_categorized_fraction <= 1.0
        assert result.nocoin_categories
        assert result.signature_categories


class TestShortLinkStudy:
    @pytest.fixture(scope="class")
    def study(self, shortlink_population):
        return ShortLinkStudy(
            population=shortlink_population, sample_per_top_user=40
        )

    def test_links_per_token_figure3(self, study):
        result = study.links_per_token()
        assert result.top1_share == pytest.approx(1 / 3, abs=0.02)
        assert result.topn_share(10) == pytest.approx(0.85, abs=0.02)
        cdf = result.cdf_points()
        assert cdf[-1][1] == pytest.approx(1.0)

    def test_hash_requirements_figure4(self, study):
        result = study.hash_requirements()
        # majority of links resolvable in <51 s (1024 hashes @20 H/s), both views
        assert result.share_resolvable_within(1024, unbiased=False) > 0.5
        assert result.share_resolvable_within(1024, unbiased=True) > 0.5
        # unbiased view: >2/3 under 1024 (the paper's statement)
        assert result.share_resolvable_within(1024, unbiased=True) > 2 / 3 - 0.05
        # the infeasible tail exists
        assert result.share_resolvable_within(10**18, unbiased=True) < 1.0

    def test_user_bias_removal_shrinks_dataset(self, study):
        result = study.hash_requirements()
        assert len(result.user_bias_removed) < len(result.all_links)

    def test_destinations_tables_4_and_5(self, study):
        result = study.destinations()
        # Table 4: top-10 destination hosts dominated by streaming/filesharing
        top_hosts = [host for host, _ in result.top_user_domains.most_common(10)]
        assert "youtu.be" in top_hosts
        coverage = sum(result.top_user_domains[h] for h in top_hosts) / result.top_user_sample_size
        assert coverage > 0.8  # paper: ~89%
        # Table 5: diverse categories, ~1/3 unclassified
        assert len(result.unbiased_categories) >= 5
        unclassified_share = result.unbiased_unclassified / result.unbiased_urls
        assert 0.2 < unclassified_share < 0.5

    def test_resolution_computed_hashes(self, study):
        result = study.destinations()
        assert result.hashes_computed > 0


class TestEconomics:
    def test_gross_usd(self):
        report = EconomicsReport(xmr_mined=1271.0)
        assert report.gross_usd == pytest.approx(152_520)

    def test_split(self):
        report = EconomicsReport(xmr_mined=1000.0)
        assert report.pool_cut_usd == pytest.approx(report.gross_usd * 0.3)
        assert report.users_cut_usd == pytest.approx(report.gross_usd * 0.7)

    def test_user_bracket_matches_paper(self):
        high, low = user_count_bracket(5.5e6)
        assert high == pytest.approx(275_000, rel=0.1)
        assert low == pytest.approx(55_000, rel=0.1)


class TestReporting:
    def test_render_table(self):
        text = render_table(["a", "bb"], [["1", "22"], ["333", "4"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_render_histogram(self):
        text = render_histogram([256, 512], [5, 10], title="H", width=10)
        assert "##########" in text

    def test_render_cdf(self):
        text = render_cdf_points([1, 2, 3, 4, 5])
        assert "p50" in text

    def test_render_cdf_empty(self):
        assert render_cdf_points([]) == "(empty)"

    def test_format_quantity(self):
        assert format_quantity(55_400_000_000) == "55.4G"
        assert format_quantity(5_500_000) == "5.5M"
        assert format_quantity(42) == "42.0"

    def test_heatmap(self):
        matrix = {("2018-05-01", 3): 2, ("2018-05-01", 14): 11, ("2018-05-02", 0): 1}
        text = render_day_hour_heatmap(matrix, title="Fig5")
        assert "2018-05-01" in text
        assert "+" in text  # ≥10 marker
        assert "| 13" in text  # daily total
