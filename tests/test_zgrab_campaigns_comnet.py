"""zgrab campaigns over the zgrab-only datasets (.com and .net)."""

import pytest

from repro.internet.population import build_population
from tests.oracles.crawl import SequentialZgrabCampaign


@pytest.fixture(scope="module")
def com_scans():
    population = build_population("com", seed=55, scale=0.05)
    return SequentialZgrabCampaign(population=population).both_scans(), population


@pytest.fixture(scope="module")
def net_scans():
    population = build_population("net", seed=55, scale=0.2)
    return SequentialZgrabCampaign(population=population).both_scans(), population


class TestComCampaign:
    def test_first_scan_counts_scale(self, com_scans):
        scans, population = com_scans
        listed = len(population.sites_by_role("listed-tag"))
        # every listed-tag site is https+static in .com: all detected
        assert scans[0].nocoin_domains == listed

    def test_prevalence_matches_paper_order(self, com_scans):
        scans, _ = com_scans
        # paper: .com ≈ 0.006%; scale-invariant because the denominator is
        # the paper's zone size and the numerator scales with it
        assert scans[0].prevalence < 0.0008

    def test_family_shares(self, com_scans):
        scans, _ = com_scans
        shares = scans[0].script_shares
        assert shares["coinhive"] > 0.7
        assert "cpmstar" in shares

    def test_churn_between_scans(self, com_scans):
        scans, _ = com_scans
        assert scans[1].nocoin_domains < scans[0].nocoin_domains
        retention = scans[1].nocoin_domains / scans[0].nocoin_domains
        assert 0.75 < retention < 0.95  # spec: 0.860


class TestNetCampaign:
    def test_detects_and_churns(self, net_scans):
        scans, _ = net_scans
        assert scans[0].nocoin_domains > 0
        assert scans[1].nocoin_domains <= scans[0].nocoin_domains

    def test_no_chrome_layer(self, net_scans):
        _, population = net_scans
        assert not population.spec.chrome_crawl
        assert not population.ground_truth_miners()

    def test_clean_sites_never_hit(self, net_scans):
        scans, population = net_scans
        clean = len(population.sites_by_role("clean"))
        assert scans[0].nocoin_domains <= len(population.sites) - clean
