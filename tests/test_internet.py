"""Tests for the synthetic populations (domains, sites, short links)."""

import pytest

from repro.internet.distributions import (
    DiurnalModel,
    draw_hash_requirement,
    heavy_user_counts,
    paper_holiday_calendar,
    zipf_counts,
)
from repro.internet.domains import DomainGenerator
from repro.internet.population import DATASETS, build_population
from repro.internet.shortlinks import build_shortlink_population
from repro.sim.clock import utc_timestamp
from repro.sim.rng import RngStream


class TestDistributions:
    def test_zipf_counts_sum(self):
        counts = zipf_counts(1000, 50, 1.3, RngStream(1))
        assert sum(counts) == 1000
        assert all(c >= 1 for c in counts)
        assert counts[0] == max(counts)

    def test_zipf_rejects_undersized_total(self):
        with pytest.raises(ValueError):
            zipf_counts(10, 20, 1.0, RngStream(1))

    def test_heavy_user_shape(self):
        counts = heavy_user_counts(100_000, RngStream(2), tail_users=500)
        total = sum(counts)
        assert total == 100_000
        assert counts[0] / total == pytest.approx(1 / 3, abs=0.01)
        assert sum(counts[:10]) / total == pytest.approx(0.85, abs=0.01)

    def test_hash_requirement_mixture(self):
        rng = RngStream(3)
        draws = [draw_hash_requirement(rng) for _ in range(3000)]
        # majority at the presets ≤1024, small far tail
        small = sum(1 for v in draws if v <= 1024)
        huge = sum(1 for v in draws if v >= 10**6)
        assert small / len(draws) > 0.55
        assert 0 < huge / len(draws) < 0.1
        assert max(draws) >= 10**6

    def test_diurnal_outage_zeroes(self):
        model = DiurnalModel(outages=[(100.0, 200.0)])
        assert model.factor(150.0) == 0.0
        assert model.factor(250.0) > 0.0

    def test_holiday_boost(self):
        model = DiurnalModel(holidays=paper_holiday_calendar())
        labor_day_eve = utc_timestamp(2018, 4, 30, 12)
        normal_day = utc_timestamp(2018, 4, 23, 12)
        assert model.factor(labor_day_eve) > model.factor(normal_day)

    def test_hourly_profile_averages_one(self):
        model = DiurnalModel()
        assert sum(model.hourly) / 24 == pytest.approx(1.0, abs=0.02)


class TestDomainGenerator:
    def test_unique_domains(self):
        generator = DomainGenerator(RngStream(1, "d"))
        domains = {generator.opaque("com") for _ in range(500)}
        assert len(domains) == 500

    def test_categorized_carries_fragment(self):
        generator = DomainGenerator(RngStream(2, "d"))
        from repro.rulespace.engine import RuleSpaceEngine

        engine = RuleSpaceEngine()
        for _ in range(20):
            domain = generator.categorized("Gaming", "com")
            assert "Gaming" in engine.classify_domain(domain)

    def test_draw_respects_classified_fraction(self):
        generator = DomainGenerator(RngStream(3, "d"))
        categorized = sum(
            1 for _ in range(400) if generator.draw("org", None, 0.7)[1] is not None
        )
        assert 230 <= categorized <= 330

    def test_tld_applied(self):
        generator = DomainGenerator(RngStream(4, "d"))
        assert generator.opaque("org").endswith(".org")


class TestWebPopulation:
    def test_dataset_specs_exist(self):
        assert set(DATASETS) == {"alexa", "com", "net", "org"}

    def test_deterministic(self):
        a = build_population("net", seed=5, scale=0.05)
        b = build_population("net", seed=5, scale=0.05)
        assert a.domains() == b.domains()

    def test_seed_changes_population(self):
        a = build_population("net", seed=5, scale=0.05)
        b = build_population("net", seed=6, scale=0.05)
        assert a.domains() != b.domains()

    def test_alexa_roles(self, alexa_population):
        roles = {site.role for site in alexa_population.sites}
        assert {"miner", "dead-miner", "cpmstar", "consent-declined", "benign-wasm", "clean"} <= roles

    def test_scale_shrinks_counts(self):
        small = build_population("net", seed=1, scale=0.02)
        assert len(small.sites) < 300

    @pytest.mark.parametrize("scale", [0.0, -1.0])
    def test_non_positive_scale_is_refused(self, scale):
        with pytest.raises(ValueError, match="scale must be > 0"):
            build_population("alexa", seed=1, scale=scale)

    def test_all_sites_reachable_somehow(self, alexa_population):
        web = alexa_population.web
        for site in alexa_population.sites[:50]:
            host = f"www.{site.domain}"
            assert web.has_host(host)

    def test_miner_sites_have_behaviors(self, alexa_population):
        assert alexa_population.behavior_registry
        # at least one registered behavior per (static-tag) miner site
        miners = alexa_population.sites_by_role("miner")
        assert len(alexa_population.behavior_registry) >= len(miners) * 0.5

    def test_ground_truth_miners_nonempty(self, alexa_population):
        assert alexa_population.ground_truth_miners()

    def test_com_population_is_static_only(self):
        population = build_population("com", seed=9, scale=0.01)
        assert not population.sites_by_role("miner")
        assert population.sites_by_role("listed-tag")


class TestShortLinkPopulation:
    def test_scale(self, shortlink_population):
        # 1.7M × 0.002 ≈ 3.4K links
        assert 3000 <= len(shortlink_population.service) <= 4000

    def test_heavy_user_concentration(self, shortlink_population):
        counts = sorted(shortlink_population.links_per_token().values(), reverse=True)
        total = sum(counts)
        assert counts[0] / total == pytest.approx(1 / 3, abs=0.02)
        assert sum(counts[:10]) / total == pytest.approx(0.85, abs=0.02)

    def test_top_tokens_are_heavy_creators(self, shortlink_population):
        top = shortlink_population.top_tokens(10)
        heavy = {c.token for c in shortlink_population.creators if c.is_heavy}
        assert set(top) == heavy

    def test_deterministic(self):
        a = build_shortlink_population(seed=3, scale=0.001)
        b = build_shortlink_population(seed=3, scale=0.001)
        assert [l.target_url for l in a.service.links] == [l.target_url for l in b.service.links]

    def test_heavy_destinations_match_table4_hosts(self, shortlink_population):
        from repro.internet.shortlinks import TOP_USER_DESTINATIONS

        heavy_tokens = set(shortlink_population.top_tokens(10))
        known_hosts = {host for host, _ in TOP_USER_DESTINATIONS}
        heavy_links = [l for l in shortlink_population.service.links if l.token in heavy_tokens]
        hits = sum(
            1 for l in heavy_links
            if l.target_url.split("://")[1].split("/")[0] in known_hosts
        )
        assert hits / len(heavy_links) > 0.8  # paper: ~89%

    def test_misconfigured_tail_exists(self, shortlink_population):
        assert any(l.required_hashes >= 10**18 for l in shortlink_population.service.links)

    def test_registers_creators_with_coinhive(self, coinhive_service):
        population = build_shortlink_population(seed=3, scale=0.001, coinhive=coinhive_service)
        assert any(u.kind == "shortlink" for u in coinhive_service.users.values())
