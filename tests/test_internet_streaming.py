"""Equivalence/property battery for streaming populations.

The streaming refactor's contract is behavioural: the same seed must mean
the same internet whether streamed or materialized, sharded or serial,
sampled or exhaustive — and site *i* must be derivable in isolation.
These properties ARE the product of the refactor; hypothesis drives them
across seeds, sizes, shard counts, and strata shapes.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.internet.domains import DomainGenerator, index_of_domain, indexed_domain
from repro.internet.population import DATASETS, Population, build_population
from repro.internet.streaming import (
    RankStratum,
    StreamingPopulation,
    base_role_rates,
    default_strata,
    parse_strata,
)
from repro.sim.rng import RngStream

DATASET_NAMES = sorted(DATASETS)

#: strata with rank boundaries inside small test populations, so every
#: bucket (including boundary-straddling ones) actually gets exercised
SMALL_STRATA = st.sampled_from(["top:10:0.5,mid:60:0.3,tail:-:0.1", "all:-:0.25", ""])


def _make(dataset, seed, size, strata_text="", sample=0):
    strata = parse_strata(strata_text, DATASETS[dataset]) if strata_text else None
    return StreamingPopulation(
        dataset, seed=seed, size=size, strata=strata, sample_per_stratum=sample
    )


def _observe(web, url):
    """What a crawler sees: the response, or the exact failure."""
    from repro.web.http import FetchError

    try:
        response = web.fetch(url)
    except FetchError as error:
        return ("error", str(error))
    return ("ok", response.status, response.body)


def _site_key(site):
    """Every site attribute the campaigns can observe."""
    return (
        site.domain, site.role, site.category, site.stratum, site.rank,
        site.family, site.wasm_variant, site.official_url, site.https,
        site.static_tags, site.present_scan2,
    )


class TestStreamEqualsMaterialized:
    @settings(max_examples=15, deadline=None)
    @given(
        dataset=st.sampled_from(DATASET_NAMES),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 120),
        strata_text=SMALL_STRATA,
    )
    def test_sites_and_ground_truth_agree(self, dataset, seed, size, strata_text):
        population = _make(dataset, seed, size, strata_text)
        materialized = population.materialize()
        assert len(materialized.sites) == size
        for index in range(size):
            assert _site_key(population.site(index)) == _site_key(materialized.sites[index])
        assert population.ground_truth_miners() == materialized.ground_truth_miners()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 60))
    def test_lazy_web_serves_materialized_bytes(self, seed, size):
        strata_text = "top:5:0.6,tail:-:0.3"  # force signal roles into view
        population = _make("alexa", seed, size, strata_text)
        materialized = population.materialize()
        lazy_web, eager_web = population.web, materialized.web
        for site in materialized.sites:
            for scheme in ("http", "https"):
                url = f"{scheme}://www.{site.domain}/"
                assert _observe(lazy_web, url) == _observe(eager_web, url), url

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 200))
    def test_site_derivable_in_isolation(self, seed, size):
        """Site i from a fresh instance == site i from a fully-walked one,
        and deriving it touches no other site."""
        walked = _make("com", seed, size)
        all_keys = [_site_key(site) for site in walked.iter_sites()]
        probe = size // 2
        fresh = _make("com", seed, size)
        assert _site_key(fresh.site(probe)) == all_keys[probe]
        # a second cold instance probed in reverse order agrees everywhere
        reverse = _make("com", seed, size)
        for index in reversed(range(size)):
            assert _site_key(reverse.site(index)) == all_keys[index]


class TestShardPlanPartitions:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        size=st.integers(0, 500),
        num_shards=st.integers(1, 12),
        sample=st.integers(0, 9),
        strata_text=SMALL_STRATA,
    )
    def test_disjoint_union_complete_order_stable(
        self, seed, size, num_shards, sample, strata_text
    ):
        population = _make("net", seed, size, strata_text, sample=sample)
        plan = population.shard_plan(num_shards)
        assert len(plan) == num_shards
        flattened = [index for shard in plan for index in shard]
        expected = list(population.scan_indices())
        # union-complete and order-stable: concatenating the shards in
        # shard order reproduces the scan order exactly (hence disjoint)
        assert flattened == expected
        assert len(set(flattened)) == len(flattened)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.integers(1, 300), shards=st.integers(1, 8))
    def test_shards_on_disjoint_ranges_never_collide(self, seed, size, shards):
        """Satellite 1's regression: two shards generating names over
        disjoint index ranges can never produce the same domain, with no
        shared seen-set between them."""
        population = _make("org", seed, size)
        seen: dict = {}
        for shard_id, indices in enumerate(population.shard_plan(shards)):
            for site in population.iter_sites(indices):
                assert site.domain not in seen, (
                    f"{site.domain} from shard {shard_id} collides with "
                    f"shard {seen[site.domain]}"
                )
                seen[site.domain] = shard_id
        assert len(seen) == size

    def test_more_shards_than_indices(self):
        population = _make("com", 5, 3)
        plan = population.shard_plan(7)
        assert [len(shard) for shard in plan] == [1, 1, 1, 0, 0, 0, 0]


class TestIndexedDomains:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), index=st.integers(0, 10**9))
    def test_round_trip(self, seed, index):
        rng = RngStream(seed, "t")
        domain = indexed_domain(rng, index, "com")
        assert index_of_domain(domain) == index

    def test_legacy_generator_names_decode_to_none(self):
        generator = DomainGenerator(rng=RngStream(3, "legacy"))
        for _ in range(200):
            domain, _category = generator.draw("org")
            assert index_of_domain(domain) is None, domain

    def test_population_rejects_foreign_domains(self):
        population = _make("com", 9, 50)
        assert population.index_of_domain("example.com") is None
        assert population.index_of_domain("fake-7.com") is None  # wrong body
        assert population.index_of_domain(f"fake-{10**6}.com") is None  # out of range
        domain = population.site(17).domain
        assert population.index_of_domain(domain) == 17
        assert population.is_true_miner("not-a-streamed-name.net") is False

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            indexed_domain(RngStream(1, "t"), -1, "com")


class _LegacySeenSetGenerator:
    """The historical probe-a-seen-set uniqueness scheme, verbatim."""

    def __init__(self) -> None:
        self._used: set = set()

    def unique(self, base: str, tld: str) -> str:
        candidate = f"{base}.{tld}"
        serial = 1
        while candidate in self._used:
            serial += 1
            candidate = f"{base}{serial}.{tld}"
        self._used.add(candidate)
        return candidate


def _legacy_draw(rng, legacy, tld, classified_fraction=0.7):
    """Replay :meth:`DomainGenerator.draw`'s rng tape through the legacy
    seen-set probe (same base construction, historical uniqueness)."""
    from repro.internet.domains import _categorized_base, _draw_category, _opaque_base

    if rng.random() >= classified_fraction:
        return legacy.unique(_opaque_base(rng), tld), None
    category_name = _draw_category(rng, None)
    return legacy.unique(_categorized_base(rng, category_name), tld), category_name


class TestDomainGeneratorCounters:
    """Satellite 1: the per-base serial counters must reproduce the old
    seen-set sequence exactly while holding O(#bases) state."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), draws=st.integers(1, 400))
    def test_sequence_matches_legacy_seen_set(self, seed, draws):
        generator = DomainGenerator(rng=RngStream(seed, "names"))
        twin_rng = RngStream(seed, "names")
        legacy = _LegacySeenSetGenerator()
        for _ in range(draws):
            assert generator.draw("com") == _legacy_draw(twin_rng, legacy, "com")

    def test_digit_ending_fragment_aliasing_matches_legacy(self):
        """'cam4'-style bases spell the same string as another base's
        serial; both schemes must resolve the clash identically."""
        generator = DomainGenerator(rng=RngStream(0, "unused"))
        legacy = _LegacySeenSetGenerator()
        script = [("ulmcam", "com")] * 4 + [("ulmcam4", "com"), ("ulmcam4", "com"), ("ulmcam", "com")]
        new_names = [generator._unique(base, tld) for base, tld in script]
        old_names = [legacy.unique(base, tld) for base, tld in script]
        assert new_names == old_names
        assert len(set(new_names)) == len(new_names)

    def test_state_is_bounded_by_distinct_bases(self):
        generator = DomainGenerator(rng=RngStream(11, "names"))
        domains = [generator.draw("net")[0] for _ in range(3000)]
        assert len(set(domains)) == 3000  # still collision-free
        assert len(generator._base_counts) <= 3000
        # heavy reuse: the counter map stays far below one entry per name
        assert len(generator._base_counts) < len(domains)

    def test_same_base_different_tlds_stay_independent(self):
        generator = DomainGenerator(rng=RngStream(0, "x"))
        assert generator._unique("alpha", "com") == "alpha.com"
        assert generator._unique("alpha", "net") == "alpha.net"  # no serial
        assert generator._unique("alpha", "com") == "alpha2.com"


class TestStrata:
    def test_default_strata_tile_from_rank_one(self):
        for name in DATASET_NAMES:
            strata = default_strata(DATASETS[name])
            assert strata[0].lo == 1
            for left, right in zip(strata, strata[1:]):
                assert right.lo == left.hi + 1
            assert strata[-1].hi is None

    def test_stratum_sizes_clip_to_population(self):
        population = _make("com", 1, 2500)
        assert population.stratum_sizes() == {
            "top1k": 1000, "top10k": 1500, "top100k": 0, "top1m": 0, "tail": 0,
        }

    def test_every_site_labelled_with_its_rank_stratum(self):
        population = _make("alexa", 4, 40, "top:10:0.4,mid:25:0.2,tail:-:0.1")
        for index, site in enumerate(population.iter_sites()):
            assert site.rank == index + 1
            if index < 10:
                assert site.stratum == "top"
            elif index < 25:
                assert site.stratum == "mid"
            else:
                assert site.stratum == "tail"

    def test_parse_rejects_malformed_specs(self):
        spec = DATASETS["com"]
        with pytest.raises(ValueError):
            parse_strata("", spec)
        with pytest.raises(ValueError):
            parse_strata("a:10", spec)
        with pytest.raises(ValueError):
            parse_strata("a:-:0.1,b:20:0.1", spec)  # unbounded not last
        with pytest.raises(ValueError):
            parse_strata("a:20:0.1,b:10:0.1", spec)  # ends before it starts

    def test_validation_rejects_gapped_or_oversignalled_strata(self):
        gapped = (
            RankStratum(name="a", lo=1, hi=10),
            RankStratum(name="b", lo=20, hi=None),
        )
        with pytest.raises(ValueError):
            StreamingPopulation("com", size=30, strata=gapped)
        hot = (RankStratum(name="a", lo=1, hi=None, role_rates=(("miner", 1.5),)),)
        with pytest.raises(ValueError):
            StreamingPopulation("com", size=30, strata=hot)

    def test_base_rates_reflect_paper_composition(self):
        rates = dict(base_role_rates(DATASETS["alexa"]))
        assert "miner" in rates and rates["miner"] > 0
        assert "listed-tag" not in rates  # chrome dataset: miners, not tags
        zone = dict(base_role_rates(DATASETS["com"]))
        assert "listed-tag" in zone and "miner" not in zone


class TestSampling:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), size=st.integers(1, 400), k=st.integers(1, 20))
    def test_sample_is_sorted_in_bounds_and_stratified(self, seed, size, k):
        text = "top:20:0.3,tail:-:0.1"
        population = _make("net", seed, size, text, sample=k)
        indices = population.sample_indices()
        assert indices == sorted(indices)
        assert len(indices) == len(set(indices))
        for stratum in population.strata:
            within = [i for i in indices if stratum.contains(i + 1)]
            assert len(within) == min(k, stratum.size_within(size))

    def test_sample_independent_of_other_strata(self):
        """A stratum's sample comes from its own substream: reshaping the
        strata above/below it must not move its chosen ranks."""
        a = _make("com", 7, 1000, "top:100:0.3,tail:-:0.1", sample=10)
        b = _make("com", 7, 1000, "x:50:0.2,y:100:0.3,tail:-:0.1", sample=10)
        tail_a = [i for i in a.sample_indices() if i >= 100]
        tail_b = [i for i in b.sample_indices() if i >= 100]
        assert tail_a == tail_b

    def test_zero_sample_means_full_scan(self):
        population = _make("com", 1, 25)
        assert list(population.scan_indices()) == list(range(25))


class TestLazySequence:
    def test_slicing_and_negative_indexing(self):
        population = _make("org", 2, 30)
        assert [s.domain for s in population.sites[5:8]] == [
            population.site(i).domain for i in (5, 6, 7)
        ]
        assert population.sites[-1].domain == population.site(29).domain

    def test_cache_eviction_keeps_results_identical(self):
        big = _make("org", 2, 200)
        tiny = StreamingPopulation("org", seed=2, size=200, site_cache=2, web_cache=1)
        for index in (0, 150, 3, 150, 0, 199):
            assert _site_key(big.sites[index]) == _site_key(tiny.sites[index])
        # web-plane eviction: revisit a long-evicted site's page
        first = tiny.web.fetch(f"http://www.{tiny.site(0).domain}/")
        for index in range(1, 50):
            tiny.web.fetch(f"http://www.{tiny.site(index).domain}/")
        again = tiny.web.fetch(f"http://www.{tiny.site(0).domain}/")
        assert (first.status, first.body) == (again.status, again.body)

    def test_out_of_range_raises(self):
        population = _make("org", 2, 4)
        with pytest.raises(IndexError):
            population.site(4)
        with pytest.raises(IndexError):
            population.site(-1)


class TestCheckpointIdentity:
    def test_range_identity_is_o1_and_seed_sensitive(self):
        a = _make("com", 1, 1000)
        b = _make("com", 2, 1000)
        indices = range(0, 500)
        assert a.checkpoint_identity(indices) != b.checkpoint_identity(indices)
        assert a.checkpoint_identity(indices) == _make("com", 1, 1000).checkpoint_identity(indices)
        assert a.checkpoint_identity(range(0, 500)) != a.checkpoint_identity(range(500, 1000))

    def test_sampled_list_identity_round_trips(self):
        population = _make("com", 3, 1000, sample=5)
        shard = population.shard_plan(2)[0]
        assert population.checkpoint_identity(shard) == population.checkpoint_identity(list(shard))


class TestLegacyPopulationUntouched:
    def test_built_sites_carry_no_stratum(self):
        population = build_population("alexa", seed=42, scale=0.02)
        for site in population.sites:
            assert site.stratum == ""
            assert site.rank == 0


def test_both_generators_satisfy_the_population_protocol():
    """Campaigns read populations through ``Population``; both generators
    declare every member of it."""
    built = build_population("alexa", seed=42, scale=0.02)
    streamed = _make("com", 3, 1000)
    assert isinstance(built, Population) and isinstance(streamed, Population)
    assert built.strata == () and built.stratum_sizes() == {}
    assert streamed.strata and sum(streamed.stratum_sizes().values()) == 1000
