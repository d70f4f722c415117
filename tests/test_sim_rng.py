"""Tests for seeded random streams."""

import pytest
from hypothesis import example, given, strategies as st

from repro.sim.rng import RngStream, derive_seed
from tests.oracles import rng as rng_oracle


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")

    def test_differs_by_name(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_differs_by_root(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_name_path_not_collapsible(self):
        # ("ab",) and ("a", "b") must not collide
        assert derive_seed(0, "ab") != derive_seed(0, "a", "b")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_always_64_bit(self, root, name):
        seed = derive_seed(root, name)
        assert 0 <= seed < 2**64

    @example(root=2018, names=())
    @example(root=0, names=("", ""))
    @example(root=2018, names=("includer", "com", "näive-12.com", "metrics"))
    @given(
        root=st.integers(min_value=-(2**70), max_value=2**70),
        names=st.lists(
            st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
            max_size=6,
        ).map(tuple),
    )
    def test_matches_the_name_by_name_oracle(self, root, names):
        assert derive_seed(root, *names) == rng_oracle.derive_seed(root, *names)


class TestRngStream:
    def test_same_stream_same_sequence(self):
        a = RngStream(7, "x")
        b = RngStream(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_substream_independent_of_parent_consumption(self):
        parent1 = RngStream(7, "x")
        parent2 = RngStream(7, "x")
        parent2.random()  # consume from one parent only
        assert parent1.substream("child").random() == parent2.substream("child").random()

    def test_randbytes_length(self):
        assert len(RngStream(1).randbytes(33)) == 33

    @example(root=2018, sizes=[0, 1, 5, 32, 33])
    @given(
        root=st.integers(min_value=0, max_value=2**62),
        sizes=st.lists(st.integers(min_value=-3, max_value=300), max_size=8),
    )
    def test_randbytes_matches_oracle_and_leaves_the_same_state(self, root, sizes):
        fast, slow = RngStream(root, "bytes"), RngStream(root, "bytes")
        for n in sizes:
            assert fast.randbytes(n) == rng_oracle.randbytes(slow, n)
            assert fast.getrandbits(7) == slow.getrandbits(7)
        assert fast.random() == slow.random()

    def test_choices_respects_weights(self):
        rng = RngStream(3, "w")
        picks = rng.choices(["a", "b"], [0.999, 0.001], k=500)
        assert picks.count("a") > 450

    def test_zipf_weights_normalized(self):
        weights = RngStream(1).zipf_rank_weights(100, 1.3)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert weights == sorted(weights, reverse=True)

    def test_zipf_weights_reject_bad_n(self):
        with pytest.raises(ValueError):
            RngStream(1).zipf_rank_weights(0, 1.0)

    def test_bounded_pareto_within_bounds(self):
        rng = RngStream(5, "p")
        for _ in range(200):
            value = rng.bounded_pareto(1.2, 10.0, 1000.0)
            assert 10.0 <= value <= 1000.0 + 1e-6

    def test_bounded_pareto_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            RngStream(1).bounded_pareto(1.0, 10.0, 5.0)

    def test_exponential_interarrivals_within_horizon(self):
        rng = RngStream(9, "e")
        times = list(rng.exponential_interarrivals(rate=1.0, horizon=50.0))
        assert all(0 < t < 50.0 for t in times)
        assert times == sorted(times)

    def test_exponential_interarrivals_zero_rate(self):
        assert list(RngStream(1).exponential_interarrivals(0.0, 10.0)) == []

    def test_interarrival_rate_roughly_matches(self):
        rng = RngStream(11, "rate")
        times = list(rng.exponential_interarrivals(rate=2.0, horizon=1000.0))
        assert 1800 < len(times) < 2200
