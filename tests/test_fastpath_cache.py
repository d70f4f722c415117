"""Property tests for the fastpath wasm memo cache.

The cache is only allowed to change *when* work happens, never *what* the
answer is. Three laws are enforced here:

- **exactness** — every cached field equals the cold reference recompute
  (`wasm_signature`, `unordered_signature`, `whole_module_signature`,
  `decode_module`, `extract_features`, `profile_execution`), including
  cached *failures*, which re-raise with their class and message;
- **boundedness** — the LRU never exceeds its capacity under adversarial
  access patterns, and evicted entries are recomputed correctly;
- **mergeable accounting** — hit/miss/eviction tallies obey the same
  merge law as the obs :class:`~repro.obs.metrics.MetricsRegistry`
  (associative, commutative, counter-additive), so shard stats can be
  summed like any other campaign counter.

Thread-mode shards share one process-wide cache, so it must also survive
concurrent lookups and evictions without losing a tally.
"""

from __future__ import annotations

import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dynamic, fastpath
from repro.core.fastpath import DEFAULT_CACHE_CAPACITY, CacheStats, WasmCache
from repro.core.signatures import (
    unordered_signature,
    wasm_signature,
    whole_module_signature,
)
from repro.obs.metrics import MetricsRegistry
from repro.core.dynamic import profile_execution
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder, all_blueprints
from repro.wasm.decoder import WasmDecodeError, decode_module
from repro.wasm.interp import InvalidCode
from repro.core.features import extract_features
from repro.wasm.obfuscate import pad_dead_code
from tests.test_core_dynamic import CALL_OUT_OF_RANGE, one_function_module

_builder = WasmCorpusBuilder()
_CORPUS = tuple(
    _builder.build(ModuleBlueprint(family, variant))
    for family in ("coinhive", "cryptoloot", "math-lib")
    for variant in (0, 1)
)
_BAD_BLOBS = (b"", b"\x00asm", b"not wasm at all", b"\x00asm\x01\x00\x00\x00\xff")


def _stats_tuple(stats: CacheStats) -> tuple:
    return (stats.hits, stats.misses, stats.evictions)


class TestExactness:
    def test_signatures_equal_cold_recompute(self):
        cache = WasmCache()
        for wasm in _CORPUS:
            for _ in range(2):  # second pass exercises the hit path
                assert cache.ordered_signature(wasm) == wasm_signature(wasm)
                assert cache.unordered_signature(wasm) == unordered_signature(wasm)
                assert cache.whole_module_signature(wasm) == whole_module_signature(wasm)

    def test_module_and_features_equal_cold_recompute(self):
        cache = WasmCache()
        for wasm in _CORPUS:
            assert cache.module(wasm) == decode_module(wasm)
            assert cache.features(wasm) == extract_features(wasm)
            # hits return the same answers
            assert cache.module(wasm) == decode_module(wasm)
            assert cache.features(wasm) == extract_features(wasm)

    def test_negative_caching_re_raises_each_time(self):
        cache = WasmCache()
        for blob in _BAD_BLOBS:
            with pytest.raises(WasmDecodeError) as first:
                cache.module(blob)
            with pytest.raises(WasmDecodeError) as second:
                cache.module(blob)
            assert str(second.value) == str(first.value)
        # the second round of raises came from the cache, not re-decodes
        assert cache.stats.hits == len(_BAD_BLOBS)
        assert cache.stats.misses == len(_BAD_BLOBS)

    def test_failure_does_not_poison_other_fields(self):
        cache = WasmCache()
        wasm = _CORPUS[0]
        with pytest.raises(WasmDecodeError):
            cache.module(b"broken")
        assert cache.ordered_signature(wasm) == wasm_signature(wasm)


class TestProfileMemo:
    """``WasmCache.profile``: one execution profile per distinct module."""

    @settings(max_examples=40, deadline=None)
    @given(
        blueprint=st.sampled_from(all_blueprints()),
        padded=st.booleans(),
        repeats=st.integers(min_value=1, max_value=3),
    )
    def test_profile_equals_fresh_profile(self, blueprint, padded, repeats):
        wasm = _builder.build(blueprint)
        if padded:
            wasm = pad_dead_code(wasm)
        cache = WasmCache()
        expected = profile_execution(decode_module(wasm))
        for _ in range(repeats):
            assert cache.profile(wasm) == expected

    def test_profile_runs_once_per_distinct_content(self):
        schedule = [_CORPUS[i % 3] for i in range(12)] + [bytes(_CORPUS[0])]
        cache = WasmCache()
        runs = []
        original = dynamic.profile_execution

        def counting(module, *args, **kwargs):
            runs.append(module)
            return original(module, *args, **kwargs)

        with mock.patch.object(dynamic, "profile_execution", counting):
            profiles = [cache.profile(wasm) for wasm in schedule]
        assert len(runs) == 3
        # the profiled module is the one the classifier's decode cached
        assert runs[0] is cache.module(_CORPUS[0])
        assert profiles[0] == profiles[3] == profiles[-1]

    def test_profile_shares_the_cached_decode(self):
        cache = WasmCache()
        wasm = _CORPUS[0]
        with mock.patch.object(fastpath, "decode_module", wraps=decode_module) as decode:
            cache.features(wasm)
            cache.profile(wasm)
            cache.profile(wasm)
        assert decode.call_count == 1

    @pytest.mark.parametrize(
        "wasm, error",
        [
            (one_function_module(CALL_OUT_OF_RANGE), InvalidCode),
            (b"not wasm at all", WasmDecodeError),
        ],
        ids=["invalid-code", "undecodable"],
    )
    def test_failures_are_cached_by_class_and_message(self, wasm, error):
        cache = WasmCache()
        with pytest.raises(error) as first:
            cache.profile(wasm)
        misses = cache.stats.misses
        with pytest.raises(error) as second:
            cache.profile(wasm)
        assert type(second.value) is type(first.value)
        assert str(second.value) == str(first.value)
        assert second.value is not first.value  # a fresh instance each time
        assert cache.stats.misses == misses  # the second raise was a hit

    def test_two_threads_profiling_the_same_bytes_agree(self):
        cache = WasmCache()
        wasm = _CORPUS[0]
        results = [None, None]
        barrier = threading.Barrier(2)

        def worker(slot):
            barrier.wait()
            results[slot] = cache.profile(wasm)

        threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results[0] == results[1] == profile_execution(wasm)


class TestBoundedness:
    @settings(max_examples=150, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        accesses=st.lists(
            st.integers(min_value=0, max_value=len(_CORPUS) + len(_BAD_BLOBS) - 1),
            max_size=40,
        ),
    )
    def test_lru_never_exceeds_capacity(self, capacity, accesses):
        cache = WasmCache(capacity=capacity)
        blobs = _CORPUS + _BAD_BLOBS
        for index in accesses:
            wasm = blobs[index]
            try:
                got = cache.ordered_signature(wasm)
            except WasmDecodeError:
                assert index >= len(_CORPUS)
            else:
                assert got == wasm_signature(wasm)
            assert len(cache) <= capacity
        # one signature call touches one or two cached fields (the digest,
        # plus the bodies it derives from on a cold entry)
        assert len(accesses) <= cache.stats.hits + cache.stats.misses <= 2 * len(accesses)
        assert cache.stats.evictions >= max(0, len(set(accesses)) - capacity)

    def test_eviction_then_reaccess_recomputes_correctly(self):
        cache = WasmCache(capacity=2)
        a, b, c = _CORPUS[:3]
        first = cache.ordered_signature(a)
        cache.ordered_signature(b)
        cache.ordered_signature(c)  # evicts a (LRU)
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        misses_before = cache.stats.misses
        assert cache.ordered_signature(a) == first == wasm_signature(a)
        assert cache.stats.misses > misses_before  # re-access was a miss, not a hit

    def test_recently_used_entry_survives_eviction(self):
        cache = WasmCache(capacity=2)
        a, b, c = _CORPUS[:3]
        cache.ordered_signature(a)
        cache.ordered_signature(b)
        cache.ordered_signature(a)  # refresh a; b is now LRU
        cache.ordered_signature(c)  # evicts b
        hits_before = cache.stats.hits
        cache.ordered_signature(a)
        assert cache.stats.hits == hits_before + 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            WasmCache(capacity=0)
        with pytest.raises(ValueError):
            WasmCache(capacity=-3)


class TestThreadSafety:
    def test_concurrent_lookups_under_constant_eviction(self):
        # capacity 1 over six modules: nearly every lookup evicts, so an
        # unguarded LRU lets another thread evict a key between get() and
        # move_to_end() and the lookup dies with KeyError
        lookups = []  # list.append is atomic; one entry per cached-field access

        class CountingCache(WasmCache):
            def _field(self, wasm_bytes, name, compute):
                lookups.append(name)
                return super()._field(wasm_bytes, name, compute)

        cache = CountingCache(capacity=1)
        expected = {wasm: wasm_signature(wasm) for wasm in _CORPUS}
        errors = []

        def worker(offset):
            try:
                for i in range(3000):
                    wasm = _CORPUS[(offset + i) % len(_CORPUS)]
                    assert cache.ordered_signature(wasm) == expected[wasm]
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(previous)
        assert errors == []
        assert cache.stats.hits + cache.stats.misses == len(lookups)
        assert len(cache) == 1


_tallies = st.builds(
    CacheStats,
    hits=st.integers(min_value=0, max_value=10**6),
    misses=st.integers(min_value=0, max_value=10**6),
    evictions=st.integers(min_value=0, max_value=10**6),
)


class TestMergeLaw:
    @settings(max_examples=200, deadline=None)
    @given(a=_tallies, b=_tallies, c=_tallies)
    def test_merge_is_associative_and_commutative(self, a, b, c):
        left = CacheStats(*_stats_tuple(a)).merge(b).merge(c)
        right = CacheStats(*_stats_tuple(b)).merge(a)
        right = CacheStats(*_stats_tuple(c)).merge(right)
        assert _stats_tuple(left) == _stats_tuple(right)

    @settings(max_examples=200, deadline=None)
    @given(a=_tallies, b=_tallies)
    def test_merge_agrees_with_registry_merge(self, a, b):
        # merging stats then exporting == exporting then merging registries
        merged_stats = CacheStats(*_stats_tuple(a)).merge(b).as_registry()
        merged_registries = a.as_registry()
        merged_registries.merge(b.as_registry())
        assert merged_stats == merged_registries

    def test_as_registry_counter_names(self):
        registry = CacheStats(hits=3, misses=2, evictions=1).as_registry()
        assert isinstance(registry, MetricsRegistry)
        assert registry.to_dict()["counters"] == {
            "fastpath.cache.hits": 3,
            "fastpath.cache.misses": 2,
            "fastpath.cache.evictions": 1,
        }

    def test_live_shard_stats_sum_like_counters(self):
        shard_a, shard_b = WasmCache(capacity=2), WasmCache(capacity=2)
        for wasm in _CORPUS[:3]:
            shard_a.ordered_signature(wasm)
        for wasm in _CORPUS[2:5]:
            shard_b.ordered_signature(wasm)
            shard_b.ordered_signature(wasm)
        total = CacheStats().merge(shard_a.stats).merge(shard_b.stats)
        assert _stats_tuple(total) == (
            shard_a.stats.hits + shard_b.stats.hits,
            shard_a.stats.misses + shard_b.stats.misses,
            shard_a.stats.evictions + shard_b.stats.evictions,
        )


class TestSharedCache:
    def test_reset_replaces_and_resizes(self):
        original = fastpath.shared_cache()
        try:
            replacement = fastpath.reset_shared_cache(capacity=7)
            assert fastpath.shared_cache() is replacement
            assert replacement is not original
            assert len(replacement) == 0
        finally:
            fastpath.reset_shared_cache(DEFAULT_CACHE_CAPACITY)

    def test_shared_cache_backs_signature_lookup(self):
        fastpath.reset_shared_cache()
        try:
            from repro.core.signatures import build_reference_database

            db = build_reference_database()
            wasm = _CORPUS[0]
            hit = db.lookup(wasm)
            assert hit is not None and hit.family == "coinhive"
            assert fastpath.shared_cache().stats.misses > 0
            before = fastpath.shared_cache().stats.hits
            assert db.lookup(wasm) == hit
            assert fastpath.shared_cache().stats.hits > before
        finally:
            fastpath.reset_shared_cache()
