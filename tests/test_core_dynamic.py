"""Tests for the execution-based detector extension."""

import time
import tracemalloc
from unittest import mock

import pytest

from repro.core import dynamic, fastpath
from repro.core.classifier import MinerClassifier
from repro.core.dynamic import DynamicMinerDetector, profile_execution
from repro.core.features import extract_features
from repro.core.signatures import SignatureDatabase
from repro.wasm.builder import ModuleBlueprint, all_blueprints
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.interp import MAX_LOCALS, MAX_PAGES
from repro.wasm.obfuscate import pad_dead_code
from repro.wasm.types import CodeEntry, Export, FuncType, Instr, Limits, Module, ValType

pytestmark = pytest.mark.filterwarnings("ignore")

#: a body that decodes but calls a function that does not exist
CALL_OUT_OF_RANGE = [Instr("local.get", (0,)), Instr("call", (99,)), Instr("end")]


def one_function_module(body, locals_=(), pages=None) -> bytes:
    """A module exporting one ``(i32) -> ()`` function with ``body``, its
    declared ``locals_`` and, with ``pages``, a memory of that minimum."""
    module = Module()
    module.types = [FuncType((ValType.I32,), ())]
    module.func_type_indices = [0]
    module.exports = [Export("f", 0, 0)]
    module.codes = [CodeEntry(locals_=list(locals_), body=body)]
    if pages is not None:
        module.memories = [Limits(pages)]
    return encode_module(module)


#: hostile captures: a 37-byte module declaring 4,000,000 locals, and one
#: whose memory asks for all 65,536 pages (4 GiB)
FOUR_MILLION_LOCALS = one_function_module([Instr("end")], locals_=[(4_000_000, ValType.I32)])
ALL_PAGES = one_function_module([Instr("end")], pages=65_536)


class TestProfileExecution:
    def test_miner_profile_is_bitop_heavy(self, coinhive_wasm):
        profile = profile_execution(coinhive_wasm)
        assert profile.completed
        assert profile.executed > 500
        assert profile.xor_density + profile.shift_density > 0.08
        assert profile.rotate_count >= 4
        assert profile.float_density < 0.02

    def test_benign_profile_is_float_heavy(self, corpus):
        profile = profile_execution(corpus.build(ModuleBlueprint("math-lib", 0)))
        assert profile.completed
        assert profile.float_density > 0.1

    def test_rejects_wrong_type(self):
        with pytest.raises(TypeError):
            profile_execution(12345)

    def test_executed_scales_with_iterations(self, coinhive_wasm):
        small = profile_execution(coinhive_wasm, iterations=4)
        large = profile_execution(coinhive_wasm, iterations=64)
        assert large.executed > small.executed


class TestDynamicDetector:
    def test_detects_corpus_miners(self, corpus):
        detector = DynamicMinerDetector()
        for family in ("coinhive", "cryptoloot", "notgiven688"):
            assert detector.is_miner(corpus.build(ModuleBlueprint(family, 0))), family

    def test_rejects_benign(self, corpus):
        detector = DynamicMinerDetector()
        for family in ("game-engine", "math-lib", "compression", "image-filter"):
            assert not detector.is_miner(corpus.build(ModuleBlueprint(family, 0))), family

    def test_rejects_garbage(self):
        assert not DynamicMinerDetector().is_miner(b"not wasm")

    @pytest.mark.parametrize(
        "body",
        [CALL_OUT_OF_RANGE, [Instr("i32.add"), Instr("drop"), Instr("end")]],
        ids=["call-out-of-range", "stack-underflow"],
    )
    def test_invalid_code_is_a_decision_not_an_exception(self, body):
        verdict, decision = DynamicMinerDetector().explain(one_function_module(body))
        assert verdict is False
        assert decision.is_miner is False
        assert decision.error == "InvalidCode"
        assert decision.checks == ()


class TestResourceCaps:
    """A capture cannot choose how much the dynamic layer allocates."""

    @pytest.mark.parametrize(
        "wasm", [FOUR_MILLION_LOCALS, ALL_PAGES], ids=["locals", "pages"]
    )
    def test_over_a_cap_is_a_quick_small_error_decision(self, wasm, fresh_cache):
        tracemalloc.start()
        try:
            began = time.perf_counter()
            verdict, decision = DynamicMinerDetector().explain(wasm)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (verdict, decision) == (False, dynamic.DynamicDecision(False, error="ResourceLimit"))
        assert elapsed < 0.05
        assert peak < 1 << 20

    def test_caps_sit_above_every_corpus_module(self, corpus):
        for blueprint in all_blueprints():
            module = corpus.build_module(blueprint)
            assert module.memories[0].minimum <= MAX_PAGES // 4
            for code in module.codes:
                assert sum(count for count, _ in code.locals_) <= MAX_LOCALS // 1000


@pytest.fixture()
def fresh_cache():
    """A fresh process-wide wasm cache for the test, and a clean one after."""
    yield fastpath.reset_shared_cache()
    fastpath.reset_shared_cache()


class TestProfileMemo:
    """The detector profiles bytes once per distinct content."""

    def test_one_profile_per_distinct_module(self, corpus, fresh_cache):
        modules = [corpus.build(ModuleBlueprint(f, 0)) for f in ("coinhive", "math-lib")]
        schedule = [modules[i % 2] for i in range(10)]
        detector = DynamicMinerDetector()
        with mock.patch.object(
            dynamic, "profile_execution", wraps=dynamic.profile_execution
        ) as profile:
            verdicts = [detector.is_miner(wasm) for wasm in schedule]
        assert profile.call_count == 2
        assert verdicts == [True, False] * 5

    def test_module_input_is_profiled_directly(self, coinhive_wasm, fresh_cache):
        module = decode_module(coinhive_wasm)
        assert DynamicMinerDetector().is_miner(module)
        assert len(fresh_cache) == 0

    def test_thresholds_apply_to_a_profile_cached_by_another_detector(
        self, coinhive_wasm, fresh_cache
    ):
        assert DynamicMinerDetector().is_miner(coinhive_wasm)  # caches the profile
        executed = fresh_cache.profile(coinhive_wasm).executed
        strict = DynamicMinerDetector(min_executed=executed + 1)
        verdict, decision = strict.explain(coinhive_wasm)
        assert verdict is False
        assert [check.name for check in decision.checks if not check.ok] == ["executed"]
        # the same decision as profiling a fresh decode, uncached
        assert strict.explain(decode_module(coinhive_wasm)) == (verdict, decision)

    @pytest.mark.parametrize(
        "wasm, error",
        [
            (one_function_module(CALL_OUT_OF_RANGE), "InvalidCode"),
            (b"\x00asm garbage", "WasmDecodeError"),
            (FOUR_MILLION_LOCALS, "ResourceLimit"),
        ],
        ids=["invalid-code", "undecodable", "over-a-cap"],
    )
    def test_a_cached_failure_gives_the_same_error_name(self, wasm, error, fresh_cache):
        detector = DynamicMinerDetector()
        first = detector.explain(wasm)
        second = detector.explain(wasm)
        assert first == second == (False, dynamic.DynamicDecision(False, error=error))
        assert fresh_cache.stats.hits > 0


class TestDeadCodePadding:
    def test_padding_preserves_decode_and_execution(self, coinhive_wasm):
        padded = pad_dead_code(coinhive_wasm)
        profile = profile_execution(padded)
        original = profile_execution(coinhive_wasm)
        # executed behaviour identical: dead functions never run
        assert profile.executed == original.executed
        assert profile.float_density == original.float_density

    def test_padding_inflates_static_float_counts(self, coinhive_wasm):
        padded = pad_dead_code(coinhive_wasm)
        static = extract_features(padded)
        assert static.float_density > 0.3  # statically it looks like a codec

    def test_static_classifier_fooled_dynamic_not(self, coinhive_wasm):
        """The headline property: padding defeats the static instruction-mix
        cascade (unknown signature, stripped names) but not the dynamic one."""
        padded = pad_dead_code(coinhive_wasm)
        # strip names so the static cascade must rely on instruction mix
        module = decode_module(padded)
        module.func_names = {}
        module.module_name = None
        module.exports = [e for e in module.exports if e.kind != 0 or not e.name.startswith("_crypto")] or module.exports
        stripped = encode_module(module)

        static = MinerClassifier(database=SignatureDatabase())
        dynamic = DynamicMinerDetector()
        static_verdict = static.classify_wasm(stripped)
        assert not static_verdict.is_miner          # fooled
        assert dynamic.is_miner(padded)             # not fooled
