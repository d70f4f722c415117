"""Tests for the execution-based detector extension."""

import pytest

from repro.core.classifier import MinerClassifier
from repro.core.dynamic import (
    DynamicMinerDetector,
    pad_with_dead_code,
    profile_execution,
)
from repro.core.features import extract_features
from repro.core.signatures import SignatureDatabase
from repro.wasm.builder import ModuleBlueprint
from repro.wasm.encoder import encode_module
from repro.wasm.types import CodeEntry, Export, FuncType, Instr, Module, ValType

pytestmark = pytest.mark.filterwarnings("ignore")


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
        [
            [Instr("local.get", (0,)), Instr("call", (99,)), Instr("end")],
            [Instr("i32.add"), Instr("drop"), Instr("end")],
        ],
        ids=["call-out-of-range", "stack-underflow"],
    )
    def test_invalid_code_is_a_decision_not_an_exception(self, body):
        module = Module()
        module.types = [FuncType((ValType.I32,), ())]
        module.func_type_indices = [0]
        module.exports = [Export("f", 0, 0)]
        module.codes = [CodeEntry(body=body)]
        verdict, decision = DynamicMinerDetector().explain(encode_module(module))
        assert verdict is False
        assert decision.is_miner is False
        assert decision.error == "InvalidCode"
        assert decision.checks == ()


class TestDeadCodePadding:
    def test_padding_preserves_decode_and_execution(self, coinhive_wasm):
        padded = pad_with_dead_code(coinhive_wasm)
        profile = profile_execution(padded)
        original = profile_execution(coinhive_wasm)
        # executed behaviour identical: dead functions never run
        assert profile.executed == original.executed
        assert profile.float_density == original.float_density

    def test_padding_inflates_static_float_counts(self, coinhive_wasm):
        padded = pad_with_dead_code(coinhive_wasm)
        static = extract_features(padded)
        assert static.float_density > 0.3  # statically it looks like a codec

    def test_static_classifier_fooled_dynamic_not(self, coinhive_wasm):
        """The headline property: padding defeats the static instruction-mix
        cascade (unknown signature, stripped names) but not the dynamic one."""
        padded = pad_with_dead_code(coinhive_wasm)
        # strip names so the static cascade must rely on instruction mix
        from repro.wasm.decoder import decode_module
        from repro.wasm.encoder import encode_module

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
