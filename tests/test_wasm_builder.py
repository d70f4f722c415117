"""Tests for the synthetic Wasm corpus."""

from collections import Counter

import pytest

from repro.core.features import extract_features
from repro.core.signatures import build_reference_database
from repro.wasm.builder import (
    BENIGN_FAMILIES,
    FAMILY_PROFILES,
    MINER_FAMILIES,
    ModuleBlueprint,
    WasmCorpusBuilder,
    all_blueprints,
)
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.validator import validate_module


class TestCorpusShape:
    def test_corpus_size_matches_paper_scale(self):
        # the paper catalogued ~160 distinct assemblies
        assert 150 <= len(all_blueprints()) <= 220

    def test_both_kinds_present(self):
        assert len(MINER_FAMILIES) >= 8
        assert len(BENIGN_FAMILIES) >= 4

    def test_coinhive_has_most_variants(self):
        counts = {name: profile.num_variants for name, profile in FAMILY_PROFILES.items()}
        assert max(counts, key=counts.get) == "coinhive"


class TestDeterminism:
    def test_same_blueprint_same_bytes(self):
        a = WasmCorpusBuilder().build(ModuleBlueprint("coinhive", 3))
        b = WasmCorpusBuilder().build(ModuleBlueprint("coinhive", 3))
        assert a == b

    def test_different_variants_differ(self):
        builder = WasmCorpusBuilder()
        assert builder.build(ModuleBlueprint("coinhive", 0)) != builder.build(
            ModuleBlueprint("coinhive", 1)
        )

    def test_cache_returns_same_object(self):
        builder = WasmCorpusBuilder()
        blueprint = ModuleBlueprint("cryptoloot", 2)
        assert builder.build(blueprint) is builder.build(blueprint)

    def test_different_seed_different_bytes(self):
        a = WasmCorpusBuilder(root_seed=1).build(ModuleBlueprint("coinhive", 0))
        b = WasmCorpusBuilder(root_seed=2).build(ModuleBlueprint("coinhive", 0))
        assert a != b


class TestProcessMemo:
    """Encoded modules are built once per ``(root_seed, blueprint)`` per
    process and shared by every builder."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        build_module = WasmCorpusBuilder.build_module

        def counted(self, blueprint):
            calls.append((self.root_seed, blueprint))
            return build_module(self, blueprint)

        monkeypatch.setattr(WasmCorpusBuilder, "build_module", counted)
        return calls

    def test_builders_with_one_seed_share_one_build(self, built):
        blueprint = ModuleBlueprint("coinhive", 1)
        first = WasmCorpusBuilder(root_seed=770_001).build(blueprint)
        second = WasmCorpusBuilder(root_seed=770_001).build(blueprint)
        assert second is first
        assert built == [(770_001, blueprint)]
        assert first == encode_module(WasmCorpusBuilder(root_seed=770_001).build_module(blueprint))

    def test_seeds_do_not_share_builds(self, built):
        blueprint = ModuleBlueprint("coinhive", 1)
        a = WasmCorpusBuilder(root_seed=770_002).build(blueprint)
        b = WasmCorpusBuilder(root_seed=770_003).build(blueprint)
        assert a != b
        assert built == [(770_002, blueprint), (770_003, blueprint)]

    def test_reference_database_builds_each_blueprint_at_most_once(self, built):
        first = build_reference_database()
        second = build_reference_database(WasmCorpusBuilder())
        assert first.to_json() == second.to_json()
        assert max(Counter(built).values(), default=0) <= 1
        assert build_reference_database().to_json() == first.to_json()
        assert max(Counter(built).values(), default=0) <= 1


class TestStructure:
    @pytest.fixture(scope="class")
    def builder(self):
        return WasmCorpusBuilder()

    def test_all_modules_validate(self, builder):
        for blueprint in all_blueprints():
            module = decode_module(builder.build(blueprint))
            validate_module(module)

    def test_miner_memory_is_scratchpad_sized(self, builder):
        module = decode_module(builder.build(ModuleBlueprint("coinhive", 0)))
        assert module.memories[0].minimum >= 32  # ≥2 MiB of pages

    def test_benign_math_memory_small(self, builder):
        module = decode_module(builder.build(ModuleBlueprint("math-lib", 0)))
        assert module.memories[0].minimum < 16

    def test_miner_exports_present(self, builder):
        module = decode_module(builder.build(ModuleBlueprint("coinhive", 0)))
        assert "_cryptonight_hash" in module.exported_func_names()

    def test_stripped_family_has_no_name_section(self, builder):
        module = decode_module(builder.build(ModuleBlueprint("notgiven688", 0)))
        assert module.func_names == {}


class TestFeatureSeparation:
    """The corpus must separate along the paper's features."""

    @pytest.fixture(scope="class")
    def builder(self):
        return WasmCorpusBuilder()

    def test_miners_are_bitop_dense(self, builder):
        for family in MINER_FAMILIES:
            features = extract_features(builder.build(ModuleBlueprint(family, 0)))
            assert features.bitop_density > 0.09, family
            assert features.rotate_count >= 4, family

    def test_benign_float_families_are_not(self, builder):
        for family in ("game-engine", "math-lib"):
            features = extract_features(builder.build(ModuleBlueprint(family, 0)))
            assert features.bitop_density < 0.06, family
            assert features.float_density > 0.1, family

    def test_compression_is_a_hard_negative_but_separable(self, builder):
        """zlib-style code has xor/shift but no big memory and few rotates."""
        variants = [
            extract_features(builder.build(ModuleBlueprint("compression", v)))
            for v in range(4)
        ]
        avg_xor = sum(f.xor_density for f in variants) / len(variants)
        assert avg_xor > 0.015                                # real bit traffic (CRC32)…
        assert all(f.rotate_count == 0 for f in variants)     # …but no rotates
        assert all(f.memory_pages < 16 for f in variants)     # and no 2 MB scratchpad

    def test_miners_have_integer_only_kernels(self, builder):
        for family in MINER_FAMILIES:
            features = extract_features(builder.build(ModuleBlueprint(family, 1)))
            assert features.float_density < 0.02, family
