"""Tests for signatures, features, and the classifier cascade."""

import pytest

from repro.core.classifier import Classification, MinerClassifier
from repro.core.features import extract_features
from repro.core.signatures import (
    SignatureDatabase,
    SignatureRecord,
    build_reference_database,
    unordered_signature,
    wasm_signature,
    whole_module_signature,
)
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder, all_blueprints
from repro.wasm.decoder import WasmDecodeError, decode_module
from repro.wasm.encoder import encode_module


class TestSignature:
    def test_deterministic(self, coinhive_wasm):
        assert wasm_signature(coinhive_wasm) == wasm_signature(coinhive_wasm)

    def test_hex_sha256(self, coinhive_wasm):
        signature = wasm_signature(coinhive_wasm)
        assert len(signature) == 64
        int(signature, 16)

    def test_signature_ignores_name_section(self, coinhive_wasm):
        """Identical code with stripped names keeps the signature — the
        whole point of hashing function bodies instead of the module."""
        module = decode_module(coinhive_wasm)
        module.func_names = {}
        module.module_name = None
        stripped = encode_module(module)
        assert stripped != coinhive_wasm
        assert wasm_signature(stripped) == wasm_signature(coinhive_wasm)
        assert whole_module_signature(stripped) != whole_module_signature(coinhive_wasm)

    def test_signature_is_order_sensitive(self, corpus):
        """The paper's 'strict order' combination."""
        module = decode_module(corpus.build(ModuleBlueprint("coinhive", 1)))
        module.codes = list(reversed(module.codes))
        module.func_type_indices = list(reversed(module.func_type_indices))
        reordered = encode_module(module)
        original = corpus.build(ModuleBlueprint("coinhive", 1))
        assert wasm_signature(reordered) != wasm_signature(original)
        # the unordered ablation variant is reorder-invariant
        assert unordered_signature(reordered) == unordered_signature(original)

    def test_non_wasm_raises(self):
        with pytest.raises(WasmDecodeError):
            wasm_signature(b"not wasm at all")


class TestDatabase:
    def test_reference_database_covers_corpus(self, signature_db, corpus):
        assert len(signature_db) == len(all_blueprints())
        for blueprint in all_blueprints()[:20]:
            record = signature_db.lookup(corpus.build(blueprint))
            assert record is not None
            assert record.family == blueprint.family

    def test_lookup_unknown_returns_none(self, signature_db):
        other = WasmCorpusBuilder(root_seed=999)
        assert signature_db.lookup(other.build(ModuleBlueprint("coinhive", 0))) is None

    def test_lookup_garbage_returns_none(self, signature_db):
        assert signature_db.lookup(b"garbage") is None

    def test_collision_detection(self):
        database = SignatureDatabase()
        database.add(SignatureRecord("s1", "coinhive", True))
        with pytest.raises(ValueError, match="collision"):
            database.add(SignatureRecord("s1", "cryptoloot", True))

    def test_idempotent_same_family(self):
        database = SignatureDatabase()
        database.add(SignatureRecord("s1", "coinhive", True))
        database.add(SignatureRecord("s1", "coinhive", True, variant=1))
        assert len(database) == 1

    def test_json_roundtrip(self, signature_db):
        restored = SignatureDatabase.from_json(signature_db.to_json())
        assert len(restored) == len(signature_db)
        assert restored.miner_signatures() == signature_db.miner_signatures()

    def test_families(self, signature_db):
        families = signature_db.families()
        assert "coinhive" in families
        assert "math-lib" in families


class TestFeatures:
    def test_name_hints_found(self, coinhive_wasm):
        features = extract_features(coinhive_wasm)
        assert features.has_hash_names()
        assert any("cryptonight" in h.lower() for h in features.name_hints)

    def test_no_hints_on_benign(self, benign_wasm):
        features = extract_features(benign_wasm)
        assert not features.has_hash_names()

    def test_counts_are_consistent(self, coinhive_wasm):
        features = extract_features(coinhive_wasm)
        assert features.total_instructions > 0
        for count in (features.xor_count, features.shift_count, features.load_count):
            assert 0 <= count <= features.total_instructions

    def test_accepts_module_object(self, coinhive_wasm):
        module = decode_module(coinhive_wasm)
        assert extract_features(module).total_instructions == extract_features(coinhive_wasm).total_instructions

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            extract_features(42)

    def test_densities_zero_for_empty(self):
        from repro.core.features import WasmFeatures

        empty = WasmFeatures(0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
        assert empty.xor_density == 0.0
        assert empty.bitop_density == 0.0


class TestClassifier:
    @pytest.fixture()
    def classifier(self, signature_db):
        return MinerClassifier(database=signature_db)

    def test_known_miner_by_signature(self, classifier, coinhive_wasm):
        result = classifier.classify_wasm(coinhive_wasm)
        assert result.is_miner
        assert result.family == "coinhive"
        assert result.method == "signature"
        assert result.confidence == 1.0

    def test_known_benign_by_signature(self, classifier, benign_wasm):
        result = classifier.classify_wasm(benign_wasm)
        assert not result.is_miner

    def test_unknown_variant_by_name_hint(self, signature_db):
        """A new build (different seed) of a known concept: signature
        misses, names still give it away."""
        classifier = MinerClassifier(database=signature_db)
        novel = WasmCorpusBuilder(root_seed=4242).build(ModuleBlueprint("coinhive", 0))
        result = classifier.classify_wasm(novel)
        assert result.is_miner
        assert result.method == "name-hint"

    def test_stripped_unknown_by_instruction_mix(self, signature_db):
        classifier = MinerClassifier(database=signature_db)
        novel = WasmCorpusBuilder(root_seed=4242).build(ModuleBlueprint("notgiven688", 3))
        result = classifier.classify_wasm(novel)
        assert result.is_miner
        assert result.method in ("instruction-mix", "backend")

    def test_backend_resolves_family(self, signature_db):
        classifier = MinerClassifier(database=signature_db)
        novel = WasmCorpusBuilder(root_seed=4242).build(ModuleBlueprint("notgiven688", 3))
        result = classifier.classify_wasm(
            novel, websocket_urls=("wss://notgiven688.webminepool.com/ws1",)
        )
        assert result.family == "notgiven688"

    def test_unknown_backend_becomes_unknown_wss(self, signature_db):
        classifier = MinerClassifier(database=signature_db)
        novel = WasmCorpusBuilder(root_seed=4242).build(ModuleBlueprint("unknown-wss", 3))
        result = classifier.classify_wasm(
            novel, websocket_urls=("wss://3.unknown-pool.net/ws",)
        )
        assert result.is_miner
        assert result.family == "unknown-wss"

    def test_unknown_benign_stays_benign(self, signature_db):
        classifier = MinerClassifier(database=signature_db)
        novel = WasmCorpusBuilder(root_seed=4242).build(ModuleBlueprint("game-engine", 2))
        result = classifier.classify_wasm(novel)
        assert not result.is_miner

    def test_compression_hard_negative(self, signature_db):
        classifier = MinerClassifier(database=signature_db)
        novel = WasmCorpusBuilder(root_seed=4242).build(ModuleBlueprint("compression", 1))
        assert not classifier.classify_wasm(novel).is_miner

    def test_invalid_bytes(self, classifier):
        result = classifier.classify_wasm(b"\x00asm\x01\x00\x00\x00garbage!!")
        assert not result.is_miner
        assert result.family == "invalid"

    def test_page_is_miner_picks_miner_among_dumps(self, classifier, coinhive_wasm, benign_wasm):
        result = classifier.page_decision([benign_wasm, coinhive_wasm])
        assert result is not None and result.is_miner and result.family == "coinhive"

    def test_page_without_miners(self, classifier, benign_wasm):
        # a clean page is decided by its first dump's benign classification
        result = classifier.page_decision([benign_wasm])
        assert result is not None and not result.is_miner
        assert classifier.page_decision([]) is None

    def test_corpus_wide_accuracy(self, signature_db, corpus):
        """Every corpus module classifies to its ground truth via signature."""
        classifier = MinerClassifier(database=signature_db)
        for blueprint in all_blueprints():
            result = classifier.classify_wasm(corpus.build(blueprint))
            assert result.is_miner == blueprint.profile().is_miner, blueprint.label

    def test_novel_corpus_accuracy_without_signatures(self, corpus):
        """With an EMPTY database the cascade alone must separate the
        corpus almost perfectly — the paper's 'beyond block lists' claim."""
        classifier = MinerClassifier(database=SignatureDatabase())
        wrong = []
        blueprints = all_blueprints()
        for blueprint in blueprints:
            profile = blueprint.profile()
            urls = (profile.backend % 1,) if (profile.is_miner and profile.backend) else ()
            result = classifier.classify_wasm(corpus.build(blueprint), websocket_urls=urls)
            if result.is_miner != profile.is_miner:
                wrong.append(blueprint.label)
        assert len(wrong) <= len(blueprints) * 0.03, wrong
