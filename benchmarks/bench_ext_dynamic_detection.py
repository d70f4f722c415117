"""Extension — static vs dynamic instruction-mix detection.

The paper's feature classifier counts instructions *statically*. This
bench quantifies its robustness against dead-code padding (an evasion any
miner author could ship) and compares it with the interpreter-backed
dynamic detector of :mod:`repro.core.dynamic` on three corpora:

- clean miners (names stripped, unknown signatures),
- the same miners padded with never-executed float-heavy functions,
- benign modules (as the false-positive control).
"""

from __future__ import annotations

from conftest import emit
from repro.analysis.reporting import render_table
from repro.core.classifier import MinerClassifier
from repro.core.dynamic import DynamicMinerDetector
from repro.core.signatures import SignatureDatabase
from repro.wasm.builder import BENIGN_FAMILIES, MINER_FAMILIES, ModuleBlueprint, WasmCorpusBuilder
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.obfuscate import pad_dead_code


def _strip(data: bytes) -> bytes:
    module = decode_module(data)
    module.func_names = {}
    module.module_name = None
    module.exports = [
        type(e)("f%d" % i, e.kind, e.index) for i, e in enumerate(module.exports)
    ]
    return encode_module(module)


def test_ext_dynamic_detection(benchmark):
    builder = WasmCorpusBuilder(root_seed=777)  # unknown to any signature DB
    miners = [
        _strip(builder.build(ModuleBlueprint(family, v)))
        for family in MINER_FAMILIES
        for v in range(2)
    ]
    padded = [pad_dead_code(m) for m in miners]
    benign = [
        builder.build(ModuleBlueprint(family, v))
        for family in BENIGN_FAMILIES
        for v in range(2)
    ]

    static = MinerClassifier(database=SignatureDatabase())
    dynamic = DynamicMinerDetector()

    def run():
        def static_hits(mods):
            return sum(1 for m in mods if static.classify_wasm(m).is_miner)

        def dynamic_hits(mods):
            return sum(1 for m in mods if dynamic.is_miner(m))

        return {
            "clean miners": (static_hits(miners), dynamic_hits(miners), len(miners)),
            "padded miners": (static_hits(padded), dynamic_hits(padded), len(padded)),
            "benign": (static_hits(benign), dynamic_hits(benign), len(benign)),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        [corpus, f"{s}/{n}", f"{d}/{n}"]
        for corpus, (s, d, n) in results.items()
    ]
    emit(
        "ext_dynamic_detection",
        render_table(
            ["corpus", "static mix detector", "dynamic (executed) detector"],
            rows,
            title="Extension: dead-code padding vs static/dynamic detection",
        ),
    )

    clean_s, clean_d, n_miners = results["clean miners"]
    padded_s, padded_d, _ = results["padded miners"]
    benign_s, benign_d, _ = results["benign"]
    assert clean_d >= clean_s                   # dynamic at least as good when clean
    assert padded_s < n_miners * 0.5            # padding defeats the static mix
    assert padded_d >= n_miners * 0.9           # …but not the dynamic detector
    assert benign_s == 0 and benign_d == 0      # no false positives either way
