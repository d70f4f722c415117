#!/usr/bin/env python3
"""Running captured miner Wasm in the bundled interpreter.

Goes one step beyond the paper: instead of only *reading* a dumped module
(static signature + instruction counts), execute it and profile what the
code actually does — then show why that matters, by padding a miner with
dead float code that fools the static feature classifier but not the
dynamic one.

Run:  python examples/dynamic_analysis.py
"""

from repro.core.classifier import MinerClassifier
from repro.core.dynamic import DynamicMinerDetector, profile_execution
from repro.core.features import extract_features
from repro.core.signatures import SignatureDatabase
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.interp import Instance
from repro.wasm.obfuscate import pad_dead_code


def show(label: str, wasm: bytes) -> None:
    static = extract_features(wasm)
    dynamic = profile_execution(wasm)
    print(f"\n== {label} ==")
    print(f"  static : instrs={static.total_instructions:5d}  "
          f"bitop={static.bitop_density:.3f}  float={static.float_density:.3f}")
    print(f"  dynamic: executed={dynamic.executed:5d}  "
          f"bitop={dynamic.xor_density + dynamic.shift_density:.3f}  "
          f"float={dynamic.float_density:.3f}  rotates={dynamic.rotate_count}")
    static_clf = MinerClassifier(database=SignatureDatabase())  # no signature help
    dyn_clf = DynamicMinerDetector()
    print(f"  static instruction-mix verdict : "
          f"{'MINER' if static_clf.classify_wasm(wasm).is_miner else 'benign'}")
    print(f"  dynamic executed-mix verdict   : "
          f"{'MINER' if dyn_clf.is_miner(wasm) else 'benign'}")


def main() -> None:
    corpus = WasmCorpusBuilder(root_seed=31337)  # signatures unknown to any DB
    miner = corpus.build(ModuleBlueprint("coinhive", 0))

    # 1. run the mining kernels directly
    module = decode_module(miner)
    instance = Instance(module)
    for export in (e.name for e in module.exports if e.kind == 0):
        result = instance.invoke(export, 16, 7)
        print(f"invoked {export}(16, 7) -> {result[0]:#010x}")
    print(f"scratchpad bytes touched across kernels: "
          f"{sum(1 for b in instance.memory if b)}")

    # 2. strip the telltale names so only instruction mixes matter
    module.func_names = {}
    module.module_name = None
    module.exports = [type(e)(f"f{i}", e.kind, e.index) for i, e in enumerate(module.exports)]
    stripped = encode_module(module)
    show("stripped miner", stripped)

    # 3. the evasion: pad with float-heavy dead code
    padded = pad_dead_code(stripped, float_functions=8)
    show("stripped + dead-code padded miner", padded)

    # 4. control: a real codec module
    show("benign video codec", corpus.build(ModuleBlueprint("video-codec", 0)))


if __name__ == "__main__":
    main()
