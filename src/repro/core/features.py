"""Instruction-mix feature extraction.

    "Such features e.g., comprises the number of XOR, shift or load
    operations which we found to be quite distinctive or function name
    hinting at the hash function itself." — Section 3.2

Features summarize a decoded module: per-group instruction counts and
densities, memory footprint (CryptoNight needs a 2 MB scratchpad), and
name hints. The classifier consumes these for modules whose signature is
*not* in the database — new variants of known concepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.wasm import opcodes
from repro.wasm.decoder import WasmDecodeError, decode_module
from repro.wasm.types import Module

#: Substrings in function/export names that hint at PoW hash functions —
#: CryptoNight's internals (Keccak, AES rounds) and its finalizers
#: (BLAKE, Groestl, JH, Skein).
HASH_NAME_HINTS = (
    "cryptonight", "cn_slow", "cn_hash", "cn_lite", "cn_round",
    "keccak", "blake", "groestl", "skein", "jh_", "aes_round",
    "sha256", "monero", "miner", "mine_",
)


@dataclass(frozen=True)
class WasmFeatures:
    """Feature vector of one module."""

    total_instructions: int
    xor_count: int
    shift_count: int
    rotate_count: int
    load_count: int
    store_count: int
    mul_count: int
    float_count: int
    num_functions: int
    memory_pages: int
    name_hints: tuple = ()

    @property
    def xor_density(self) -> float:
        return self.xor_count / self.total_instructions if self.total_instructions else 0.0

    @property
    def shift_density(self) -> float:
        return self.shift_count / self.total_instructions if self.total_instructions else 0.0

    @property
    def load_density(self) -> float:
        return self.load_count / self.total_instructions if self.total_instructions else 0.0

    @property
    def float_density(self) -> float:
        return self.float_count / self.total_instructions if self.total_instructions else 0.0

    @property
    def bitop_density(self) -> float:
        return (self.xor_count + self.shift_count + self.rotate_count) / self.total_instructions if self.total_instructions else 0.0

    def has_hash_names(self) -> bool:
        return bool(self.name_hints)


class Check(NamedTuple):
    """One threshold test a detector ran, kept so evidence can cite it.

    ``op`` is ``">="`` or ``"<="``, or empty for a value cited without a
    threshold; ``fmt`` is the format spec the value is cited with.
    """

    name: str
    value: object
    op: str = ""
    threshold: object = None
    ok: bool = True
    fmt: str = ""


def at_least(name: str, value, threshold, fmt: str = "") -> Check:
    return Check(name, value, ">=", threshold, value >= threshold, fmt)


def at_most(name: str, value, threshold, fmt: str = "") -> Check:
    return Check(name, value, "<=", threshold, value <= threshold, fmt)


def extract_features(module_or_bytes) -> WasmFeatures:
    """Extract :class:`WasmFeatures` from a module or raw wasm bytes.

    Raises :class:`~repro.wasm.decoder.WasmDecodeError` on non-wasm bytes.
    """
    if isinstance(module_or_bytes, (bytes, bytearray)):
        module = decode_module(bytes(module_or_bytes))
    elif isinstance(module_or_bytes, Module):
        module = module_or_bytes
    else:
        raise TypeError(f"expected Module or bytes, got {type(module_or_bytes).__name__}")

    counts = {"xor": 0, "shift": 0, "rotate": 0, "load": 0, "store": 0, "mul": 0, "float": 0}
    total = 0
    for instr in module.iter_instructions():
        total += 1
        name = instr.name
        if name in opcodes.XOR_OPS:
            counts["xor"] += 1
        elif name in opcodes.SHIFT_OPS:
            counts["shift"] += 1
        elif name in opcodes.ROTATE_OPS:
            counts["rotate"] += 1
        elif name in opcodes.LOAD_OPS:
            counts["load"] += 1
        elif name in opcodes.STORE_OPS:
            counts["store"] += 1
        elif name in opcodes.MUL_OPS:
            counts["mul"] += 1
        elif name in opcodes.FLOAT_OPS:
            counts["float"] += 1

    hints = []
    for name in module.all_function_names():
        lowered = name.lower()
        for hint in HASH_NAME_HINTS:
            if hint in lowered:
                hints.append(name)
                break

    memory_pages = max((limits.minimum for limits in module.memories), default=0)
    for imp in module.imports:
        if imp.kind == 2:
            memory_pages = max(memory_pages, imp.desc.minimum)

    return WasmFeatures(
        total_instructions=total,
        xor_count=counts["xor"],
        shift_count=counts["shift"],
        rotate_count=counts["rotate"],
        load_count=counts["load"],
        store_count=counts["store"],
        mul_count=counts["mul"],
        float_count=counts["float"],
        num_functions=len(module.codes),
        memory_pages=memory_pages,
        name_hints=tuple(dict.fromkeys(hints)),
    )
