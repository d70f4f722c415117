"""Execution-based miner detection (extension of the paper's method).

The paper's instruction-mix features are *static*: they count XOR/shift/
load instructions in the binary. A miner author can game static counts by
padding modules with float-heavy dead code — the counts change, the
executed behaviour does not. This module runs the module in the
:mod:`repro.wasm.interp` interpreter and counts what actually executes,
which is robust against dead-code padding (and is how later academic work,
e.g. MineSweeper's CPU-cache profiling, hardened the idea).

The interpreter compiles each function once into handlers whose
executed-mix category is fixed at compile time, and keeps the per-category
tally on the :class:`~repro.wasm.interp.Instance` (``Instance.counts``);
:func:`profile_execution` reads it directly. Fuel is charged once per
instruction, so a kernel that runs out of fuel is profiled up to exactly
the instruction where the budget ended.

:class:`DynamicMinerDetector` profiles raw bytes through the process-wide
:class:`~repro.core.fastpath.WasmCache`, so each distinct module is
decoded and run once, however many pages serve it.

``benchmarks/bench_ext_dynamic_detection.py`` compares static and dynamic
classification on a corpus padded by
:func:`repro.wasm.obfuscate.pad_dead_code`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import fastpath
from repro.core.features import Check, at_least, at_most
from repro.wasm.decoder import WasmDecodeError, decode_module
from repro.wasm.interp import FuelExhausted, Instance, InvalidCode, ResourceLimit, WasmTrap
from repro.wasm.types import Module


@dataclass(frozen=True)
class DynamicProfile:
    """Executed-instruction profile of one module."""

    executed: int
    xor_density: float
    shift_density: float
    rotate_count: int
    load_density: float
    float_density: float
    memory_pages: int
    completed: bool  # False when every export trapped/exhausted fuel


def profile_execution(
    module_or_bytes, iterations: int = 64, fuel: int = 400_000
) -> DynamicProfile:
    """Run every exported function and profile what executes.

    ``iterations`` seeds the first i32 parameter — our corpus kernels (and
    real mining kernels) take a work-count-like argument, so this drives
    the hot loop. Traps and fuel exhaustion are tolerated per export; a
    fuel-exhausted kernel still contributes its executed counts (an
    infinite hashing loop is itself a signal). Invalid code is not
    tolerated: :class:`~repro.wasm.interp.InvalidCode` propagates, and so
    does :class:`~repro.wasm.interp.ResourceLimit` for a module that
    declares more memory or locals than the interpreter allocates.
    """
    if isinstance(module_or_bytes, (bytes, bytearray)):
        module = decode_module(bytes(module_or_bytes))
    elif isinstance(module_or_bytes, Module):
        module = module_or_bytes
    else:
        raise TypeError(f"expected Module or bytes, got {type(module_or_bytes).__name__}")

    instance = Instance(module, fuel=fuel)
    ran_any = False
    for export in module.exports:
        if export.kind != 0:
            continue
        functype = instance.type_of(export.index)
        args = []
        for i, _param in enumerate(functype.params):
            args.append(iterations if i == 0 else 7 + i)
        try:
            instance.invoke_index(export.index, *args)
            ran_any = True
        except FuelExhausted:
            ran_any = True
        except (InvalidCode, ResourceLimit):
            raise  # fails the whole module, as compiling it would
        except WasmTrap:
            continue

    counts = instance.counts
    total = max(1, counts["total"])
    memory_pages = module.memories[0].minimum if module.memories else 0
    return DynamicProfile(
        executed=counts["total"],
        xor_density=counts["xor"] / total,
        shift_density=counts["shift"] / total,
        rotate_count=counts["rotate"],
        load_density=counts["load"] / total,
        float_density=counts["float"] / total,
        memory_pages=memory_pages,
        completed=ran_any,
    )


@dataclass(frozen=True)
class DynamicDecision:
    """The dynamic layer's decision on one module: the verdict and the
    :class:`~repro.core.features.Check` s it rests on, or the name of the
    error that stopped execution."""

    is_miner: bool
    checks: tuple = ()
    error: str = ""


@dataclass
class DynamicMinerDetector:
    """Classifies by executed instruction mix.

    Thresholds parallel :class:`~repro.core.classifier.MinerClassifier`'s
    static ones but apply to the executed stream, where the miner's hot
    loop dominates regardless of what dead code surrounds it.
    """

    min_bitop_density: float = 0.08
    max_float_density: float = 0.05
    min_memory_pages: int = 16
    min_rotate_count: int = 4
    min_executed: int = 200

    def explain(self, module_or_bytes) -> tuple:
        """``(is_miner, DynamicDecision)``: the verdict plus each
        executed-stream feature tested against its threshold.

        Bytes are profiled once per distinct content, through
        :meth:`~repro.core.fastpath.WasmCache.profile`; a
        :class:`~repro.wasm.types.Module` is profiled directly."""
        try:
            if isinstance(module_or_bytes, (bytes, bytearray)):
                profile = fastpath.shared_cache().profile(bytes(module_or_bytes))
            else:
                profile = profile_execution(module_or_bytes)
        except (WasmDecodeError, WasmTrap) as exc:
            return False, DynamicDecision(False, error=type(exc).__name__)
        checks = (
            at_least("executed", profile.executed, self.min_executed),
            Check("completed", profile.completed, ok=profile.completed),
            at_least(
                "executed_bitop_density",
                profile.xor_density + profile.shift_density,
                self.min_bitop_density,
                ".4f",
            ),
            at_most(
                "executed_float_density",
                profile.float_density,
                self.max_float_density,
                ".4f",
            ),
            at_least("memory_pages", profile.memory_pages, self.min_memory_pages),
            at_least("executed_rotate_count", profile.rotate_count, self.min_rotate_count),
        )
        verdict = all(check.ok for check in checks)
        return verdict, DynamicDecision(verdict, checks)

    def is_miner(self, module_or_bytes) -> bool:
        return self.explain(module_or_bytes)[0]
