"""Tests for the WebAssembly interpreter."""

import pytest

from repro.wasm.builder import ModuleBlueprint, all_blueprints
from repro.wasm.decoder import decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.interp import FuelExhausted, Instance, WasmTrap, execute_exported
from repro.wasm.types import CodeEntry, Export, FuncType, Import, Instr, Limits, Module, ValType


def make_module(body, params=(ValType.I32, ValType.I32), results=(ValType.I32,),
                locals_=None, memory_pages=1, imports=()):
    module = Module()
    module.types = [FuncType(tuple(params), tuple(results))]
    module.imports = list(imports)
    module.func_type_indices = [0]
    module.memories = [Limits(memory_pages, memory_pages * 2)]
    module.exports = [Export("f", 0, module.num_imported_funcs())]
    module.codes = [CodeEntry(locals_=locals_ or [], body=list(body) + [Instr("end")])]
    return module


def run(body, *args, **kwargs):
    module = make_module(body, **kwargs)
    return Instance(module).invoke("f", *args)


class TestArithmetic:
    def test_add(self):
        assert run([Instr("local.get", (0,)), Instr("local.get", (1,)), Instr("i32.add")], 2, 3) == [5]

    def test_wrapping_add(self):
        assert run(
            [Instr("local.get", (0,)), Instr("i32.const", (1,)), Instr("i32.add")],
            0xFFFFFFFF,
        ) == [0]

    def test_sub_wraps_negative(self):
        assert run(
            [Instr("i32.const", (1,)), Instr("i32.const", (2,)), Instr("i32.sub")], 0, 0
        ) == [0xFFFFFFFF]

    def test_xor_shift_rotate(self):
        body = [
            Instr("i32.const", (0b1010,)),
            Instr("i32.const", (0b0110,)),
            Instr("i32.xor"),          # 0b1100
            Instr("i32.const", (2,)),
            Instr("i32.shl"),          # 0b110000
        ]
        assert run(body, 0, 0) == [0b110000]

    def test_rotl(self):
        assert run([Instr("i32.const", (0x80000001,)), Instr("i32.const", (1,)), Instr("i32.rotl")], 0, 0) == [3]

    def test_rotr(self):
        assert run([Instr("i32.const", (3,)), Instr("i32.const", (1,)), Instr("i32.rotr")], 0, 0) == [0x80000001]

    def test_div_u_vs_div_s(self):
        minus_ten = (-10) & 0xFFFFFFFF
        assert run([Instr("i32.const", (minus_ten,)), Instr("i32.const", (3,)), Instr("i32.div_s")], 0, 0) == [(-3) & 0xFFFFFFFF]
        assert run([Instr("i32.const", (minus_ten,)), Instr("i32.const", (3,)), Instr("i32.div_u")], 0, 0) == [(0xFFFFFFF6) // 3]

    def test_div_by_zero_traps(self):
        with pytest.raises(WasmTrap, match="divide by zero"):
            run([Instr("i32.const", (1,)), Instr("i32.const", (0,)), Instr("i32.div_u")], 0, 0)

    def test_i64_div_s_is_exact_above_2_pow_53(self):
        dividend = (1 << 62) + 1
        body = [
            Instr("i64.const", (dividend,)),
            Instr("i64.const", (3,)),
            Instr("i64.div_s"),
            Instr("i64.const", (dividend,)),
            Instr("i64.const", (3,)),
            Instr("i64.rem_s"),
        ]
        quotient, remainder = run(body, results=(ValType.I64, ValType.I64))
        assert quotient == dividend // 3 == 1537228672809129301
        assert remainder == dividend % 3

    def test_i64_div_s_negative_truncates_toward_zero(self):
        dividend = -((1 << 62) + 1)
        body = [
            Instr("i64.const", (dividend,)),
            Instr("i64.const", (3,)),
            Instr("i64.div_s"),
            Instr("i64.const", (dividend,)),
            Instr("i64.const", (3,)),
            Instr("i64.rem_s"),
        ]
        quotient, remainder = run(body, results=(ValType.I64, ValType.I64))
        assert quotient == (-(((1 << 62) + 1) // 3)) & ((1 << 64) - 1)
        assert remainder == (-(((1 << 62) + 1) % 3)) & ((1 << 64) - 1)

    @pytest.mark.parametrize("width", [32, 64])
    def test_signed_div_of_int_min_by_minus_one_traps(self, width):
        int_min = 1 << (width - 1)
        body = [
            Instr(f"i{width}.const", (int_min,)),
            Instr(f"i{width}.const", (-1,)),
            Instr(f"i{width}.div_s"),
        ]
        with pytest.raises(WasmTrap, match="integer overflow"):
            run(body, results=(ValType.I32 if width == 32 else ValType.I64,))

    @pytest.mark.parametrize("width", [32, 64])
    def test_signed_rem_of_int_min_by_minus_one_is_zero(self, width):
        body = [
            Instr(f"i{width}.const", (1 << (width - 1),)),
            Instr(f"i{width}.const", (-1,)),
            Instr(f"i{width}.rem_s"),
        ]
        assert run(body, results=(ValType.I32 if width == 32 else ValType.I64,)) == [0]

    def test_clz_ctz_popcnt(self):
        assert run([Instr("i32.const", (1,)), Instr("i32.clz")], 0, 0) == [31]
        assert run([Instr("i32.const", (8,)), Instr("i32.ctz")], 0, 0) == [3]
        assert run([Instr("i32.const", (0xFF,)), Instr("i32.popcnt")], 0, 0) == [8]
        assert run([Instr("i32.const", (0,)), Instr("i32.clz")], 0, 0) == [32]

    def test_signed_comparison(self):
        minus_one = (-1) & 0xFFFFFFFF
        assert run([Instr("i32.const", (minus_one,)), Instr("i32.const", (1,)), Instr("i32.lt_s")], 0, 0) == [1]
        assert run([Instr("i32.const", (minus_one,)), Instr("i32.const", (1,)), Instr("i32.lt_u")], 0, 0) == [0]

    def test_i64_ops(self):
        body = [
            Instr("i64.const", (1 << 40,)),
            Instr("i64.const", (3,)),
            Instr("i64.mul"),
            Instr("i32.wrap_i64"),
        ]
        assert run(body, 0, 0) == [((3 << 40) & 0xFFFFFFFF)]

    def test_float_math(self):
        body = [
            Instr("f64.const", (2.0,)),
            Instr("f64.sqrt"),
            Instr("f64.const", (2.0,)),
            Instr("f64.mul"),
            Instr("i64.reinterpret_f64"),
            Instr("i32.wrap_i64"),
        ]
        result = run(body, 0, 0)
        assert isinstance(result[0], int)


class TestLocalsAndControl:
    def test_local_set_tee(self):
        body = [
            Instr("i32.const", (7,)),
            Instr("local.tee", (0,)),
            Instr("local.get", (0,)),
            Instr("i32.add"),
        ]
        assert run(body, 0, 0) == [14]

    def test_select(self):
        body = [
            Instr("i32.const", (10,)),
            Instr("i32.const", (20,)),
            Instr("local.get", (0,)),
            Instr("select"),
        ]
        assert run(body, 1, 0) == [10]
        assert run(body, 0, 0) == [20]

    def test_if_else(self):
        body = [
            Instr("local.get", (0,)),
            Instr("if", (None,)),
            Instr("i32.const", (111,)),
            Instr("local.set", (1,)),
            Instr("else"),
            Instr("i32.const", (222,)),
            Instr("local.set", (1,)),
            Instr("end"),
            Instr("local.get", (1,)),
        ]
        assert run(body, 1, 0) == [111]
        assert run(body, 0, 0) == [222]

    def test_if_without_else(self):
        body = [
            Instr("local.get", (0,)),
            Instr("if", (None,)),
            Instr("i32.const", (5,)),
            Instr("local.set", (1,)),
            Instr("end"),
            Instr("local.get", (1,)),
        ]
        assert run(body, 0, 7) == [7]
        assert run(body, 1, 7) == [5]

    def test_countdown_loop(self):
        # sum 1..n via loop: local0 = n, local1 = acc
        body = [
            Instr("block", (None,)),
            Instr("loop", (None,)),
            Instr("local.get", (0,)),
            Instr("i32.eqz"),
            Instr("br_if", (1,)),
            Instr("local.get", (1,)),
            Instr("local.get", (0,)),
            Instr("i32.add"),
            Instr("local.set", (1,)),
            Instr("local.get", (0,)),
            Instr("i32.const", (1,)),
            Instr("i32.sub"),
            Instr("local.set", (0,)),
            Instr("br", (0,)),
            Instr("end"),
            Instr("end"),
            Instr("local.get", (1,)),
        ]
        assert run(body, 10, 0) == [55]

    def test_br_table(self):
        body = [
            Instr("block", (None,)),
            Instr("block", (None,)),
            Instr("local.get", (0,)),
            Instr("br_table", ((0, 1), 1)),
            Instr("end"),
            Instr("i32.const", (100,)),
            Instr("return"),
            Instr("end"),
            Instr("i32.const", (200,)),
        ]
        assert run(body, 0, 0) == [100]  # label 0 → inner block → 100
        assert run(body, 1, 0) == [200]  # label 1 → outer block → 200
        assert run(body, 9, 0) == [200]  # default

    def test_early_return(self):
        body = [
            Instr("i32.const", (42,)),
            Instr("return"),
            Instr("unreachable"),
        ]
        assert run(body, 0, 0) == [42]

    def test_unreachable_traps(self):
        with pytest.raises(WasmTrap, match="unreachable"):
            run([Instr("unreachable")], 0, 0)

    def test_infinite_loop_exhausts_fuel(self):
        body = [Instr("loop", (None,)), Instr("br", (0,)), Instr("end"), Instr("i32.const", (0,))]
        module = make_module(body)
        with pytest.raises(FuelExhausted):
            Instance(module, fuel=1000).invoke("f", 0, 0)


class TestMemory:
    def test_store_load_roundtrip(self):
        body = [
            Instr("i32.const", (100,)),
            Instr("local.get", (0,)),
            Instr("i32.store", (2, 0)),
            Instr("i32.const", (100,)),
            Instr("i32.load", (2, 0)),
        ]
        assert run(body, 0xDEADBEEF, 0) == [0xDEADBEEF]

    def test_byte_load_signed_unsigned(self):
        body_u = [
            Instr("i32.const", (0,)),
            Instr("i32.const", (0x80,)),
            Instr("i32.store8", (0, 0)),
            Instr("i32.const", (0,)),
            Instr("i32.load8_u", (0, 0)),
        ]
        assert run(body_u, 0, 0) == [0x80]
        body_s = body_u[:-1] + [Instr("i32.load8_s", (0, 0))]
        assert run(body_s, 0, 0) == [0xFFFFFF80]

    def test_oob_traps(self):
        body = [Instr("i32.const", (65536 - 2,)), Instr("i32.load", (2, 0))]
        with pytest.raises(WasmTrap, match="out-of-bounds"):
            run(body, 0, 0, memory_pages=1)

    def test_offset_applies(self):
        body = [
            Instr("i32.const", (0,)),
            Instr("i32.const", (77,)),
            Instr("i32.store", (2, 128)),
            Instr("i32.const", (128,)),
            Instr("i32.load", (2, 0)),
        ]
        assert run(body, 0, 0) == [77]

    def test_memory_size_and_grow(self):
        body = [
            Instr("i32.const", (1,)),
            Instr("memory.grow", (0,)),
            Instr("drop"),
            Instr("memory.size", (0,)),
        ]
        assert run(body, 0, 0, memory_pages=1) == [2]

    def test_memory_grow_respects_maximum(self):
        body = [Instr("i32.const", (100,)), Instr("memory.grow", (0,))]
        assert run(body, 0, 0, memory_pages=1) == [0xFFFFFFFF]  # refused


class TestCalls:
    def test_call_local_function(self):
        module = Module()
        module.types = [FuncType((ValType.I32,), (ValType.I32,))]
        module.func_type_indices = [0, 0]
        module.memories = [Limits(1)]
        module.exports = [Export("main", 0, 0)]
        module.codes = [
            CodeEntry(body=[Instr("local.get", (0,)), Instr("call", (1,)), Instr("end")]),
            CodeEntry(body=[Instr("local.get", (0,)), Instr("i32.const", (2,)), Instr("i32.mul"), Instr("end")]),
        ]
        assert Instance(module).invoke("main", 21) == [42]

    def test_imported_abort_traps(self):
        module = make_module(
            [Instr("call", (0,)), Instr("i32.const", (0,))],
            imports=(Import("env", "abort", 0, 1),),
        )
        # import type index 1: append a () -> () type
        module.types.append(FuncType((), ()))
        with pytest.raises(WasmTrap, match="abort"):
            Instance(module).invoke("f", 0, 0)

    def test_custom_host_import(self):
        module = make_module(
            [Instr("call", (0,))],
            params=(), results=(ValType.I32,),
            imports=(Import("env", "answer", 0, 1),),
        )
        module.types.append(FuncType((), (ValType.I32,)))
        instance = Instance(module, imports={("env", "answer"): lambda: 42})
        assert instance.invoke("f") == [42]

    def test_host_imports_are_resolved_once(self):
        """Host callables are looked up when the instance is built, not on
        every call: later edits of ``imports`` do not reach the module."""
        calls = []
        module = make_module(
            [Instr("call", (0,)), Instr("call", (0,)), Instr("i32.add")],
            params=(), results=(ValType.I32,),
            imports=(Import("env", "tick", 0, 1),),
        )
        module.types.append(FuncType((), (ValType.I32,)))
        instance = Instance(module, imports={("env", "tick"): lambda: calls.append(1) or 20})
        instance.imports[("env", "tick")] = lambda: 0
        assert instance.invoke("f") == [40]
        assert len(calls) == 2

    def test_host_import_arguments_and_default_stub(self):
        seen = []
        module = make_module(
            [
                Instr("i32.const", (5,)), Instr("i32.const", (6,)), Instr("call", (0,)),
                Instr("call", (1,)), Instr("i32.add"),
            ],
            params=(), results=(ValType.I32,),
            imports=(Import("env", "pair", 0, 1), Import("env", "zero", 0, 2)),
        )
        module.types.append(FuncType((ValType.I32, ValType.I32), (ValType.I32,)))
        module.types.append(FuncType((), (ValType.I32,)))
        instance = Instance(module, imports={("env", "pair"): lambda a, b: seen.append((a, b)) or a * b})
        assert instance.invoke("f") == [30]  # the unlisted import is stubbed to 0
        assert seen == [(5, 6)]

    def test_unknown_export(self):
        with pytest.raises(KeyError):
            Instance(make_module([Instr("i32.const", (0,))])).invoke("nope")


class TestCorpusExecution:
    """The synthetic miners and benign modules are runnable programs."""

    def test_entire_corpus_executes(self, corpus):
        for blueprint in all_blueprints():
            module = decode_module(corpus.build(blueprint))
            instance = Instance(module, fuel=500_000)
            export = next(e for e in module.exports if e.kind == 0)
            result = instance.invoke(export.name, 5, 9)
            assert len(result) == 1, blueprint.label
            assert 0 <= result[0] < 2**32

    def test_corpus_execution_is_deterministic(self, corpus):
        data = corpus.build(ModuleBlueprint("coinhive", 0))
        a = execute_exported(data, "_cryptonight_create", 7, 13)
        b = execute_exported(data, "_cryptonight_create", 7, 13)
        assert a == b

    def test_kernel_output_depends_on_iteration_count(self, corpus):
        """More loop iterations must change at least one kernel's output."""
        data = corpus.build(ModuleBlueprint("coinhive", 0))
        module = decode_module(data)
        differs = False
        for export in module.exports:
            if export.kind != 0:
                continue
            a = Instance(decode_module(data)).invoke(export.name, 2, 5)
            b = Instance(decode_module(data)).invoke(export.name, 50, 5)
            if a != b:
                differs = True
                break
        assert differs

    def test_miner_kernels_touch_memory(self, corpus):
        """Across a few variants, the mining kernels write the scratchpad."""
        touched = False
        for variant in range(4):
            data = corpus.build(ModuleBlueprint("coinhive", variant))
            module = decode_module(data)
            instance = Instance(module)
            for export in module.exports:
                if export.kind == 0:
                    instance.invoke(export.name, 30, 3)
            if any(instance.memory):
                touched = True
                break
        assert touched, "no mining kernel wrote the scratchpad"
