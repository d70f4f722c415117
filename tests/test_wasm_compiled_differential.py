"""Differential battery: the compiled interpreter against the name-dispatch
oracle in ``tests/oracles/wasm_interp.py``.

The dynamic detector's verdict is the executed instruction mix up to the
moment fuel runs out, so the compiled interpreter must agree with the one
it replaced on everything observable: results, trap type and message, the
instruction at which fuel runs out, the per-category counts (and so the
:class:`~repro.core.dynamic.DynamicProfile`), and the final memory and
globals. Inputs: every corpus module and its dead-code-padded twin, the
straight-line programs of ``tests/test_wasm_differential.py``, and
generated structured programs (nested blocks, loops, if/else, br_table,
early returns, local and host calls, memory traffic, traps), each under
random fuel budgets down to 1.
"""

from __future__ import annotations

import hashlib
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dynamic import profile_execution
from repro.wasm.builder import all_blueprints
from repro.wasm.decoder import decode_module
from repro.wasm.interp import FuelExhausted, Instance, InvalidCode, WasmTrap
from repro.wasm.obfuscate import pad_dead_code
from repro.wasm.types import (
    CodeEntry, Export, FuncType, Global, Import, Instr, Limits, Module, ValType,
)
from tests.oracles import wasm_interp as oracle
from tests.test_wasm_differential import _build_module, _step

_I32 = ValType.I32
_BLUEPRINTS = all_blueprints()
_FUEL = st.one_of(st.integers(1, 64), st.integers(1, 20_000))


def _value(value):
    """Results and globals compared bit for bit (NaN equals itself)."""
    if isinstance(value, float):
        return ("f64", struct.pack("<d", value))
    return value


def _outcome(instance, calls, invalid=InvalidCode) -> tuple:
    """Everything observable after ``calls`` ((func index, args) pairs) ran
    on one instance, in order. ``invalid`` is what the instance raises on
    invalid code: the oracle a bare ``IndexError``/``KeyError``, the
    compiled interpreter an :class:`InvalidCode` trap."""
    results = []
    for func_index, args in calls:
        try:
            results.append(("ok", [_value(v) for v in instance.invoke_index(func_index, *args)]))
        except invalid:
            results.append(("invalid",))
        except WasmTrap as exc:  # the trap itself is part of the outcome
            results.append((type(exc).__name__, str(exc)))
    return (
        results,
        hashlib.sha256(bytes(instance.memory)).hexdigest(),
        [_value(v) for v in instance.globals_],
        instance.counts,
    )


def _assert_same(module: Module, calls, fuel: int) -> tuple:
    expected = _outcome(oracle.CountingInstance(module, fuel=fuel), calls, (IndexError, KeyError))
    actual = _outcome(Instance(module, fuel=fuel), calls)
    assert actual == expected
    return actual


def _export_calls(module: Module, iterations: int = 16) -> list:
    calls = []
    for export in module.exports:
        if export.kind == 0:
            functype = Instance(module).type_of(export.index)
            calls.append(
                (export.index, [iterations if i == 0 else 7 + i for i in range(len(functype.params))])
            )
    return calls


def _fuel_needed(module: Module, func_index: int, args: list, limit: int) -> int:
    """The oracle's exact fuel use for one call that completes within ``limit``."""
    budget = [limit]
    oracle.CountingInstance(module)._call(func_index, list(args), budget)
    return limit - budget[0]


# ---------------------------------------------------------------------------
# generated structured programs


_UNARY = ("i32.eqz", "i32.clz", "i32.ctz", "i32.popcnt")
_BINARY = (
    "i32.add", "i32.sub", "i32.mul", "i32.and", "i32.or", "i32.xor", "i32.shl",
    "i32.shr_u", "i32.shr_s", "i32.rotl", "i32.rotr", "i32.div_u", "i32.div_s",
    "i32.rem_u", "i32.rem_s", "i32.eq", "i32.ne", "i32.lt_s", "i32.lt_u",
    "i32.gt_s", "i32.gt_u", "i32.le_s", "i32.le_u", "i32.ge_s", "i32.ge_u",
)
_I64_BINARY = ("i64.div_s", "i64.rem_s", "i64.div_u", "i64.mul", "i64.rotl", "i64.shr_s")
_LOADS = ("i32.load", "i32.load8_s", "i32.load8_u", "i32.load16_s", "i32.load16_u")
_STORES = ("i32.store", "i32.store8", "i32.store16")
_FLOAT = ("f64.add", "f64.sub", "f64.mul", "f64.div")
_LOCALS = 4  # two params, two declared locals
_CONSTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-(1 << 31), (1 << 31) - 1, 1 << 30]),
    st.integers(-(1 << 31), (1 << 31) - 1),
)


#: operand pairs at the edges of signed division, per width
_EDGES = [
    ("i32", -(1 << 31), -1), ("i32", -7, 2), ("i32", 7, -2), ("i32", 5, 0),
    ("i64", -(1 << 63), -1), ("i64", (1 << 62) + 1, 3), ("i64", -((1 << 62) + 1), 3),
]


@st.composite
def _statement(draw, depth: int) -> list:
    """A statement; most leave the value stack as they found it. ``leak``,
    host calls (whose default stub pushes a 0 even for an import that
    returns nothing) and a ``valued`` block not branched out of leave one
    value behind, ``spill`` consumes one, so a branch that unwinds the
    stack to the wrong height shows up in a local."""
    local = st.integers(0, _LOCALS - 1)
    kinds = [
        "unary", "binary", "i64", "edge", "edge", "float", "load", "store",
        "global", "select", "grow", "host", "leak", "spill",
    ]
    if depth > 0:
        kinds += ["block", "valued", "loop", "if", "br_table", "return", "call", "trap"] * 2
    kind = draw(st.sampled_from(kinds))
    get = Instr("local.get", (draw(local),))
    put = Instr("local.set", (draw(local),))
    if kind == "leak":
        return [Instr("i32.const", (draw(_CONSTS),))]
    if kind == "spill":
        return [get, Instr("i32.xor"), put]
    if kind == "edge":
        width, a, b = draw(st.sampled_from(_EDGES))
        op = draw(st.sampled_from(["div_s", "div_s", "rem_s", "div_u", "rem_u"]))
        tail = [put] if width == "i32" else [Instr("i32.wrap_i64"), put]
        return [Instr(f"{width}.const", (a,)), Instr(f"{width}.const", (b,)), Instr(f"{width}.{op}"), *tail]
    if kind == "unary":
        return [get, Instr(draw(st.sampled_from(_UNARY))), put]
    if kind == "binary":
        return [get, Instr("i32.const", (draw(_CONSTS),)), Instr(draw(st.sampled_from(_BINARY))), put]
    if kind == "i64":
        return [
            get, Instr("i64.extend_i32_s"),
            Instr("i64.const", (draw(st.sampled_from([-1, 3, -(1 << 63), (1 << 62) + 1, 0])),)),
            Instr(draw(st.sampled_from(_I64_BINARY))), Instr("i32.wrap_i64"), put,
        ]
    if kind == "float":
        return [
            Instr("f64.const", (draw(st.floats(allow_nan=True, allow_infinity=True)),)),
            Instr("f64.const", (draw(st.sampled_from([0.0, -0.0, 2.5, -1.0])),)),
            Instr(draw(st.sampled_from(_FLOAT))), Instr("i64.reinterpret_f64"),
            Instr("i32.wrap_i64"), put,
        ]
    offset = draw(st.sampled_from([0, 4, 65530, 70000]))
    if kind == "load":
        return [get, Instr("i32.const", (65536,)), Instr("i32.rem_u"),
                Instr(draw(st.sampled_from(_LOADS)), (0, offset)), put]
    if kind == "store":
        return [get, Instr("i32.const", (65536,)), Instr("i32.rem_u"), get,
                Instr(draw(st.sampled_from(_STORES)), (0, offset))]
    if kind == "global":
        return [Instr("global.get", (0,)), get, Instr("i32.add"), Instr("global.set", (0,))]
    if kind == "select":
        return [get, Instr("i32.const", (draw(_CONSTS),)), Instr("local.get", (draw(local),)),
                Instr("select"), put]
    if kind == "grow":
        return [Instr("i32.const", (draw(st.integers(0, 2)),)), Instr("memory.grow", (0,)),
                Instr("memory.size", (0,)), Instr("i32.add"), put]
    if kind == "host":
        return [Instr("call", (draw(st.sampled_from([1, 2])),))]  # env.zero / env.void
    inner = st.lists(_statement(depth - 1), max_size=4).map(lambda ss: [i for s in ss for i in s])
    if kind == "block":
        return [Instr("block", (None,)), *draw(inner), get, Instr("br_if", (draw(st.integers(0, 1)),)),
                *draw(inner), Instr("end")]
    if kind == "valued":
        return [Instr("block", (_I32,)), *draw(inner), get, Instr("br_if", (0,)),
                Instr("i32.const", (draw(_CONSTS),)), Instr("end")]
    if kind == "loop":
        # count a local down to zero; the body may also branch out early
        counter = draw(local)
        return [
            Instr("block", (None,)), Instr("loop", (None,)), *draw(inner),
            Instr("local.get", (counter,)), Instr("i32.eqz"), Instr("br_if", (1,)),
            Instr("local.get", (counter,)), Instr("i32.const", (1,)), Instr("i32.sub"),
            Instr("local.set", (counter,)), Instr("br", (0,)), Instr("end"), Instr("end"),
        ]
    if kind == "if":
        branch = [Instr("if", (None,)), *draw(inner)]
        if draw(st.booleans()):
            branch += [Instr("else"), *draw(inner)]
        return [get, *branch, Instr("end")]
    if kind == "br_table":
        labels = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
        return [Instr("block", (None,)), Instr("block", (None,)), get,
                Instr("br_table", (labels, draw(st.integers(0, 3)))), Instr("end"),
                *draw(inner), Instr("end")]
    if kind == "return":
        return [get, Instr("if", (None,)), Instr("local.get", (draw(local),)), Instr("return"), Instr("end")]
    if kind == "call":
        return [get, Instr("local.get", (draw(local),)), Instr("call", (4,)), put]
    trap = draw(st.sampled_from([
        [Instr("unreachable")], [Instr("call_indirect", (0, 0))], [get, Instr("call", (0,))],
    ]))
    return [get, Instr("if", (None,)), *trap, Instr("end")]


def _program(statements) -> list:
    return [i for s in statements for i in s] + [Instr("local.get", (2,)), Instr("end")]


@st.composite
def _modules(draw) -> Module:
    """``main`` (export, index 3) and ``helper`` (index 4), both (i32, i32) -> i32,
    plus three imports: ``env.abort`` (traps), ``env.zero`` and ``env.void``."""
    module = Module()
    module.types = [
        FuncType((_I32, _I32), (_I32,)),
        FuncType((_I32,), ()),
        FuncType((), (_I32,)),
        FuncType((), ()),
    ]
    module.imports = [
        Import("env", "abort", 0, 1), Import("env", "zero", 0, 2), Import("env", "void", 0, 3),
    ]
    module.func_type_indices = [0, 0]
    module.memories = [Limits(1, 3)]
    module.globals_ = [Global(_I32, True, Instr("i32.const", (draw(_CONSTS),)))]
    module.exports = [Export("main", 0, 3), Export("helper", 0, 4)]
    body = st.lists(_statement(2), max_size=8).map(_program)
    helper = st.lists(_statement(1).filter(lambda s: Instr("call", (4,)) not in s), max_size=4).map(_program)
    module.codes = [
        CodeEntry(locals_=[(2, _I32)], body=draw(body)),
        CodeEntry(locals_=[(2, _I32)], body=draw(helper)),
    ]
    return module


_ARGS = st.lists(_CONSTS.map(lambda v: v & 0xFFFFFFFF), min_size=2, max_size=2)


def _i(name, *operands):
    return Instr(name, operands)


#: Branches out of blocks entered with values already on the stack: each
#: must unwind to its own block's entry height, which ``spill`` then reads.
_UNWINDING = {
    "br_if-out-of-block": [
        _i("i32.const", 5), _i("block", None), _i("i32.const", 9), _i("local.get", 0),
        _i("br_if", 0), _i("drop"), _i("end"), _i("local.get", 1), _i("i32.xor"),
        _i("local.set", 2),
    ],
    "br-out-of-if": [
        _i("i32.const", 5), _i("local.get", 0), _i("if", None), _i("i32.const", 9),
        _i("br", 0), _i("end"), _i("local.get", 1), _i("i32.xor"), _i("local.set", 2),
    ],
    "br-back-to-loop": [
        _i("i32.const", 5), _i("block", None), _i("loop", None), _i("i32.const", 9),
        _i("local.get", 0), _i("i32.eqz"), _i("br_if", 1), _i("local.get", 0),
        _i("i32.const", 1), _i("i32.sub"), _i("local.set", 0), _i("br", 0), _i("end"),
        _i("end"), _i("local.get", 1), _i("i32.xor"), _i("local.set", 2),
    ],
    "br_table-out-of-nested": [
        _i("i32.const", 5), _i("block", None), _i("i32.const", 6), _i("block", None),
        _i("i32.const", 9), _i("local.get", 0), _i("br_table", (0, 1), 1), _i("end"),
        _i("i32.xor"), _i("local.set", 3), _i("end"), _i("local.get", 1), _i("i32.xor"),
        _i("local.set", 2),
    ],
    "valued-block": [
        _i("i32.const", 5), _i("block", _I32), _i("i32.const", 9), _i("local.get", 0),
        _i("br_if", 0), _i("end"), _i("local.get", 1), _i("i32.xor"), _i("local.set", 2),
    ],
}


def _single_function(body: list) -> Module:
    module = Module()
    module.types = [FuncType((_I32, _I32), (_I32,))]
    module.func_type_indices = [0]
    module.memories = [Limits(1)]
    module.exports = [Export("main", 0, 0)]
    module.codes = [CodeEntry(locals_=[(2, _I32)], body=_program([body]))]
    return module


class TestGeneratedPrograms:
    @pytest.mark.parametrize("name", sorted(_UNWINDING))
    @pytest.mark.parametrize("args", [[0, 3], [1, 3], [2, 3]])
    def test_branches_unwind_to_the_entry_height(self, name, args):
        module = _single_function(_UNWINDING[name])
        for fuel in (1, 7, 2_000):
            _assert_same(module, [(0, args)], fuel)


    @given(module=_modules(), args=st.lists(_ARGS, min_size=1, max_size=3), fuel=_FUEL)
    @settings(max_examples=250, deadline=None)
    def test_structured_programs_agree(self, module, args, fuel):
        _assert_same(module, [(3 + i % 2, a) for i, a in enumerate(args)], fuel)

    @given(module=_modules(), args=_ARGS)
    @settings(max_examples=60, deadline=None)
    def test_fuel_runs_out_at_the_same_instruction(self, module, args):
        try:
            needed = _fuel_needed(module, 3, args, 20_000)
        except Exception:
            return  # traps before completing: covered by the test above
        assert needed >= 1
        with pytest.raises(FuelExhausted):
            Instance(module, fuel=needed - 1).invoke_index(3, *args)
        _assert_same(module, [(3, args)], needed)
        _assert_same(module, [(3, args)], needed - 1)

    @given(
        steps=st.lists(_step, min_size=1, max_size=25),
        start=st.integers(min_value=0, max_value=(1 << 32) - 1),
        fuel=_FUEL,
    )
    @settings(max_examples=150, deadline=None)
    def test_straight_line_programs_agree(self, steps, start, fuel):
        _assert_same(_build_module(steps), [(0, [start])], fuel)


# ---------------------------------------------------------------------------
# the corpus, as the dynamic detector runs it


def _corpus_module(corpus, blueprint, padded: bool) -> Module:
    data = corpus.build(blueprint)
    return decode_module(pad_dead_code(data) if padded else data)


class TestCorpus:
    @pytest.mark.parametrize(
        "padded, blueprints",
        [(False, _BLUEPRINTS), (True, _BLUEPRINTS[::4])],
        ids=["every-module", "padded"],
    )
    def test_corpus_profiles_agree(self, corpus, padded, blueprints):
        """The detector's own run (``profile_execution`` at its defaults):
        same profile, counts, memory and globals."""
        for blueprint in blueprints:
            module = _corpus_module(corpus, blueprint, padded)
            profile, counts, reference = oracle.profile_execution(module)
            assert profile_execution(module) == profile, blueprint.label
            instance = Instance(module, fuel=400_000)
            observed = _outcome(instance, _export_calls(module, 64))
            assert observed[1:] == (
                hashlib.sha256(bytes(reference.memory)).hexdigest(),
                [_value(v) for v in reference.globals_],
                counts,
            ), blueprint.label

    @given(
        blueprint=st.sampled_from(_BLUEPRINTS),
        padded=st.booleans(),
        fuel=st.one_of(_FUEL, st.integers(1, 400_000)),
        iterations=st.integers(0, 24),
    )
    @settings(max_examples=60, deadline=None)
    def test_corpus_under_random_fuel_agrees(self, corpus, blueprint, padded, fuel, iterations):
        module = _corpus_module(corpus, blueprint, padded)
        _assert_same(module, _export_calls(module, iterations), fuel)
        assert profile_execution(module, iterations, fuel) == oracle.profile_execution(
            module, iterations, fuel
        )[0]

    @given(blueprint=st.sampled_from(_BLUEPRINTS), iterations=st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_corpus_fuel_runs_out_at_the_same_instruction(self, corpus, blueprint, iterations):
        module = _corpus_module(corpus, blueprint, False)
        func_index, args = _export_calls(module, iterations)[0]
        needed = _fuel_needed(module, func_index, args, 400_000)
        _assert_same(module, [(func_index, args)], needed)
        _assert_same(module, [(func_index, args)], needed - 1)
        with pytest.raises(FuelExhausted):
            Instance(module, fuel=needed - 1).invoke_index(func_index, *args)
