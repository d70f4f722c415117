"""A WebAssembly interpreter for the supported MVP subset.

The fingerprinting pipeline treats modules as data; this interpreter makes
them *programs* again. It exists for three reasons:

1. **Corpus validity** — the synthetic miner/benign modules are not just
   structurally well-formed, they execute: the tests run every corpus
   kernel to completion.
2. **Dynamic analysis** — an execution-based detector (count executed
   XORs/loads rather than static ones) is a natural extension of the
   paper's static method; see :mod:`repro.core.dynamic`.
3. **Honesty of the substitution** — the paper dumped *runnable* miners;
   ours are runnable too.

Semantics follow the spec for the implemented subset: two's-complement
integer arithmetic with wrapping, unsigned/signed comparison variants,
trapping division (by zero, and signed ``INT_MIN / -1``), little-endian
bounds-checked memory, and structured control flow (block/loop/if with
br/br_if/br_table).

**Compile once, dispatch by pc.** The first call of a function compiles
its body into a list of handler closures, one per instruction, kept on the
:class:`Instance` (so it lives and dies with the instance and its module).
Each handler closes over its decoded operands — width, mask, signedness,
memory offset — and returns the next pc. Branch targets and ``else``/
``end`` pcs are resolved at compile time; a block a branch can target
records its entry stack height in a per-call slot. A call's handler
returns a marker past the body's end that names a call site (callee and
arity, resolved at compile time), and the dispatch loop makes the call
itself, so the fuel budget stays one shared count. The loop charges one
unit of fuel per instruction, control instructions included, so
:class:`FuelExhausted` fires at exactly the instruction the budget runs
out on.

**Executed mix.** Every non-control instruction falls in one category of
:data:`MIX` (``xor``/``shift``/``rotate``/``load``/``store``/``float``/
``other``), fixed at compile time. A straight-line run of them is entered
only at its first instruction, so its handler adds the whole run's
category counts to :attr:`Instance.tally` at once; a trap or fuel
exhaustion inside the run takes back the instructions that did not run (a
trapping instruction counts as executed). :attr:`Instance.counts` is what
:func:`repro.core.dynamic.profile_execution` reads.

The name-dispatch interpreter this replaced is kept as a test oracle in
``tests/oracles/wasm_interp.py``.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.wasm import opcodes
from repro.wasm.types import Module, ValType

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
PAGE_SIZE = 65536

#: Executed-mix categories, in :attr:`Instance.tally` order.
MIX = ("xor", "shift", "rotate", "load", "store", "float", "other")
_OTHER = len(MIX) - 1
_GROUPS = (
    opcodes.XOR_OPS,
    opcodes.SHIFT_OPS,
    opcodes.ROTATE_OPS,
    opcodes.LOAD_OPS,
    opcodes.STORE_OPS,
    opcodes.FLOAT_OPS,
)
#: op name -> MIX index (the first group holding it); names outside the
#: opcode table are "other"
_CATEGORY = {
    name: next((i for i, group in enumerate(_GROUPS) if name in group), _OTHER)
    for name in opcodes.BY_NAME
}

#: Instructions the dispatch loop steers by; everything else is "simple"
#: and counts toward the executed mix.
_CONTROL = frozenset(
    {
        "block", "loop", "if", "else", "end", "br", "br_if", "br_table",
        "return", "call", "call_indirect", "unreachable",
    }
)

#: A handler runs one instruction and returns the next pc.
Handler = Callable[[list, list, list], int]


class WasmTrap(RuntimeError):
    """Raised when execution traps (unreachable, div-by-zero, OOB, …)."""


class FuelExhausted(WasmTrap):
    """Raised when the instruction budget runs out (guards infinite loops)."""


class InvalidCode(WasmTrap):
    """Raised when execution reaches code a validator would reject: a call
    to a function index past the function space, a pop from an empty
    stack, or a local, global or block that does not exist."""


def _signed(value: int, bits: int) -> int:
    if value >= 1 << (bits - 1):
        return value - (1 << bits)
    return value


def _trunc_div(a: int, b: int) -> int:
    """Integer division rounding toward zero, exact at any width."""
    quotient = abs(a) // abs(b)
    return quotient if (a < 0) == (b < 0) else -quotient


def _rotl(value: int, count: int, bits: int) -> int:
    count %= bits
    mask = (1 << bits) - 1
    return ((value << count) | (value >> (bits - count))) & mask


def _scan_blocks(body: list) -> dict:
    """Map each block/loop/if pc to its (end, else) pcs."""
    spans: dict = {}
    stack: list = []
    for pc, instr in enumerate(body):
        name = instr.name
        if name in ("block", "loop", "if"):
            stack.append([pc, -1])
        elif name == "else":
            if not stack:
                raise WasmTrap("else outside if")
            stack[-1][1] = pc
        elif name == "end":
            if stack:
                start, else_pc = stack.pop()
                spans[start] = (pc, else_pc)
            # the final end of the function has no opener; fine
    return spans


# ---------------------------------------------------------------------------
# handler factories: each closes over its operands and the next pc


def _goto(dest: int) -> Handler:
    def run(stack, locals_, heights):
        return dest
    return run


def _raiser(exc_type, *args) -> Handler:
    def run(stack, locals_, heights):
        raise exc_type(*args)
    return run


def _push(value, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack.append(value)
        return nxt
    return run


def _drop(nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack.pop()
        return nxt
    return run


def _select(nxt: int) -> Handler:
    def run(stack, locals_, heights):
        condition = stack.pop()
        b = stack.pop()
        a = stack.pop()
        stack.append(a if condition else b)
        return nxt
    return run


def _local_get(index: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack.append(locals_[index])
        return nxt
    return run


def _local_set(index: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        locals_[index] = stack.pop()
        return nxt
    return run


def _local_tee(index: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        locals_[index] = stack[-1]
        return nxt
    return run


def _global_get(globals_: list, index: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack.append(globals_[index])
        return nxt
    return run


def _global_set(globals_: list, index: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        globals_[index] = stack.pop()
        return nxt
    return run


def _unary(fn, mask: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack[-1] = fn(stack[-1]) & mask
        return nxt
    return run


def _binary(fn, mask: int, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        b = stack.pop()
        stack[-1] = fn(stack[-1], b) & mask
        return nxt
    return run


def _float_unary(fn, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack[-1] = fn(stack[-1])
        return nxt
    return run


def _float_binary(fn, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        b = stack.pop()
        stack[-1] = fn(stack[-1], b)
        return nxt
    return run


def _unsupported(message: str, pops: int) -> Handler:
    """An op the subset lacks: pops its operands, then traps."""
    def run(stack, locals_, heights):
        for _ in range(pops):
            stack.pop()
        raise WasmTrap(message)
    return run


def _oob(address: int) -> WasmTrap:
    return WasmTrap(f"out-of-bounds memory access at {address}")


def _load_int(memory: bytearray, offset: int, size: int, signed: bool, mask: int, nxt: int) -> Handler:
    width = size * 8

    def run(stack, locals_, heights):
        start = stack[-1] + offset
        if start < 0 or start + size > len(memory):
            raise _oob(start)
        value = int.from_bytes(memory[start : start + size], "little")
        if signed:
            value = _signed(value, width)
        stack[-1] = value & mask
        return nxt
    return run


def _load_float(memory: bytearray, offset: int, fmt: str, nxt: int) -> Handler:
    size = struct.calcsize(fmt)

    def run(stack, locals_, heights):
        start = stack[-1] + offset
        if start < 0 or start + size > len(memory):
            raise _oob(start)
        stack[-1] = struct.unpack_from(fmt, memory, start)[0]
        return nxt
    return run


def _store_int(memory: bytearray, offset: int, size: int, nxt: int) -> Handler:
    mask = (1 << (8 * size)) - 1

    def run(stack, locals_, heights):
        value = stack.pop()
        start = stack.pop() + offset
        if start < 0 or start + size > len(memory):
            raise _oob(start)
        memory[start : start + size] = (value & mask).to_bytes(size, "little")
        return nxt
    return run


def _store_float(memory: bytearray, offset: int, fmt: str, nxt: int) -> Handler:
    size = struct.calcsize(fmt)

    def run(stack, locals_, heights):
        raw = struct.pack(fmt, stack.pop())
        start = stack.pop() + offset
        if start < 0 or start + size > len(memory):
            raise _oob(start)
        memory[start : start + size] = raw
        return nxt
    return run


def _memory_size(memory: bytearray, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        stack.append(len(memory) // PAGE_SIZE)
        return nxt
    return run


def _memory_grow(memory: bytearray, limit, nxt: int) -> Handler:
    def run(stack, locals_, heights):
        delta = stack.pop()
        old_pages = len(memory) // PAGE_SIZE
        if limit is not None and old_pages + delta > limit:
            stack.append(_MASK32)  # -1: growth refused
        else:
            memory.extend(bytes(delta * PAGE_SIZE))
            stack.append(old_pages)
        return nxt
    return run


def _enter(slot: int, nxt: int) -> Handler:
    """A block or loop some branch targets: remember its stack height."""
    def run(stack, locals_, heights):
        heights[slot] = len(stack)
        return nxt
    return run


def _if(slot, then_pc: int, else_pc: int) -> Handler:
    if slot is None:
        def run(stack, locals_, heights):
            return then_pc if stack.pop() else else_pc
        return run

    def run(stack, locals_, heights):
        condition = stack.pop()
        heights[slot] = len(stack)
        return then_pc if condition else else_pc
    return run


def _br(slot, dest: int) -> Handler:
    """Unwind to the target block's entry height and jump; ``slot`` None
    leaves the function."""
    if slot is None:
        return _goto(dest)

    def run(stack, locals_, heights):
        del stack[heights[slot]:]
        return dest
    return run


def _br_if(slot, dest: int, nxt: int) -> Handler:
    if slot is None:
        def run(stack, locals_, heights):
            return dest if stack.pop() else nxt
        return run

    def run(stack, locals_, heights):
        if stack.pop():
            del stack[heights[slot]:]
            return dest
        return nxt
    return run


def _br_table(targets: tuple, default: tuple) -> Handler:
    count = len(targets)

    def run(stack, locals_, heights):
        selector = stack.pop()
        slot, dest = targets[selector] if 0 <= selector < count else default
        if slot is not None:
            del stack[heights[slot]:]
        return dest
    return run


# ---------------------------------------------------------------------------
# numeric ops: type prefix -> op -> handler factory ``(nxt) -> Handler``


def _int_handlers(bits: int) -> dict:
    """Handler factories for the ``i{bits}`` ops; results are masked."""
    mask = (1 << bits) - 1
    int_min = -(1 << (bits - 1))

    def div_u(a, b):
        if b == 0:
            raise WasmTrap("integer divide by zero")
        return a // b

    def div_s(a, b):
        if b == 0:
            raise WasmTrap("integer divide by zero")
        sa, sb = _signed(a, bits), _signed(b, bits)
        if sa == int_min and sb == -1:
            raise WasmTrap("integer overflow")
        return _trunc_div(sa, sb) if sb else 0

    def rem_u(a, b):
        if b == 0:
            raise WasmTrap("integer divide by zero")
        return a % b

    def rem_s(a, b):
        if b == 0:
            raise WasmTrap("integer divide by zero")
        sa, sb = _signed(a, bits), _signed(b, bits)
        return sa - sb * _trunc_div(sa, sb)

    unary = {
        "eqz": lambda a: int(a == 0),
        "clz": lambda a: bits if a == 0 else bits - a.bit_length(),
        "ctz": lambda a: bits if a == 0 else (a & -a).bit_length() - 1,
        "popcnt": lambda a: bin(a).count("1"),
        "wrap_i64": lambda a: a & _MASK32,
        "extend_i32_s": lambda a: _signed(a, 32) & _MASK64,
        "extend_i32_u": lambda a: a & _MASK64,
        "reinterpret_f32": lambda a: struct.unpack("<I", struct.pack("<f", a))[0],
        "reinterpret_f64": lambda a: struct.unpack("<Q", struct.pack("<d", a))[0],
    }
    binary = {
        "add": operator.add,
        "sub": operator.sub,
        "mul": operator.mul,
        "div_u": div_u,
        "div_s": div_s,
        "rem_u": rem_u,
        "rem_s": rem_s,
        "and": operator.and_,
        "or": operator.or_,
        "xor": operator.xor,
        "shl": lambda a, b: a << (b % bits),
        "shr_u": lambda a, b: a >> (b % bits),
        "shr_s": lambda a, b: _signed(a, bits) >> (b % bits),
        "rotl": lambda a, b: _rotl(a, b, bits),
        "rotr": lambda a, b: _rotl(a, bits - (b % bits), bits),
        "eq": lambda a, b: int(a == b),
        "ne": lambda a, b: int(a != b),
        "lt_u": lambda a, b: int(a < b),
        "lt_s": lambda a, b: int(_signed(a, bits) < _signed(b, bits)),
        "gt_u": lambda a, b: int(a > b),
        "gt_s": lambda a, b: int(_signed(a, bits) > _signed(b, bits)),
        "le_u": lambda a, b: int(a <= b),
        "le_s": lambda a, b: int(_signed(a, bits) <= _signed(b, bits)),
        "ge_u": lambda a, b: int(a >= b),
        "ge_s": lambda a, b: int(_signed(a, bits) >= _signed(b, bits)),
    }
    handlers = {op: partial(_unary, fn, mask) for op, fn in unary.items()}
    handlers.update({op: partial(_binary, fn, mask) for op, fn in binary.items()})
    return handlers


def _float_div(a, b):
    return a / b if b != 0 else math.inf if a > 0 else -math.inf if a < 0 else math.nan


_FLOAT_UNARY = {
    "abs": abs,
    "neg": operator.neg,
    "sqrt": lambda a: math.sqrt(a) if a >= 0 else math.nan,
    "demote_f64": lambda a: struct.unpack("<f", struct.pack("<f", a))[0],
    "promote_f32": lambda a: a,
}
_FLOAT_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _float_div,
    "eq": lambda a, b: int(a == b),
    "ne": lambda a, b: int(a != b),
    "lt": lambda a, b: int(a < b),
    "gt": lambda a, b: int(a > b),
    "le": lambda a, b: int(a <= b),
    "ge": lambda a, b: int(a >= b),
}
_FLOAT_HANDLERS = {
    **{op: partial(_float_unary, fn) for op, fn in _FLOAT_UNARY.items()},
    **{op: partial(_float_binary, fn) for op, fn in _FLOAT_BINARY.items()},
}
_NUMERIC = {
    "i32": _int_handlers(32),
    "i64": _int_handlers(64),
    "f32": _FLOAT_HANDLERS,
    "f64": _FLOAT_HANDLERS,
}


def _tallied(op: Handler, bumps: tuple, tally: list) -> Handler:
    """The first instruction of a straight-line run: count the whole run."""
    def run(stack, locals_, heights):
        for category, count in bumps:
            tally[category] += count
        return op(stack, locals_, heights)
    return run


# ---------------------------------------------------------------------------
# simple instructions: op name -> factory ``(instance, operands, nxt) -> Handler``,
# decided once per name; only the operands differ per instruction


def _memarg_offset(operands: tuple) -> int:
    _align, offset = operands
    return offset


def _digits(op: str) -> int:
    return int("".join(ch for ch in op if ch.isdigit()))


def _make_simple_factory(name: str) -> Callable:
    fixed = {
        "nop": lambda inst, ops, nxt: _goto(nxt),
        "drop": lambda inst, ops, nxt: _drop(nxt),
        "select": lambda inst, ops, nxt: _select(nxt),
        "local.get": lambda inst, ops, nxt: _local_get(ops[0], nxt),
        "local.set": lambda inst, ops, nxt: _local_set(ops[0], nxt),
        "local.tee": lambda inst, ops, nxt: _local_tee(ops[0], nxt),
        "global.get": lambda inst, ops, nxt: _global_get(inst.globals_, ops[0], nxt),
        "global.set": lambda inst, ops, nxt: _global_set(inst.globals_, ops[0], nxt),
        "i32.const": lambda inst, ops, nxt: _push(ops[0] & _MASK32, nxt),
        "i64.const": lambda inst, ops, nxt: _push(ops[0] & _MASK64, nxt),
        "f32.const": lambda inst, ops, nxt: _push(ops[0], nxt),
        "f64.const": lambda inst, ops, nxt: _push(ops[0], nxt),
        "memory.size": lambda inst, ops, nxt: _memory_size(inst.memory, nxt),
        "memory.grow": lambda inst, ops, nxt: _memory_grow(
            inst.memory,
            inst.module.memories[0].maximum if inst.module.memories else None,
            nxt,
        ),
    }
    if name in fixed:
        return fixed[name]
    if "." in name:
        prefix, op = name.split(".", 1)
        floating = prefix in ("f32", "f64")
        fmt = "<f" if prefix == "f32" else "<d"
        if op.startswith("load"):
            if floating:
                return lambda inst, ops, nxt: _load_float(inst.memory, _memarg_offset(ops), fmt, nxt)
            bits = 32 if prefix == "i32" else 64
            size = bits // 8 if op == "load" else _digits(op) // 8
            signed = op != "load" and op.endswith("_s")
            return lambda inst, ops, nxt: _load_int(
                inst.memory, _memarg_offset(ops), size, signed, (1 << bits) - 1, nxt
            )
        if op.startswith("store"):
            if floating:
                return lambda inst, ops, nxt: _store_float(inst.memory, _memarg_offset(ops), fmt, nxt)
            if op == "store":
                size = 4 if prefix == "i32" else 8
            else:
                size = _digits(op) // 8
            return lambda inst, ops, nxt: _store_int(inst.memory, _memarg_offset(ops), size, nxt)
        if prefix in _NUMERIC:
            handler = _NUMERIC[prefix].get(op)
            if handler is not None:
                return lambda inst, ops, nxt: handler(nxt)
            kind = "float" if floating else "integer"
            message = f"unsupported {kind} op {prefix}.{op}"
            return lambda inst, ops, nxt: _unsupported(message, 2)
    message = f"unsupported instruction {name}"
    return lambda inst, ops, nxt: _unsupported(message, 0)


#: the opcode table's simple instructions, decided once at import
_SIMPLE_FACTORIES = {
    name: _make_simple_factory(name) for name in opcodes.BY_NAME if name not in _CONTROL
}


# ---------------------------------------------------------------------------
# compiled bodies


@dataclass
class _Compiled:
    """One function body, compiled for one instance."""

    handlers: list      # pc -> Handler
    calls: list         # call site -> (callee index, argument count, resume pc)
    categories: list    # pc -> MIX index, or -1 for a control instruction
    run_ends: list      # pc -> end (exclusive) of the straight-line run holding it
    slots: int          # blocks a branch can target, one height slot each
    params: int
    locals_: list       # zero values of the declared locals
    results: int


@dataclass
class Instance:
    """An instantiated module ready for invocation.

    ``imports`` maps ``(module, name)`` to host callables for imported
    functions; they are resolved once, when the instance is built.
    ``fuel`` bounds the number of executed instructions per invocation
    (the corpus kernels contain real loops). ``tally`` counts executed
    non-control instructions per :data:`MIX` category, across every
    invocation of this instance.
    """

    module: Module
    imports: dict = field(default_factory=dict)
    fuel: int = 2_000_000
    memory: bytearray = field(default_factory=bytearray)
    globals_: list = field(default_factory=list)
    tally: list = field(default_factory=lambda: [0] * len(MIX), repr=False)
    _compiled: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.module.memories:
            self.memory = bytearray(self.module.memories[0].minimum * PAGE_SIZE)
        for glob in self.module.globals_:
            self.globals_.append(glob.init.operands[0] if glob.init.operands else 0)
        self._func_imports = [imp for imp in self.module.imports if imp.kind == 0]
        for imp in self._func_imports:
            if (imp.module, imp.name) not in self.imports:
                # default host stub: abort traps, anything else returns 0
                if imp.name == "abort":
                    self.imports[(imp.module, imp.name)] = _abort
                else:
                    self.imports[(imp.module, imp.name)] = lambda *args: 0
        self._hosts = [self.imports[(imp.module, imp.name)] for imp in self._func_imports]

    # -- public API ---------------------------------------------------------------

    def invoke(self, export_name: str, *args) -> list:
        """Call an exported function by name; returns its results."""
        for export in self.module.exports:
            if export.kind == 0 and export.name == export_name:
                return self.invoke_index(export.index, *args)
        raise KeyError(f"no exported function {export_name!r}")

    def invoke_index(self, func_index: int, *args) -> list:
        """Call a function by function-space index."""
        budget = [self.fuel]
        return self._call(func_index, list(args), budget)

    @property
    def counts(self) -> dict:
        """Executed non-control instructions: ``total`` plus the six
        named :data:`MIX` categories."""
        counts = {"total": sum(self.tally)}
        counts.update(zip(MIX[:_OTHER], self.tally))
        return counts

    def type_of(self, func_index: int):
        """The :class:`~repro.wasm.types.FuncType` of a function-space index."""
        try:
            if func_index < len(self._hosts):
                return self.module.types[self._func_imports[func_index].desc]
            return self.module.types[self.module.func_type_indices[func_index - len(self._hosts)]]
        except IndexError:
            raise InvalidCode(f"function index {func_index} out of range") from None

    # -- execution ----------------------------------------------------------------

    def _call(self, func_index: int, args: list, budget: list) -> list:
        if func_index < len(self._hosts):
            result = self._hosts[func_index](*args)
            if result is None:
                return []
            return [result & _MASK32 if isinstance(result, int) else result]

        local_index = func_index - len(self._hosts)
        body = self._compiled.get(local_index)
        if body is None:
            try:
                code = self.module.codes[local_index]
                functype = self.module.types[self.module.func_type_indices[local_index]]
            except IndexError:
                raise WasmTrap(f"function index {func_index} out of range") from None
            body = self._compiled[local_index] = self._compile(code, functype)

        locals_ = list(args)
        if len(locals_) < body.params:
            locals_.extend([0] * (body.params - len(locals_)))
        locals_.extend(body.locals_)
        heights = [0] * body.slots
        handlers = body.handlers
        end = len(handlers)
        stack: list = []
        pc = 0
        fuel = budget[0]
        try:
            while True:
                while pc < end:
                    if fuel <= 0:
                        raise FuelExhausted("instruction budget exhausted")
                    fuel -= 1
                    pc = handlers[pc](stack, locals_, heights)
                if pc == end:
                    break
                # past the end: a call site, made here so fuel stays shared
                callee, arity, resume = body.calls[pc - end - 1]
                if len(stack) < arity:
                    raise InvalidCode("stack underflow at call")
                call_args = stack[len(stack) - arity:]
                del stack[len(stack) - arity:]
                budget[0] = fuel
                stack.extend(self._call(callee, call_args, budget))
                fuel = budget[0]
                pc = resume
        except Exception as exc:
            if pc < end and body.categories[pc] >= 0:
                self._uncount(body, pc, ran=not isinstance(exc, FuelExhausted))
            if pc < end and isinstance(exc, (IndexError, KeyError)):
                # a handler indexes past a stack, locals, globals or block
                # table only when the code is invalid
                raise InvalidCode(f"invalid code at instruction {pc}: {exc}") from None
            raise
        budget[0] = fuel
        if body.results == 0:
            return []
        if len(stack) < body.results:
            raise WasmTrap("stack underflow at function exit")
        return stack[-body.results:]

    def _uncount(self, body: _Compiled, pc: int, ran: bool) -> None:
        """Take back the tallied instructions of ``pc``'s run that never ran.

        A trap at ``pc`` ran ``pc`` itself; fuel exhaustion stopped before
        it. A run entered at ``pc`` by exhaustion was never tallied at all.
        """
        first = pc + 1 if ran else pc
        if not ran and (pc == 0 or body.categories[pc - 1] < 0):
            return
        for later in range(first, body.run_ends[pc]):
            self.tally[body.categories[later]] -= 1

    # -- compilation --------------------------------------------------------------

    def _compile(self, code, functype) -> _Compiled:
        body = code.body
        spans = _scan_blocks(body)
        end = len(body)

        # pass 1: each branch's target opener (None: leave the function)
        # and each else's innermost opener, from the static nesting
        targets: dict = {}
        innermost: dict = {}
        nesting: list = []
        for pc, instr in enumerate(body):
            name = instr.name
            if name in ("block", "loop", "if"):
                nesting.append(pc)
            elif name == "end":
                if nesting:
                    nesting.pop()
            elif name == "else":
                innermost[pc] = nesting[-1]
            elif name in ("br", "br_if", "br_table"):
                try:
                    if name == "br_table":
                        labels, default = instr.operands
                        depths = (*labels, default)
                    else:
                        depths = (instr.operands[0],)
                    targets[pc] = [
                        nesting[len(nesting) - 1 - depth] if depth < len(nesting) else None
                        for depth in depths
                    ]
                except Exception as exc:
                    targets[pc] = exc  # raised when the branch runs
        slots: dict = {}
        for opener in sorted(
            {t for ts in targets.values() if isinstance(ts, list) for t in ts if t is not None}
        ):
            slots[opener] = len(slots)

        def resolve(opener) -> tuple:
            if opener is None:
                return None, end
            if body[opener].name == "loop":
                return slots[opener], opener + 1
            return slots[opener], spans[opener][0] + 1 if opener in spans else end

        # pass 2: one handler per instruction
        handlers: list = []
        calls: list = []
        categories: list = []
        for pc, instr in enumerate(body):
            name = instr.name
            nxt = pc + 1
            categories.append(-1 if name in _CONTROL else _CATEGORY.get(name, _OTHER))
            try:
                if isinstance(targets.get(pc), Exception):
                    raise targets[pc]
                if name not in _CONTROL:
                    factory = _SIMPLE_FACTORIES.get(name) or _make_simple_factory(name)
                    handler = factory(self, instr.operands, nxt)
                elif name in ("block", "loop", "if") and pc not in spans:
                    handler = _raiser(KeyError, pc)
                elif name in ("block", "loop"):
                    handler = _enter(slots[pc], nxt) if pc in slots else _goto(nxt)
                elif name == "if":
                    block_end, else_pc = spans[pc]
                    handler = _if(
                        slots.get(pc), nxt, else_pc + 1 if else_pc != -1 else block_end + 1
                    )
                elif name == "else":
                    opener = innermost[pc]
                    handler = _goto(spans[opener][0] + 1 if opener in spans else end)
                elif name == "end":
                    handler = _goto(nxt)
                elif name == "br":
                    handler = _br(*resolve(targets[pc][0]))
                elif name == "br_if":
                    handler = _br_if(*resolve(targets[pc][0]), nxt)
                elif name == "br_table":
                    resolved = [resolve(opener) for opener in targets[pc]]
                    handler = _br_table(tuple(resolved[:-1]), resolved[-1])
                elif name == "return":
                    handler = _goto(end)
                elif name == "call":
                    callee = instr.operands[0]
                    arity = len(self.type_of(callee).params)
                    handler = _goto(end + 1 + len(calls))
                    calls.append((callee, arity, nxt))
                elif name == "call_indirect":
                    handler = _raiser(WasmTrap, "call_indirect unsupported (no tables in subset)")
                else:  # unreachable
                    handler = _raiser(WasmTrap, "unreachable executed")
            except Exception as exc:
                # a malformed instruction fails when it runs, not when its
                # function is first called
                handler = _raiser(type(exc), *exc.args)
            handlers.append(handler)

        # pass 3: the first instruction of each straight-line run counts it
        run_ends = [0] * end
        pc = 0
        while pc < end:
            if categories[pc] < 0:
                pc += 1
                continue
            start = pc
            while pc < end and categories[pc] >= 0:
                pc += 1
            run = categories[start:pc]
            bumps = tuple((c, run.count(c)) for c in sorted(set(run)))
            handlers[start] = _tallied(handlers[start], bumps, self.tally)
            run_ends[start:pc] = [pc] * (pc - start)

        return _Compiled(
            handlers=handlers,
            calls=calls,
            categories=categories,
            run_ends=run_ends,
            slots=len(slots),
            params=len(functype.params),
            locals_=[
                0.0 if valtype in (ValType.F32, ValType.F64) else 0
                for valtype in code.expanded_locals()
            ],
            results=len(functype.results),
        )


def _abort(*_args) -> None:
    raise WasmTrap("abort called")


def execute_exported(module_bytes: bytes, export: str, *args, fuel: int = 2_000_000):
    """Decode, instantiate, and invoke in one call (convenience)."""
    from repro.wasm.decoder import decode_module

    instance = Instance(decode_module(module_bytes), fuel=fuel)
    return instance.invoke(export, *args)
