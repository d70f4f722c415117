"""The straight-line wasm interpreter, kept as a test oracle.

:mod:`repro.wasm.interp` compiles each function body once into resolved
handler closures. This is the interpreter it replaced: it walks the
decoded :class:`~repro.wasm.types.Instr` list and picks each step by
comparing instruction names, re-deriving block spans, operand widths and
callee types as it goes. It shares only the data types and the trap
classes with production, so ``tests/test_wasm_compiled_differential.py``
and ``benchmarks/bench_perf_primitives.py`` can check and time the
compiled interpreter against an independent answer:

- :class:`Instance` — the name-dispatch interpreter (signed division
  truncates exactly and traps ``INT_MIN / -1`` as the spec requires);
- :class:`CountingInstance` — the subclass that tallied the executed mix
  in ``_execute_simple``, the hook the dynamic detector used to use;
- :func:`profile_execution` — :func:`repro.core.dynamic.profile_execution`
  on a :class:`CountingInstance`, returning ``(DynamicProfile, counts,
  instance)``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

from repro.core.dynamic import DynamicProfile
from repro.wasm import opcodes
from repro.wasm.decoder import decode_module
from repro.wasm.interp import PAGE_SIZE, FuelExhausted, WasmTrap
from repro.wasm.types import CodeEntry, Instr, Module, ValType

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


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


@dataclass
class _Block:
    """One entry of the control stack."""

    kind: str          # block | loop | if
    start: int         # pc of the structured instruction
    end: int           # pc of the matching end
    else_: int = -1    # pc of else (if-blocks)
    stack_depth: int = 0


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


@dataclass
class Instance:
    """An instantiated module ready for invocation.

    ``imports`` maps ``(module, name)`` to host callables for imported
    functions. ``fuel`` bounds the number of executed instructions per
    invocation (the corpus kernels contain real loops).
    """

    module: Module
    imports: dict = field(default_factory=dict)
    fuel: int = 2_000_000
    memory: bytearray = field(default_factory=bytearray)
    globals_: list = field(default_factory=list)
    _spans_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.module.memories:
            self.memory = bytearray(self.module.memories[0].minimum * PAGE_SIZE)
        for glob in self.module.globals_:
            self.globals_.append(glob.init.operands[0] if glob.init.operands else 0)
        for imp in self.module.imports:
            if imp.kind == 0 and (imp.module, imp.name) not in self.imports:
                # default host stub: abort traps, anything else returns 0
                if imp.name == "abort":
                    self.imports[(imp.module, imp.name)] = _abort
                else:
                    self.imports[(imp.module, imp.name)] = lambda *args: 0

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

    # -- execution ----------------------------------------------------------------

    def _call(self, func_index: int, args: list, budget: list) -> list:
        num_imported = self.module.num_imported_funcs()
        if func_index < num_imported:
            imp = [i for i in self.module.imports if i.kind == 0][func_index]
            host = self.imports[(imp.module, imp.name)]
            result = host(*args)
            if result is None:
                return []
            return [result & _MASK32 if isinstance(result, int) else result]

        local_index = func_index - num_imported
        try:
            code: CodeEntry = self.module.codes[local_index]
            functype = self.module.types[self.module.func_type_indices[local_index]]
        except IndexError:
            raise WasmTrap(f"function index {func_index} out of range") from None
        locals_: list = list(args)
        while len(locals_) < len(functype.params):
            locals_.append(0)
        for valtype in code.expanded_locals():
            locals_.append(0.0 if valtype in (ValType.F32, ValType.F64) else 0)

        body = code.body
        if id(body) not in self._spans_cache:
            self._spans_cache[id(body)] = _scan_blocks(body)
        spans = self._spans_cache[id(body)]

        stack: list = []
        control: list = []
        pc = 0
        while pc < len(body):
            if budget[0] <= 0:
                raise FuelExhausted("instruction budget exhausted")
            budget[0] -= 1
            instr = body[pc]
            name = instr.name

            if name == "end":
                if control:
                    control.pop()
                pc += 1
                continue
            if name in ("block", "loop"):
                end, _ = spans[pc]
                control.append(_Block(name, pc, end, stack_depth=len(stack)))
                pc += 1
                continue
            if name == "if":
                end, else_pc = spans[pc]
                condition = stack.pop()
                control.append(_Block("if", pc, end, else_pc, stack_depth=len(stack)))
                if condition:
                    pc += 1
                elif else_pc != -1:
                    pc = else_pc + 1
                else:
                    control.pop()
                    pc = end + 1
                continue
            if name == "else":
                # reached from the then-branch: skip to end
                block = control.pop()
                pc = block.end + 1
                continue
            if name in ("br", "br_if", "br_table"):
                if name == "br_if":
                    if not stack.pop():
                        pc += 1
                        continue
                    depth = instr.operands[0]
                elif name == "br":
                    depth = instr.operands[0]
                else:  # br_table
                    labels, default = instr.operands
                    selector = stack.pop()
                    depth = labels[selector] if 0 <= selector < len(labels) else default
                if depth >= len(control):
                    return self._finish(stack, functype)
                target = control[len(control) - 1 - depth]
                del control[len(control) - depth:]
                if target.kind == "loop":
                    del stack[target.stack_depth:]
                    pc = target.start + 1
                else:
                    del stack[target.stack_depth:]
                    control.pop()
                    pc = target.end + 1
                continue
            if name == "return":
                return self._finish(stack, functype)
            if name == "call":
                target = instr.operands[0]
                callee_type = self._type_of(target)
                call_args = [stack.pop() for _ in callee_type.params][::-1]
                stack.extend(self._call(target, call_args, budget))
                pc += 1
                continue
            if name == "call_indirect":
                raise WasmTrap("call_indirect unsupported (no tables in subset)")
            if name == "unreachable":
                raise WasmTrap("unreachable executed")

            self._execute_simple(instr, stack, locals_)
            pc += 1

        return self._finish(stack, functype)

    def _finish(self, stack: list, functype) -> list:
        results = len(functype.results)
        if results == 0:
            return []
        if len(stack) < results:
            raise WasmTrap("stack underflow at function exit")
        return stack[-results:]

    def _type_of(self, func_index: int):
        num_imported = self.module.num_imported_funcs()
        if func_index < num_imported:
            imp = [i for i in self.module.imports if i.kind == 0][func_index]
            return self.module.types[imp.desc]
        return self.module.types[self.module.func_type_indices[func_index - num_imported]]

    # -- memory -------------------------------------------------------------------

    def _mem_slice(self, addr: int, offset: int, size: int) -> int:
        effective = addr + offset
        if effective < 0 or effective + size > len(self.memory):
            raise WasmTrap(f"out-of-bounds memory access at {effective}")
        return effective

    def _load(self, addr: int, offset: int, size: int) -> int:
        start = self._mem_slice(addr, offset, size)
        return int.from_bytes(self.memory[start : start + size], "little")

    def _store(self, addr: int, offset: int, size: int, value: int) -> None:
        start = self._mem_slice(addr, offset, size)
        self.memory[start : start + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    # -- the straight-line instructions --------------------------------------------

    def _execute_simple(self, instr: Instr, stack: list, locals_: list) -> None:
        name = instr.name
        ops = instr.operands

        if name == "nop":
            return
        if name == "drop":
            stack.pop()
            return
        if name == "select":
            condition = stack.pop()
            b = stack.pop()
            a = stack.pop()
            stack.append(a if condition else b)
            return
        if name == "local.get":
            stack.append(locals_[ops[0]])
            return
        if name == "local.set":
            locals_[ops[0]] = stack.pop()
            return
        if name == "local.tee":
            locals_[ops[0]] = stack[-1]
            return
        if name == "global.get":
            stack.append(self.globals_[ops[0]])
            return
        if name == "global.set":
            self.globals_[ops[0]] = stack.pop()
            return
        if name == "i32.const":
            stack.append(ops[0] & _MASK32)
            return
        if name == "i64.const":
            stack.append(ops[0] & _MASK64)
            return
        if name in ("f32.const", "f64.const"):
            stack.append(ops[0])
            return
        if name == "memory.size":
            stack.append(len(self.memory) // PAGE_SIZE)
            return
        if name == "memory.grow":
            delta = stack.pop()
            old_pages = len(self.memory) // PAGE_SIZE
            limit = self.module.memories[0].maximum if self.module.memories else None
            if limit is not None and old_pages + delta > limit:
                stack.append(_MASK32)  # -1: growth refused
            else:
                self.memory.extend(bytes(delta * PAGE_SIZE))
                stack.append(old_pages)
            return

        if "." in name:
            prefix, op = name.split(".", 1)
            if op.startswith("load"):
                self._exec_load(prefix, op, ops, stack)
                return
            if op.startswith("store"):
                self._exec_store(prefix, op, ops, stack)
                return
            if prefix in ("i32", "i64"):
                self._exec_int(prefix, op, stack)
                return
            if prefix in ("f32", "f64"):
                self._exec_float(prefix, op, stack)
                return
        raise WasmTrap(f"unsupported instruction {name}")

    def _exec_load(self, prefix: str, op: str, ops: tuple, stack: list) -> None:
        addr = stack.pop()
        _align, offset = ops
        bits = 32 if prefix == "i32" else 64
        if prefix in ("f32", "f64"):
            size = 4 if prefix == "f32" else 8
            raw = self._load(addr, offset, size)
            fmt = "<f" if prefix == "f32" else "<d"
            stack.append(struct.unpack(fmt, raw.to_bytes(size, "little"))[0])
            return
        if op in ("load",):
            size, signed = bits // 8, False
        else:
            width = int("".join(ch for ch in op if ch.isdigit()))
            size = width // 8
            signed = op.endswith("_s")
        value = self._load(addr, offset, size)
        if signed:
            value = _signed(value, size * 8) & ((1 << bits) - 1)
        stack.append(value & ((1 << bits) - 1))

    def _exec_store(self, prefix: str, op: str, ops: tuple, stack: list) -> None:
        value = stack.pop()
        addr = stack.pop()
        _align, offset = ops
        if prefix in ("f32", "f64"):
            fmt = "<f" if prefix == "f32" else "<d"
            raw = struct.pack(fmt, value)
            size = len(raw)
            self._store(addr, offset, size, int.from_bytes(raw, "little"))
            return
        if op == "store":
            size = 4 if prefix == "i32" else 8
        else:
            size = int("".join(ch for ch in op if ch.isdigit())) // 8
        self._store(addr, offset, size, value)

    def _exec_int(self, prefix: str, op: str, stack: list) -> None:
        bits = 32 if prefix == "i32" else 64
        mask = (1 << bits) - 1

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
        if op in unary:
            stack.append(unary[op](stack.pop()) & mask)
            return

        b = stack.pop()
        a = stack.pop()
        sa, sb = _signed(a, bits), _signed(b, bits)
        if op == "add":
            result = a + b
        elif op == "sub":
            result = a - b
        elif op == "mul":
            result = a * b
        elif op == "div_u":
            if b == 0:
                raise WasmTrap("integer divide by zero")
            result = a // b
        elif op == "div_s":
            if b == 0:
                raise WasmTrap("integer divide by zero")
            if sa == -(1 << (bits - 1)) and sb == -1:
                raise WasmTrap("integer overflow")
            result = _trunc_div(sa, sb) if sb else 0
        elif op == "rem_u":
            if b == 0:
                raise WasmTrap("integer divide by zero")
            result = a % b
        elif op == "rem_s":
            if b == 0:
                raise WasmTrap("integer divide by zero")
            result = sa - sb * _trunc_div(sa, sb)
        elif op == "and":
            result = a & b
        elif op == "or":
            result = a | b
        elif op == "xor":
            result = a ^ b
        elif op == "shl":
            result = a << (b % bits)
        elif op == "shr_u":
            result = a >> (b % bits)
        elif op == "shr_s":
            result = sa >> (b % bits)
        elif op == "rotl":
            result = _rotl(a, b, bits)
        elif op == "rotr":
            result = _rotl(a, bits - (b % bits), bits)
        elif op == "eq":
            result = int(a == b)
        elif op == "ne":
            result = int(a != b)
        elif op == "lt_u":
            result = int(a < b)
        elif op == "lt_s":
            result = int(sa < sb)
        elif op == "gt_u":
            result = int(a > b)
        elif op == "gt_s":
            result = int(sa > sb)
        elif op == "le_u":
            result = int(a <= b)
        elif op == "le_s":
            result = int(sa <= sb)
        elif op == "ge_u":
            result = int(a >= b)
        elif op == "ge_s":
            result = int(sa >= sb)
        else:
            raise WasmTrap(f"unsupported integer op {prefix}.{op}")
        stack.append(result & mask)

    def _exec_float(self, prefix: str, op: str, stack: list) -> None:
        unary = {
            "abs": abs,
            "neg": lambda a: -a,
            "sqrt": lambda a: math.sqrt(a) if a >= 0 else math.nan,
            "demote_f64": lambda a: struct.unpack("<f", struct.pack("<f", a))[0],
            "promote_f32": lambda a: a,
        }
        if op in unary:
            stack.append(unary[op](stack.pop()))
            return
        b = stack.pop()
        a = stack.pop()
        if op == "add":
            stack.append(a + b)
        elif op == "sub":
            stack.append(a - b)
        elif op == "mul":
            stack.append(a * b)
        elif op == "div":
            stack.append(a / b if b != 0 else math.inf if a > 0 else -math.inf if a < 0 else math.nan)
        elif op in ("eq", "ne", "lt", "gt", "le", "ge"):
            table: dict = {
                "eq": a == b, "ne": a != b, "lt": a < b,
                "gt": a > b, "le": a <= b, "ge": a >= b,
            }
            stack.append(int(table[op]))
        else:
            raise WasmTrap(f"unsupported float op {prefix}.{op}")


def _abort(*_args) -> None:
    raise WasmTrap("abort called")


@dataclass
class CountingInstance(Instance):
    """An interpreter instance that tallies executed instruction groups."""

    counts: dict = field(default_factory=lambda: {
        "total": 0, "xor": 0, "shift": 0, "rotate": 0,
        "load": 0, "store": 0, "float": 0,
    })

    def _execute_simple(self, instr: Instr, stack: list, locals_: list) -> None:
        counts = self.counts
        counts["total"] += 1
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
        elif name in opcodes.FLOAT_OPS:
            counts["float"] += 1
        super()._execute_simple(instr, stack, locals_)


def profile_execution(module_or_bytes, iterations: int = 64, fuel: int = 400_000) -> tuple:
    """``(DynamicProfile, counts, instance)`` from a :class:`CountingInstance`
    run of every exported function, as the dynamic detector profiled before."""
    if isinstance(module_or_bytes, (bytes, bytearray)):
        module = decode_module(bytes(module_or_bytes))
    elif isinstance(module_or_bytes, Module):
        module = module_or_bytes
    else:
        raise TypeError(f"expected Module or bytes, got {type(module_or_bytes).__name__}")

    instance = CountingInstance(module, fuel=fuel)
    ran_any = False
    for export in module.exports:
        if export.kind != 0:
            continue
        functype = instance._type_of(export.index)
        args = []
        for i, _param in enumerate(functype.params):
            args.append(iterations if i == 0 else 7 + i)
        try:
            instance.invoke_index(export.index, *args)
            ran_any = True
        except FuelExhausted:
            ran_any = True
        except WasmTrap:
            continue

    counts = instance.counts
    total = max(1, counts["total"])
    memory_pages = module.memories[0].minimum if module.memories else 0
    profile = DynamicProfile(
        executed=counts["total"],
        xor_density=counts["xor"] / total,
        shift_density=counts["shift"] / total,
        rotate_count=counts["rotate"],
        load_density=counts["load"] / total,
        float_density=counts["float"] / total,
        memory_pages=memory_pages,
        completed=ran_any,
    )
    return profile, dict(counts), instance
