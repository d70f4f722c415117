"""The per-instruction wasm expression decoder, kept as a test oracle.

:func:`repro.wasm.decoder.decode_expr` decodes an instruction stream from
one opcode table, reading single-byte immediates inline and sharing one
:class:`~repro.wasm.types.Instr` per no-immediate opcode. This is the pair
it replaced: :func:`decode_instr` looks each opcode up through
:func:`~repro.wasm.opcodes.spec_for`, dispatches on the immediate kind by
string and reads every immediate through the bounds-checked reader, and
:func:`decode_expr` tracks block depth by instruction name. One fix rides
along, as in production: a blocktype byte that is neither ``0x40`` nor a
value type raises :class:`~repro.wasm.decoder.WasmDecodeError` (the
original let the bare ``ValueError`` escape).

:func:`decode_module` is the production module decoder with this
expression decoder swapped in, so ``tests/test_wasm_decoder_differential.py``
and ``benchmarks/bench_perf_primitives.py`` compare exactly the part that
changed.
"""

from __future__ import annotations

import struct
from unittest import mock

from repro.wasm import decoder, opcodes
from repro.wasm.decoder import WasmDecodeError
from repro.wasm.types import Instr, ValType


def decode_instr(reader) -> Instr:
    """Decode one instruction at the reader cursor."""
    code = reader.byte()
    try:
        spec = opcodes.spec_for(code)
    except KeyError as exc:
        raise WasmDecodeError(str(exc)) from exc
    kind = spec.immediate
    if kind == "none":
        return Instr(spec.name)
    if kind == "blocktype":
        byte = reader.byte()
        try:
            blocktype = None if byte == 0x40 else ValType.from_byte(byte)
        except ValueError as exc:
            raise WasmDecodeError(str(exc)) from exc
        return Instr(spec.name, (blocktype,))
    if kind == "u32":
        return Instr(spec.name, (reader.u32(),))
    if kind == "u32x2":
        return Instr(spec.name, (reader.u32(), reader.u32()))
    if kind == "memarg":
        return Instr(spec.name, (reader.u32(), reader.u32()))
    if kind == "i32":
        return Instr(spec.name, (reader.s32(),))
    if kind == "i64":
        return Instr(spec.name, (reader.s64(),))
    if kind == "f32":
        return Instr(spec.name, (struct.unpack("<f", reader.bytes_(4))[0],))
    if kind == "f64":
        return Instr(spec.name, (struct.unpack("<d", reader.bytes_(8))[0],))
    if kind == "br_table":
        count = reader.u32()
        labels = tuple(reader.u32() for _ in range(count))
        return Instr(spec.name, (labels, reader.u32()))
    raise AssertionError(f"unhandled immediate kind {kind}")


def decode_expr(reader) -> list:
    """Decode instructions until the matching top-level ``end``."""
    depth = 0
    body: list[Instr] = []
    while True:
        instr = decode_instr(reader)
        body.append(instr)
        if instr.name in ("block", "loop", "if"):
            depth += 1
        elif instr.name == "end":
            if depth == 0:
                return body
            depth -= 1


def decode_module(data: bytes):
    """:func:`repro.wasm.decoder.decode_module` on this expression decoder.

    Patches the production module for the duration of the call: run
    nothing that decodes concurrently with it.
    """
    with mock.patch.object(decoder, "decode_expr", decode_expr):
        return decoder.decode_module(data)
