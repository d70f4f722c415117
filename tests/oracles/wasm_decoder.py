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
original let the bare ``ValueError`` escape). A second fix reads the
signed ``i32.const``/``i64.const`` immediates through :func:`_signed`,
which stops at the reader's window the way ``u32`` does (the original
read the next body's bytes before failing).

:func:`decode_module` is the production module decoder with this
expression decoder swapped in, so ``tests/test_wasm_decoder_differential.py``
and ``benchmarks/bench_perf_primitives.py`` compare exactly the part that
changed.
"""

from __future__ import annotations

import struct
from unittest import mock

from repro.wasm import decoder, leb128, opcodes
from repro.wasm.decoder import WasmDecodeError
from repro.wasm.types import Instr, ValType


def _signed(reader, max_bits: int) -> int:
    """A signed LEB128 immediate, held to the reader's window as ``u32`` is."""
    try:
        value, pos = leb128.decode_s(reader.data, reader.pos, max_bits=max_bits)
    except leb128.LEBError as exc:
        raise WasmDecodeError(str(exc)) from exc
    if pos > reader.end:
        raise WasmDecodeError("LEB128 ran past section end")
    reader.pos = pos
    return value


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
        return Instr(spec.name, (_signed(reader, 32),))
    if kind == "i64":
        return Instr(spec.name, (_signed(reader, 64),))
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
