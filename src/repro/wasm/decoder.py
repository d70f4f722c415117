"""WebAssembly module decoder (binary format, MVP subset).

The decoder is the foundation of the paper's fingerprinting method: the
instrumented browser dumps raw ``.wasm`` bytes, and the analysis pipeline
needs the ordered function bodies (for the SHA-256 signature), the
instruction streams (for the XOR/shift/load feature counts), and the
function names (for the name-based hints).

The decoder is deliberately defensive: crawled binaries may be truncated or
adversarial, so every read is bounds-checked and all failures surface as
:class:`WasmDecodeError` rather than raw exceptions.
"""

from __future__ import annotations

import functools
import struct

from repro.wasm import leb128, opcodes
from repro.wasm.encoder import MAGIC, VERSION
from repro.wasm.types import (
    CodeEntry,
    Export,
    FuncType,
    Global,
    Import,
    Instr,
    Limits,
    Module,
    ValType,
)


class WasmDecodeError(ValueError):
    """Raised when the input is not a well-formed module (for our subset)."""


class _Reader:
    """Bounds-checked cursor over the module bytes."""

    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None) -> None:
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def byte(self) -> int:
        if self.pos >= self.end:
            raise WasmDecodeError("unexpected end of module")
        value = self.data[self.pos]
        self.pos += 1
        return value

    def bytes_(self, n: int) -> bytes:
        if self.pos + n > self.end:
            raise WasmDecodeError("unexpected end of module")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        try:
            value, self.pos = leb128.decode_u(self.data, self.pos, max_bits=32)
        except leb128.LEBError as exc:
            raise WasmDecodeError(str(exc)) from exc
        if self.pos > self.end:
            raise WasmDecodeError("LEB128 ran past section end")
        return value

    def s32(self) -> int:
        try:
            value, self.pos = leb128.decode_s(self.data, self.pos, max_bits=32)
        except leb128.LEBError as exc:
            raise WasmDecodeError(str(exc)) from exc
        if self.pos > self.end:
            raise WasmDecodeError("LEB128 ran past section end")
        return value

    def s64(self) -> int:
        try:
            value, self.pos = leb128.decode_s(self.data, self.pos, max_bits=64)
        except leb128.LEBError as exc:
            raise WasmDecodeError(str(exc)) from exc
        if self.pos > self.end:
            raise WasmDecodeError("LEB128 ran past section end")
        return value

    def name(self) -> str:
        length = self.u32()
        raw = self.bytes_(length)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WasmDecodeError("invalid UTF-8 in name") from exc

    def valtype(self) -> ValType:
        byte = self.byte()
        try:
            return ValType.from_byte(byte)
        except ValueError as exc:
            raise WasmDecodeError(str(exc)) from exc

    def limits(self) -> Limits:
        flag = self.byte()
        if flag == 0x00:
            return Limits(self.u32())
        if flag == 0x01:
            return Limits(self.u32(), self.u32())
        raise WasmDecodeError(f"invalid limits flag 0x{flag:02X}")


# Immediate kinds, as small ints for the decode table: none, one LEB128
# integer, two unsigned LEB128s, a block type, a float, a br_table.
_NONE, _LEB, _PAIR, _BLOCKTYPE, _FLOAT, _BR_TABLE = range(6)
#: immediate kind → (table kind, how the reader reads it)
_KINDS = {
    "none": (_NONE, None),
    "u32": (_LEB, _Reader.u32),
    "i32": (_LEB, _Reader.s32),
    "i64": (_LEB, _Reader.s64),
    "u32x2": (_PAIR, None),
    "memarg": (_PAIR, None),
    "blocktype": (_BLOCKTYPE, None),
    "f32": (_FLOAT, struct.Struct("<f")),
    "f64": (_FLOAT, struct.Struct("<d")),
    "br_table": (_BR_TABLE, None),
}
_END = opcodes.BY_NAME["end"].code


@functools.cache
def _decode_table() -> list:
    """Opcode byte → ``(kind, name, shared, read)``, ``None`` for an
    opcode outside the subset. Built on the first decode, so a process
    that never decodes wasm never holds it.

    ``shared`` holds the instructions that are the same wherever they
    occur, built once: the one :class:`Instr` of a no-immediate opcode,
    the 128 of a LEB128 opcode's single-byte encodings, a block opcode's
    one per block type byte. ``Instr`` is frozen, so one object can stand
    at every place. ``read`` is the :class:`_Reader` method for a longer
    LEB128, or the ``struct`` layout of a float.
    """
    table: list = [None] * 256
    for code, spec in opcodes.BY_CODE.items():
        kind, read = _KINDS[spec.immediate]
        name = spec.name
        shared = None
        if kind == _NONE:
            shared = Instr(name)
        elif kind == _LEB:
            signed = spec.immediate != "u32"
            shared = tuple(
                Instr(name, (byte - 0x80 if signed and byte & 0x40 else byte,))
                for byte in range(0x80)
            )
        elif kind == _BLOCKTYPE:
            shared = {0x40: Instr(name, (None,))}
            shared.update((t.value, Instr(name, (t,))) for t in ValType)
        table[code] = (kind, name, shared, read)
    return table


def decode_expr(reader: _Reader) -> list:
    """Decode instructions until the matching top-level ``end``.

    One table lookup per opcode. Single-byte LEB128 immediates (the
    common case: small indices, offsets and constants), block types and
    floats are read inline; every longer or rarer immediate goes through
    the bounds-checked :class:`_Reader`, so truncation, LEB128 length
    limits and section bounds fail exactly as there.
    """
    data = reader.data
    pos = reader.pos
    end = reader.end
    table = _decode_table()
    body: list[Instr] = []
    append = body.append
    depth = 0
    while True:
        if pos >= end:
            raise WasmDecodeError("unexpected end of module")
        code = data[pos]
        pos += 1
        entry = table[code]
        if entry is None:  # outside the subset: spec_for names the opcode
            try:
                opcodes.spec_for(code)
            except KeyError as exc:
                raise WasmDecodeError(str(exc)) from exc
        kind, name, shared, read = entry
        if kind == _NONE:
            append(shared)
            if code == _END:
                if depth == 0:
                    reader.pos = pos
                    return body
                depth -= 1
        elif kind == _LEB:
            if pos < end and data[pos] < 0x80:
                append(shared[data[pos]])
                pos += 1
            else:
                reader.pos = pos
                append(Instr(name, (read(reader),)))
                pos = reader.pos
        elif kind == _PAIR:
            if pos + 1 < end and data[pos] < 0x80 and data[pos + 1] < 0x80:
                append(Instr(name, (data[pos], data[pos + 1])))
                pos += 2
            else:
                reader.pos = pos
                first = reader.u32()
                append(Instr(name, (first, reader.u32())))
                pos = reader.pos
        elif kind == _BLOCKTYPE:
            if pos >= end:
                raise WasmDecodeError("unexpected end of module")
            instr = shared.get(data[pos])
            if instr is None:
                raise WasmDecodeError(f"invalid valtype byte 0x{data[pos]:02X}")
            append(instr)
            pos += 1
            depth += 1
        elif kind == _FLOAT:
            if pos + read.size > end:
                raise WasmDecodeError("unexpected end of module")
            append(Instr(name, read.unpack_from(data, pos)))
            pos += read.size
        else:  # br_table
            reader.pos = pos
            labels = tuple(reader.u32() for _ in range(reader.u32()))
            append(Instr(name, (labels, reader.u32())))
            pos = reader.pos


def _decode_functype(reader: _Reader) -> FuncType:
    tag = reader.byte()
    if tag != 0x60:
        raise WasmDecodeError(f"functype must start with 0x60, got 0x{tag:02X}")
    params = tuple(reader.valtype() for _ in range(reader.u32()))
    results = tuple(reader.valtype() for _ in range(reader.u32()))
    return FuncType(params, results)


def _decode_import(reader: _Reader) -> Import:
    module = reader.name()
    name = reader.name()
    kind = reader.byte()
    if kind == 0:
        desc: object = reader.u32()
    elif kind == 2:
        desc = reader.limits()
    elif kind == 3:
        desc = (reader.valtype(), bool(reader.byte()))
    else:
        raise WasmDecodeError(f"unsupported import kind {kind}")
    return Import(module, name, kind, desc)


def _decode_global(reader: _Reader) -> Global:
    valtype = reader.valtype()
    mutable = bool(reader.byte())
    expr = decode_expr(reader)
    if len(expr) != 2:
        raise WasmDecodeError("global initializer must be a single const + end")
    return Global(valtype, mutable, expr[0])


def _decode_code(reader: _Reader) -> CodeEntry:
    size = reader.u32()
    body_end = reader.pos + size
    if body_end > reader.end:
        raise WasmDecodeError("code entry runs past section end")
    sub = _Reader(reader.data, reader.pos, body_end)
    locals_: list[tuple[int, ValType]] = []
    for _ in range(sub.u32()):
        count = sub.u32()
        locals_.append((count, sub.valtype()))
    body = decode_expr(sub)
    if sub.pos != body_end:
        raise WasmDecodeError("trailing bytes after function body")
    reader.pos = body_end
    return CodeEntry(locals_=locals_, body=body)


def _decode_name_section(reader: _Reader, module: Module) -> None:
    """Parse module-name (id 0) and function-name (id 1) subsections."""
    while reader.remaining() > 0:
        sub_id = reader.byte()
        size = reader.u32()
        sub_end = reader.pos + size
        if sub_end > reader.end:
            raise WasmDecodeError("name subsection runs past section end")
        sub = _Reader(reader.data, reader.pos, sub_end)
        if sub_id == 0:
            module.module_name = sub.name()
        elif sub_id == 1:
            for _ in range(sub.u32()):
                index = sub.u32()
                module.func_names[index] = sub.name()
        # other subsections (locals etc.) are skipped
        reader.pos = sub_end


def decode_module(data: bytes) -> Module:
    """Decode WebAssembly binary ``data`` into a :class:`Module`.

    Raises :class:`WasmDecodeError` for anything malformed, truncated, or
    outside the supported MVP subset.
    """
    if len(data) < 8:
        raise WasmDecodeError("module shorter than header")
    if data[:4] != MAGIC:
        raise WasmDecodeError("bad magic: not a wasm module")
    if data[4:8] != VERSION:
        raise WasmDecodeError(f"unsupported wasm version {data[4:8]!r}")

    module = Module()
    reader = _Reader(data, 8)
    last_id = 0
    while reader.remaining() > 0:
        section_id = reader.byte()
        size = reader.u32()
        section_end = reader.pos + size
        if section_end > reader.end:
            raise WasmDecodeError("section runs past end of module")
        if section_id != 0:
            if section_id <= last_id:
                raise WasmDecodeError(
                    f"section id {section_id} out of order (after {last_id})"
                )
            last_id = section_id
        sub = _Reader(reader.data, reader.pos, section_end)
        if section_id == 0:
            custom_name = sub.name()
            if custom_name == "name":
                _decode_name_section(sub, module)
        elif section_id == 1:
            module.types = [_decode_functype(sub) for _ in range(sub.u32())]
        elif section_id == 2:
            module.imports = [_decode_import(sub) for _ in range(sub.u32())]
        elif section_id == 3:
            module.func_type_indices = [sub.u32() for _ in range(sub.u32())]
        elif section_id == 5:
            module.memories = [sub.limits() for _ in range(sub.u32())]
        elif section_id == 6:
            module.globals_ = [_decode_global(sub) for _ in range(sub.u32())]
        elif section_id == 7:
            module.exports = [
                Export(sub.name(), sub.byte(), sub.u32()) for _ in range(sub.u32())
            ]
        elif section_id == 10:
            module.codes = [_decode_code(sub) for _ in range(sub.u32())]
        else:
            # tolerated-but-ignored sections (table/start/element/data)
            pass
        reader.pos = section_end

    if len(module.codes) != len(module.func_type_indices):
        raise WasmDecodeError(
            f"function section declares {len(module.func_type_indices)} functions "
            f"but code section has {len(module.codes)} bodies"
        )
    return module


def function_body_bytes(data: bytes) -> list:
    """Return the raw encoded bytes of each function body, in module order.

    This is what the paper's signature method hashes: the function bodies
    "combined in a strict order". Re-encoding decoded bodies would lose
    byte-level quirks, so we slice the original binary instead.
    """
    if len(data) < 8 or data[:4] != MAGIC:
        raise WasmDecodeError("not a wasm module")
    reader = _Reader(data, 8)
    bodies: list[bytes] = []
    while reader.remaining() > 0:
        section_id = reader.byte()
        size = reader.u32()
        section_end = reader.pos + size
        if section_end > reader.end:
            raise WasmDecodeError("section runs past end of module")
        if section_id == 10:
            sub = _Reader(reader.data, reader.pos, section_end)
            for _ in range(sub.u32()):
                body_size = sub.u32()
                bodies.append(sub.bytes_(body_size))
        reader.pos = section_end
    return bodies
