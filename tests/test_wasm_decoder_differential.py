"""Differential battery: the table-driven expression decoder against the
per-instruction oracle in ``tests/oracles/wasm_decoder.py``.

Everything downstream of the decoder — signatures, static features, the
compiled interpreter — reads the decoded :class:`~repro.wasm.types.Module`,
so the table-driven decoder must agree with the one it replaced on every
input: the same module (compared by ``repr``, so a NaN float immediate
equals itself), or the same :class:`~repro.wasm.decoder.WasmDecodeError`
message. Inputs: every corpus module and its dead-code-padded twin,
byte-mutants of corpus modules, and generated instruction streams decoded
inside a bounded reader window (LEB128 immediates that run past the
window, truncated floats, unknown opcodes, bad block types).

A malformed capture must never raise anything but ``WasmDecodeError``:
the classifier, the dynamic detector and the verdict server all rely on
it to turn a bad module into an answer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.classifier import MinerClassifier
from repro.core.dynamic import DynamicDecision, DynamicMinerDetector
from repro.wasm import opcodes
from repro.wasm.builder import WasmCorpusBuilder, all_blueprints
from repro.wasm.decoder import WasmDecodeError, _Reader, decode_expr, decode_module
from repro.wasm.encoder import encode_module
from repro.wasm.obfuscate import pad_dead_code
from repro.wasm.types import CodeEntry, Export, FuncType, Instr, Module
from tests.oracles import wasm_decoder as oracle

_BLUEPRINTS = all_blueprints()
_BUILDER = WasmCorpusBuilder()
#: opcode bytes the generated streams draw from, plus a few outside the subset
_OPCODE_BYTES = sorted(opcodes.BY_CODE) + [0x06, 0xFE, 0xFF]


def _outcome(decode, data) -> tuple:
    try:
        return ("ok", repr(decode(data)))
    except WasmDecodeError as exc:
        return ("error", str(exc))


def _assert_same(data: bytes) -> tuple:
    actual = _outcome(decode_module, data)
    assert actual == _outcome(oracle.decode_module, data)
    return actual


def _mutate(data: bytes, edits) -> bytes:
    """Overwrite bytes past the header; each edit is (position share, byte)."""
    out = bytearray(data)
    for share, byte in edits:
        out[8 + int(share * (len(out) - 9))] = byte
    return bytes(out)


_EDITS = st.lists(
    st.tuples(st.floats(0, 1), st.integers(0, 255)), min_size=1, max_size=4
)


def _block_typed(byte: int) -> bytes:
    """One exported function whose ``block`` carries blocktype ``byte``."""
    module = Module()
    module.types = [FuncType((), ())]
    module.func_type_indices = [0]
    module.exports = [Export("f", 0, 0)]
    module.codes = [CodeEntry(body=[Instr("block", (None,)), Instr("end"), Instr("end")])]
    good = encode_module(module)
    assert good.count(b"\x02\x40\x0b\x0b") == 1
    return good.replace(b"\x02\x40\x0b\x0b", bytes([0x02, byte, 0x0B, 0x0B]))


class TestCorpus:
    @pytest.mark.parametrize("padded", [False, True], ids=["plain", "padded"])
    def test_every_corpus_module_decodes_identically(self, padded):
        for blueprint in _BLUEPRINTS if not padded else _BLUEPRINTS[::4]:
            wasm = _BUILDER.build(blueprint)
            if padded:
                wasm = pad_dead_code(wasm)
            assert _assert_same(wasm)[0] == "ok", blueprint

    def test_no_immediate_instructions_are_shared(self):
        module = decode_module(_BUILDER.build(_BLUEPRINTS[0]))
        ends = [i for code in module.codes for i in code.body if i.name == "end"]
        assert len(ends) > 1
        assert all(instr is ends[0] for instr in ends)


class TestMutants:
    @settings(max_examples=300, deadline=None)
    @given(blueprint=st.sampled_from(_BLUEPRINTS), edits=_EDITS)
    def test_mutants_agree_with_the_oracle(self, blueprint, edits):
        _assert_same(_mutate(_BUILDER.build(blueprint), edits))

    @settings(max_examples=300, deadline=None)
    @given(blueprint=st.sampled_from(_BLUEPRINTS), edits=_EDITS)
    def test_mutants_raise_only_decode_errors(self, blueprint, edits):
        try:
            decode_module(_mutate(_BUILDER.build(blueprint), edits))
        except WasmDecodeError:
            pass


class TestExpressionStreams:
    """Raw instruction streams decoded in a reader window that may end
    before the data does, as a function body's sub-reader does."""

    @settings(max_examples=500, deadline=None)
    @given(
        stream=st.lists(
            st.one_of(st.sampled_from(_OPCODE_BYTES), st.integers(0, 255)), max_size=40
        ),
        cut=st.integers(0, 8),
    )
    def test_streams_agree_with_the_oracle(self, stream, cut):
        data = bytes(stream) + b"\x0b"
        end = max(0, len(data) - cut)

        def run(decode_expr_):
            reader = _Reader(data, 0, end)
            body = decode_expr_(reader)
            return body, reader.pos

        assert _outcome(lambda _: run(decode_expr), data) == _outcome(
            lambda _: run(oracle.decode_expr), data
        )

    @pytest.mark.parametrize(
        "body",
        [
            b"\x41\xff\xff\xff\xff\x0f\x0b",  # i32.const, 5-byte LEB128
            b"\x41\x80\x80\x80\x80\x80\x00\x0b",  # i32.const, over-long
            b"\x42\x80\x80\x80\x80\x80\x80\x80\x80\x80\x7f\x0b",  # i64.const, 10 bytes
            b"\x20\x80",  # local.get, truncated LEB128
            b"\x43\x00\x00\xc0",  # f32.const, truncated
            b"\x44\x00\x00\x00\x00\x00\x00\xf8\x7f\x0b",  # f64.const NaN
            b"\x28\x02\x80\x01\x0b",  # i32.load, two-byte offset
            b"\x0e\x02\x00\x01\x00\x0b",  # br_table
            b"\x02\x7f\x03\x40\x0b\x0b\x0b",  # nested block/loop
            b"\x04\x55\x0b\x0b",  # if with a bad block type
            b"\x06\x0b",  # opcode outside the subset
        ],
    )
    def test_edge_cases_agree_with_the_oracle(self, body):
        def run(decode_expr_):
            reader = _Reader(body)
            return decode_expr_(reader), reader.pos

        assert _outcome(lambda _: run(decode_expr), body) == _outcome(
            lambda _: run(oracle.decode_expr), body
        )

    @pytest.mark.parametrize(
        "body, end",
        [
            (b"\x41\x80\x01\x0b", 2),  # i32.const, LEB128 ends one byte past
            (b"\x42\x80\x80\x01\x0b", 3),  # i64.const, likewise
        ],
        ids=["i32", "i64"],
    )
    def test_signed_immediate_stops_at_the_window(self, body, end):
        for decode_expr_ in (decode_expr, oracle.decode_expr):
            with pytest.raises(WasmDecodeError, match="LEB128 ran past section end"):
                decode_expr_(_Reader(body, 0, end))


class TestBadBlockType:
    """A block type byte that is neither 0x40 nor a value type."""

    def test_decode_raises_a_decode_error(self):
        with pytest.raises(WasmDecodeError, match="invalid valtype byte 0x55"):
            decode_module(_block_typed(0x55))

    def test_the_empty_block_type_still_decodes(self):
        assert decode_module(_block_typed(0x40)).codes[0].body[0] == Instr("block", (None,))

    def test_classifier_and_dynamic_layer_answer(self):
        wasm = _block_typed(0x55)
        assert not MinerClassifier().classify_wasm(wasm).is_miner
        for _ in range(2):  # the second answer comes from the cached failure
            assert DynamicMinerDetector().explain(wasm) == (
                False, DynamicDecision(False, error="WasmDecodeError")
            )
