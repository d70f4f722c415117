"""Tests for the WAT printer."""

from repro.wasm.builder import ModuleBlueprint
from repro.wasm.decoder import decode_module
from repro.wasm.wat import disassemble, print_function, print_module


class TestWatPrinter:
    def test_disassemble_miner(self, coinhive_wasm):
        text = disassemble(coinhive_wasm)
        assert text.startswith("(module")
        assert "i32.xor" in text
        assert '(export "_cryptonight_hash" (func' in text
        assert "(memory 33" in text

    def test_function_names_used(self, coinhive_wasm):
        module = decode_module(coinhive_wasm)
        text = print_function(module, 0)
        assert text.startswith("(func $cryptonight_hash")

    def test_unnamed_functions_get_index_comment(self, corpus):
        module = decode_module(corpus.build(ModuleBlueprint("notgiven688", 0)))
        text = print_function(module, 0)
        assert "(;1;)" in text  # index 1: after one imported function

    def test_max_functions_truncation(self, coinhive_wasm):
        module = decode_module(coinhive_wasm)
        text = print_module(module, max_functions=1)
        assert "more functions" in text

    def test_memarg_rendering(self, coinhive_wasm):
        text = disassemble(coinhive_wasm)
        assert "offset=" in text

    def test_control_flow_indented(self, coinhive_wasm):
        text = disassemble(coinhive_wasm)
        lines = text.splitlines()
        loop_lines = [l for l in lines if l.strip() == "loop"]
        assert loop_lines
        # something after a loop is deeper-indented
        index = lines.index(loop_lines[0])
        assert len(lines[index + 1]) - len(lines[index + 1].lstrip()) > len(
            loop_lines[0]
        ) - len(loop_lines[0].lstrip())
