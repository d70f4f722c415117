"""Tests for the repro-mining CLI."""

import pathlib

import pytest

from repro.cli import main
from repro.wasm.builder import ModuleBlueprint, WasmCorpusBuilder


@pytest.fixture()
def wasm_file(tmp_path, corpus):
    path = tmp_path / "miner.wasm"
    path.write_bytes(corpus.build(ModuleBlueprint("coinhive", 0)))
    return path


@pytest.fixture()
def benign_file(tmp_path, corpus):
    path = tmp_path / "game.wasm"
    path.write_bytes(corpus.build(ModuleBlueprint("game-engine", 0)))
    return path


class TestFingerprint:
    def test_miner_detected(self, wasm_file, capsys):
        assert main(["fingerprint", str(wasm_file)]) == 0
        out = capsys.readouterr().out
        assert "MINER" in out
        assert "family=coinhive" in out
        assert "signature" in out

    def test_benign_detected(self, benign_file, capsys):
        assert main(["fingerprint", str(benign_file)]) == 0
        assert "benign" in capsys.readouterr().out

    def test_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "junk.wasm"
        path.write_bytes(b"junkjunkjunk")
        assert main(["fingerprint", str(path)]) == 1
        assert "not a decodable" in capsys.readouterr().out


class TestNoCoin:
    def test_hit_exits_2(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text('<script src="https://coinhive.com/lib/coinhive.min.js"></script>')
        assert main(["nocoin", str(page)]) == 2
        assert "HIT" in capsys.readouterr().out

    def test_clean_exits_0(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text("<html><body>hello</body></html>")
        assert main(["nocoin", str(page)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_custom_list(self, tmp_path, capsys):
        page = tmp_path / "page.html"
        page.write_text('<script src="https://evil.example/m.js"></script>')
        rules = tmp_path / "rules.txt"
        rules.write_text("! comment\n||evil.example^\n")
        assert main(["nocoin", "--list", str(rules), str(page)]) == 2


class TestCampaignCommands:
    def test_crawl_net(self, capsys):
        assert main(["--seed", "3", "crawl", "--dataset", "net", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "zgrab pass" in out
        assert "dataset=net" in out

    def test_crawl_alexa_includes_chrome(self, capsys):
        assert main(["--seed", "3", "crawl", "--dataset", "alexa", "--scale", "0.03"]) == 0
        out = capsys.readouterr().out
        assert "Chrome pass" in out
        assert "detection factor" in out

    def test_crawl_population_size_on_chrome_dataset_is_a_hard_error(self, capsys):
        # streaming serves the zgrab plane only; silently skipping the Chrome
        # pass would drop half the paper's tables, so it must refuse loudly
        assert main(
            ["crawl", "--dataset", "alexa", "--population-size", "100"]
        ) == 2
        captured = capsys.readouterr()
        assert "zgrab plane only" in captured.err
        assert "--zgrab-only" in captured.err
        assert "zgrab pass" not in captured.out  # nothing ran

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["crawl", "--dataset", "alexa", "--scale", "-1"], "--scale"),
            (["crawl", "--dataset", "com", "--scale", "0"], "--scale"),
            (
                ["crawl", "--dataset", "com", "--population-size", "-5", "--zgrab-only"],
                "--population-size",
            ),
            (
                ["crawl", "--dataset", "com", "--population-size", "100",
                 "--sample-per-stratum", "-3"],
                "--sample-per-stratum",
            ),
            (
                ["crawl", "--dataset", "com", "--population-size", "100", "--strata", "bad"],
                "--strata",
            ),
            (["reproduce", "--crawl-scale", "0"], "--crawl-scale"),
            (["shortlinks", "--scale", "-0.5"], "--scale"),
            (
                ["crawl", "--dataset", "net", "--scale", "0.03", "--sample-per-stratum", "5",
                 "--strata", "a:10:0.1,b::0.01"],
                "--strata",
            ),
            (["reproduce", "--sample-per-stratum", "5"], "--sample-per-stratum"),
        ],
    )
    def test_bad_campaign_value_is_one_error_line(self, argv, flag, capsys):
        # refused before any work: a negative scale used to run a 15-site
        # crawl, a negative --population-size a materialized scan
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag}")
        assert captured.err.count("\n") == 1

    def test_crawl_population_size_chrome_dataset_allowed_with_zgrab_only(self, capsys):
        assert main(
            [
                "--seed", "3", "crawl", "--dataset", "alexa",
                "--population-size", "60", "--zgrab-only",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "zgrab pass" in out
        assert "Chrome pass" not in out

    def test_shortlinks(self, capsys):
        assert main(["--seed", "3", "shortlinks", "--scale", "0.0005"]) == 0
        out = capsys.readouterr().out
        assert "top-1 share" in out

    def test_attribute(self, capsys):
        assert main(["--seed", "3", "attribute", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "attributed to Coinhive" in out

    def test_crawl_profile_prints_stage_table(self, capsys):
        assert main(
            ["--seed", "3", "crawl", "--dataset", "alexa", "--scale", "0.03", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "stage profile" in out
        for stage in ("site", "fetch", "detect"):
            assert stage in out

    def test_crawl_trace_out_writes_jsonl(self, tmp_path, capsys):
        from repro.obs.trace import read_jsonl

        trace = tmp_path / "trace.jsonl"
        assert main(
            [
                "--seed", "3", "crawl", "--dataset", "net", "--scale", "0.03",
                "--shards", "2", "--trace-out", str(trace),
            ]
        ) == 0
        assert f"-> {trace}" in capsys.readouterr().out
        spans = read_jsonl(trace)
        names = {span.name for span in spans}
        assert {"campaign", "shard", "site", "fetch"} <= names
        # every non-root span links to a span in the same file
        ids = {span.span_id for span in spans}
        assert all(span.parent_id in ids for span in spans if span.parent_id)

    def test_reproduce_profile_section(self, tmp_path, capsys):
        trace = tmp_path / "r.jsonl"
        out_file = tmp_path / "report.md"
        assert main(
            [
                "reproduce", "--crawl-scale", "0.02", "--shortlink-scale", "0.0005",
                "--days", "1", "--profile", "--trace-out", str(trace),
                "--out", str(out_file),
            ]
        ) == 0
        report = out_file.read_text()
        assert "## Stage profile" in report
        assert "network-sim" in report
        assert trace.exists()


class TestCorpus:
    def test_dump_family(self, tmp_path, capsys):
        assert main(["corpus", "--out", str(tmp_path / "c"), "--family", "jsminer"]) == 0
        files = list((tmp_path / "c").glob("*.wasm"))
        assert len(files) == 4  # jsminer has 4 variants
        assert files[0].read_bytes()[:4] == b"\x00asm"

    def test_roundtrip_with_fingerprint(self, tmp_path, capsys):
        main(["corpus", "--out", str(tmp_path / "c"), "--family", "cryptoloot"])
        sample = sorted((tmp_path / "c").glob("*.wasm"))[0]
        assert main(["fingerprint", str(sample)]) == 0
        assert "cryptoloot" in capsys.readouterr().out


class TestDisasm:
    def test_disasm_prints_wat(self, wasm_file, capsys):
        assert main(["disasm", str(wasm_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(module")
        assert "i32.xor" in out

    def test_disasm_truncates(self, wasm_file, capsys):
        assert main(["disasm", "--max-functions", "1", str(wasm_file)]) == 0
        assert "more functions" in capsys.readouterr().out

    def test_disasm_bad_file(self, tmp_path, capsys):
        path = tmp_path / "bad.wasm"
        path.write_bytes(b"nope")
        assert main(["disasm", str(path)]) == 1


class TestReproduce:
    def test_reproduce_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main([
            "--seed", "5", "reproduce", "--out", str(out),
            "--crawl-scale", "0.02", "--shortlink-scale", "0.0005", "--days", "1",
        ]) == 0
        text = out.read_text()
        assert "# Reproduction report" in text
        assert "Figure 2" in text
        assert "Table 6" in text
        assert "blocks attributed" in text
