"""CLI-level run ledger and ``repro obs`` toolkit tests.

Covers the acceptance criteria end to end: byte-identical artifacts for
the same seed + config under TickClock, report/diff exit codes, the
``--fail-on`` CI gate catching an injected fetch slowdown, torn-run
detection, and obs-flag plumbing across subcommands.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.analysis.parallel import can_fork
from repro.cli import main
from repro.obs.clock import TickClock, get_clock, use_clock
from repro.obs.ledger import load_run

CRAWL = [
    "--seed", "7", "crawl", "--dataset", "net", "--scale", "0.03",
    "--shards", "2",
]


def _crawl_run(run_dir, extra=(), seed="7"):
    argv = list(CRAWL)
    argv[1] = seed
    with use_clock(TickClock()):
        return main([*argv, "--run-dir", str(run_dir), *extra])


class TestRunDirDeterminism:
    def test_same_seed_and_config_is_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _crawl_run(a) == 0
        assert _crawl_run(b) == 0
        assert f"-> {a}" in capsys.readouterr().out
        for name in ("manifest.json", "metrics.json", "trace.jsonl",
                     "profile.json", "ledger.json", "COMPLETE"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_run_id_is_wall_clock_free(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _crawl_run(a)
        _crawl_run(b)
        manifest_a = json.loads((a / "manifest.json").read_text())
        manifest_b = json.loads((b / "manifest.json").read_text())
        assert manifest_a["run_id"] == manifest_b["run_id"]
        assert manifest_a["params"]["dataset"] == "net"

    @pytest.mark.skipif(not can_fork(), reason="needs the fork start method")
    def test_serial_and_process_runs_share_span_ids_and_counters(self, tmp_path):
        serial, forked = tmp_path / "s", tmp_path / "p"
        assert _crawl_run(serial) == 0
        assert _crawl_run(forked, extra=["--workers", "2"]) == 0
        a, b = load_run(serial), load_run(forked)
        assert {s.tags["mode"] for s in b.spans if s.name == "campaign"} == {"process"}
        assert {s.span_id for s in a.spans} == {s.span_id for s in b.spans}
        assert a.registry.counters == b.registry.counters
        assert a.registry.histogram_counts() == b.registry.histogram_counts()


class TestObsReport:
    def test_report_renders_and_exports_chrome_trace(self, tmp_path, capsys):
        run = tmp_path / "run"
        _crawl_run(run)
        capsys.readouterr()
        chrome = tmp_path / "chrome.json"
        assert main(["obs", "report", str(run), "--chrome-trace", str(chrome)]) == 0
        out = capsys.readouterr().out
        assert "critical paths" in out
        assert "stage attribution" in out
        assert "slowest sites" in out
        payload = json.loads(chrome.read_text())
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert complete and payload["otherData"]["run_id"].startswith("run-")

    def test_report_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "report", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().out

    def test_torn_run_detection(self, tmp_path, capsys):
        run = tmp_path / "run"
        _crawl_run(run)
        (run / "COMPLETE").unlink()
        capsys.readouterr()
        assert main(["obs", "report", str(run)]) == 1
        assert "COMPLETE" in capsys.readouterr().out
        assert main(["obs", "report", str(run), "--allow-torn"]) == 0
        assert "WARNING" in capsys.readouterr().out

    def test_mixed_run_marker_detected(self, tmp_path, capsys):
        run = tmp_path / "run"
        _crawl_run(run)
        (run / "COMPLETE").write_text("run-deadbeefcafe\n")
        capsys.readouterr()
        assert main(["obs", "report", str(run)]) == 1
        assert "mixed runs" in capsys.readouterr().out


class TestObsDiff:
    def test_identical_seed_runs_diff_to_zero(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _crawl_run(a)
        _crawl_run(b)
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 0
        assert "(no counter deltas)" in capsys.readouterr().out

    def test_refuses_incomparable_runs_unless_forced(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _crawl_run(a)
        _crawl_run(b, seed="8")
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 2
        out = capsys.readouterr().out
        assert "not comparable" in out and "seed" in out
        assert main(["obs", "diff", str(a), str(b), "--force"]) == 0

    def test_execution_strategy_changes_stay_comparable(self, tmp_path, capsys):
        # shards/workers are execution params, not workload identity
        a, b = tmp_path / "a", tmp_path / "b"
        _crawl_run(a)
        _crawl_run(b, extra=["--workers", "2"])
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b)]) == 0

    def test_fail_on_gate_catches_fetch_slowdown(self, tmp_path, capsys, monkeypatch):
        from repro.web.zgrab import ZgrabFetcher

        base, head = tmp_path / "base", tmp_path / "head"
        assert _crawl_run(base) == 0

        original = ZgrabFetcher._fetch_domain

        def slow_fetch(self, domain, ledger):
            for _ in range(10):  # extra clock reads inflate the fetch span
                get_clock().now()
            return original(self, domain, ledger)

        monkeypatch.setattr(ZgrabFetcher, "_fetch_domain", slow_fetch)
        assert _crawl_run(head) == 0
        capsys.readouterr()

        gate = ["--fail-on", "stage.fetch.p90>1.1x"]
        assert main(["obs", "diff", str(base), str(head), *gate]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out and "threshold(s) violated" in out
        # the same gate passes in the other direction (head is the fast run)
        assert main(["obs", "diff", str(head), str(base), *gate]) == 0

    def test_bad_fail_on_expression_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        _crawl_run(a)
        _crawl_run(b)
        capsys.readouterr()
        assert main(["obs", "diff", str(a), str(b), "--fail-on", "stage.fetch>1x"]) == 2
        assert "stat suffix" in capsys.readouterr().out


class TestObsFlagPlumbing:
    def test_crawl_honors_all_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run = tmp_path / "run"
        assert _crawl_run(
            run, extra=["--trace-out", str(trace), "--profile", "--heartbeat", "1"]
        ) == 0
        captured = capsys.readouterr()
        assert trace.exists()
        assert "stage profile" in captured.out
        assert (run / "COMPLETE").exists()
        assert "[hb]" in captured.err  # final heartbeat line on stderr

    def test_reproduce_honors_all_obs_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        run = tmp_path / "run"
        assert main([
            "reproduce", "--crawl-scale", "0.02", "--shortlink-scale", "0.0005",
            "--days", "1", "--out", str(tmp_path / "report.md"),
            "--trace-out", str(trace), "--profile",
            "--run-dir", str(run), "--heartbeat", "1",
        ]) == 0
        captured = capsys.readouterr()
        assert trace.exists()
        assert (run / "COMPLETE").exists()
        assert "[hb]" in captured.err

    @pytest.mark.parametrize("command", ["fingerprint", "nocoin", "disasm"])
    @pytest.mark.parametrize(
        "flag", [("--trace-out", "x"), ("--profile",), ("--run-dir", "x"), ("--heartbeat", "1")]
    )
    def test_non_campaign_commands_reject_obs_flags(self, command, flag, tmp_path):
        target = tmp_path / "f"
        target.write_bytes(b"\x00asm")
        with pytest.raises(SystemExit) as excinfo:
            main([command, *flag, str(target)])
        assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# verdict provenance surfaces: `obs explain` and `obs scorecard`


ALEXA_CRAWL = [
    "--seed", "11", "crawl", "--dataset", "alexa", "--scale", "0.05",
    "--shards", "2",
]


def _alexa_run(run_dir, extra=()):
    # alexa is the chrome-crawled dataset (spec.chrome_crawl), so its runs
    # carry chrome/wasm verdicts — what scorecards and explain exercise
    with use_clock(TickClock()):
        return main([*ALEXA_CRAWL, "--run-dir", str(run_dir), *extra])


@pytest.fixture(scope="module")
def verdict_run(tmp_path_factory):
    """One observed crawl whose verdicts all the explain/scorecard tests share."""
    run = tmp_path_factory.mktemp("verdicts") / "run"
    assert _alexa_run(run) == 0
    return run


class TestObsExplain:
    def test_explain_renders_every_crawled_domain(self, verdict_run, capsys):
        from repro.obs.evidence import read_verdicts_jsonl

        capsys.readouterr()
        subjects = {v.subject for v in read_verdicts_jsonl(verdict_run / "verdicts.jsonl")}
        assert subjects
        for subject in sorted(subjects):
            assert main(["obs", "explain", str(verdict_run), subject]) == 0
            out = capsys.readouterr().out
            assert subject in out
            assert "->" in out

    def test_chrome_miner_verdict_cites_concrete_evidence(self, verdict_run, capsys):
        from repro.obs.evidence import read_verdicts_jsonl

        verdicts = read_verdicts_jsonl(verdict_run / "verdicts.jsonl")
        miners = [v for v in verdicts if v.is_miner and v.pipeline == "chrome"]
        assert miners, "crawl found no miners — population too small for the test"
        capsys.readouterr()
        assert main(["obs", "explain", str(verdict_run), miners[0].subject]) == 0
        out = capsys.readouterr().out
        assert "MINER" in out
        assert f"confidence={miners[0].confidence:g}" in out
        assert "[" in out  # at least one [detector] evidence line

    def test_unknown_subject_hints_near_misses(self, verdict_run, capsys):
        from repro.obs.evidence import read_verdicts_jsonl

        some = sorted(
            {v.subject for v in read_verdicts_jsonl(verdict_run / "verdicts.jsonl")}
        )[0]
        capsys.readouterr()
        assert main(["obs", "explain", str(verdict_run), some[:4]]) == 1
        out = capsys.readouterr().out
        assert "no verdict for" in out
        assert "close:" in out

    def test_run_without_verdicts_fails_cleanly(self, tmp_path, capsys):
        run = tmp_path / "run"
        _crawl_run(run)
        (run / "verdicts.jsonl").unlink()
        capsys.readouterr()
        assert main(["obs", "explain", str(run), "anything"]) == 1
        assert "no verdicts.jsonl" in capsys.readouterr().out


class TestMalformedArtifact:
    """A bad record line is one ``error:`` line naming its file and line."""

    @pytest.mark.parametrize("artifact, line", [("verdicts.jsonl", "{}"), ("trace.jsonl", "5")])
    @pytest.mark.parametrize("command", ["explain", "report"])
    def test_bad_record_line_exits_1_without_traceback(
        self, verdict_run, tmp_path, capsys, artifact, line, command
    ):
        run = tmp_path / "run"
        shutil.copytree(verdict_run, run)
        path = run / artifact
        with path.open("a") as handle:
            handle.write(line + "\n")
        number = len(path.read_text().splitlines())
        argv = ["obs", command, str(run), *(["shop.example"] if command == "explain" else [])]
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        errors = [text for text in out.splitlines() if text.startswith("error:")]
        assert len(errors) == 1, out
        assert f"line {number} of {path}" in errors[0]
        assert "Traceback" not in out + err


class TestObsScorecard:
    def test_scorecard_renders_and_recall_gate_passes(self, verdict_run, capsys):
        capsys.readouterr()
        assert main([
            "obs", "scorecard", str(verdict_run),
            "--fail-on", "detector.wasm.recall<0.95",
        ]) == 0
        out = capsys.readouterr().out
        assert "per-detector scorecard" in out
        assert "detection factor" in out
        assert "nocoin_static" in out and "wasm" in out
        assert "detector.wasm.recall<0.95: measured" in out

    def test_scorecard_output_is_byte_identical_across_runs(self, verdict_run, tmp_path, capsys):
        twin = tmp_path / "twin"
        assert _alexa_run(twin) == 0
        assert (verdict_run / "verdicts.jsonl").read_bytes() == (
            twin / "verdicts.jsonl"
        ).read_bytes()
        capsys.readouterr()
        assert main(["obs", "scorecard", str(verdict_run)]) == 0
        first = capsys.readouterr().out
        assert main(["obs", "scorecard", str(twin)]) == 0
        assert capsys.readouterr().out == first

    def test_scorecard_is_identical_across_execution_params(self, verdict_run, tmp_path, capsys):
        # --heartbeat is an execution param: it changes the run id but not
        # the workload, so an identical-seed scorecard must not change
        twin = tmp_path / "heartbeat-twin"
        assert _alexa_run(twin, extra=("--heartbeat", "5")) == 0
        first_manifest = load_run(verdict_run).manifest
        twin_manifest = load_run(twin).manifest
        assert twin_manifest.run_id != first_manifest.run_id
        capsys.readouterr()
        assert main(["obs", "scorecard", str(verdict_run)]) == 0
        first = capsys.readouterr().out
        assert main(["obs", "scorecard", str(twin)]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith(f"workload {first_manifest.workload_id()} ")

    def test_every_miner_verdict_carries_evidence(self, verdict_run):
        from repro.obs.evidence import read_verdicts_jsonl

        verdicts = read_verdicts_jsonl(verdict_run / "verdicts.jsonl")
        miners = [v for v in verdicts if v.is_miner]
        assert miners
        for verdict in miners:
            assert verdict.evidence, f"miner verdict without evidence: {verdict.subject}"

    def test_violated_gate_exits_1(self, verdict_run, capsys):
        capsys.readouterr()
        assert main([
            "obs", "scorecard", str(verdict_run),
            "--fail-on", "detector.wasm.precision<1.5",  # precision <= 1.0 always
        ]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "1 threshold(s) violated" in out

    def test_unknown_metric_exits_2(self, verdict_run, capsys):
        capsys.readouterr()
        assert main([
            "obs", "scorecard", str(verdict_run), "--fail-on", "detector.nope.recall<0.5",
        ]) == 2
        assert "unknown scorecard metric" in capsys.readouterr().out

    def test_relative_gate_rejected(self, verdict_run, capsys):
        capsys.readouterr()
        assert main([
            "obs", "scorecard", str(verdict_run), "--fail-on", "detector.wasm.recall<0.9x",
        ]) == 2
        assert "drop the trailing 'x'" in capsys.readouterr().out

    def test_degraded_signature_db_trips_recall_gate(self, tmp_path, signature_db, capsys):
        """The CI canary: neutering the signature db must crater wasm recall."""
        degraded = tmp_path / "degraded.json"
        records = json.loads(signature_db.to_json())
        for record in records:
            record["is_miner"] = False
        degraded.write_text(json.dumps(records))

        run = tmp_path / "run"
        assert _alexa_run(run, extra=["--signature-db", str(degraded)]) == 0
        capsys.readouterr()
        assert main([
            "obs", "scorecard", str(run), "--fail-on", "detector.wasm.recall<0.95",
        ]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out


class TestResumeEvidenceIsolation:
    def test_observed_resume_discards_unobserved_journal(self, tmp_path):
        """A journal recorded without observability has no evidence to
        replay; an observed resume must re-run the sites rather than emit
        evidence-free verdicts."""
        from repro.obs.evidence import read_verdicts_jsonl

        ckpt = tmp_path / "ckpt"
        with use_clock(TickClock()):
            assert main([*CRAWL, "--resume-from", str(ckpt)]) == 0
        run = tmp_path / "run"
        assert _crawl_run(run, extra=["--resume-from", str(ckpt)]) == 0
        verdicts = read_verdicts_jsonl(run / "verdicts.jsonl")
        hits = [v for v in verdicts if v.nocoin_hit]
        assert hits
        for verdict in hits:
            assert verdict.evidence, f"evidence-free hit after resume: {verdict.subject}"
