"""CLI surface of the telemetry layer: serve --duration, loadgen
--timeseries-interval, and the obs timeline/top/export views.

The service runs entirely on seeded simulated time, so every assertion
here — including byte-identical twin artifacts — holds under the real
clock; no TickClock required. The exit-2 validations pin the flag
contract so a nonsensical combination fails before any work happens.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

OVERLOAD = [
    "--seed", "11", "loadgen", "--scale", "0.1", "--rate", "48",
    "--duration", "20", "--tenants", "4", "--fault-profile", "heavy",
    "--timeseries-interval", "0.5", "--cooldown", "10",
]

QUARTER = [
    "--seed", "11", "loadgen", "--scale", "0.1", "--rate", "6",
    "--duration", "20", "--tenants", "4",
    "--timeseries-interval", "0.5", "--cooldown", "10",
]


@pytest.fixture(scope="module")
def overload_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("ts") / "overload"
    assert main([*OVERLOAD, "--run-dir", str(run)]) == 0
    return run


@pytest.fixture(scope="module")
def quarter_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("ts") / "quarter"
    assert main([*QUARTER, "--run-dir", str(run)]) == 0
    return run


class TestServeValidation:
    def test_interval_without_duration_is_exit_2(self, capsys):
        assert main(["serve", "--timeseries-interval", "0.5"]) == 2
        assert "--duration" in capsys.readouterr().err

    def test_heartbeat_without_duration_is_exit_2(self, capsys):
        assert main(["serve", "--heartbeat", "0.01"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--duration" in err

    def test_interval_not_smaller_than_duration_is_exit_2(self, capsys):
        assert main(["serve", "--duration", "5", "--timeseries-interval", "5"]) == 2
        assert "smaller than" in capsys.readouterr().err

    def test_negative_interval_is_exit_2(self, capsys):
        assert main(["serve", "--duration", "5", "--timeseries-interval", "-1"]) == 2
        assert ">= 0" in capsys.readouterr().err

    def test_duration_with_domains_is_exit_2(self, capsys):
        assert main(["serve", "--duration", "5", "example.com"]) == 2
        assert "cannot be combined" in capsys.readouterr().err


class TestServeDuration:
    def test_duration_run_records_multiple_ticks(self, tmp_path, capsys):
        run = tmp_path / "serve"
        assert main([
            "--seed", "11", "serve", "--duration", "8", "--rate", "30",
            "--timeseries-interval", "0.5", "--run-dir", str(run),
        ]) == 0
        out = capsys.readouterr().out
        assert "timeseries:" in out
        assert (run / "timeseries.jsonl").exists()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["command"] == "serve"
        assert manifest["params"]["timeseries_interval"] == 0.5
        assert "timeseries.jsonl" in manifest["artifacts"]
        from repro.obs.timeseries import read_timeseries_jsonl

        series = read_timeseries_jsonl(run / "timeseries.jsonl")
        assert len(series.records) > 1

    def test_duration_run_skips_per_domain_table(self, capsys):
        assert main([
            "--seed", "11", "serve", "--duration", "4", "--rate", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "verdicts" not in out  # the demo table would be huge here
        assert "offered=" in out

    def test_heartbeat_reports_service_health(self, capsys):
        assert main([
            "--seed", "11", "serve", "--duration", "8", "--rate", "48",
            "--heartbeat", "2",
        ]) == 0
        err = capsys.readouterr().err
        assert "[hb] serve" in err
        assert "queue=" in err
        assert "shed=" in err
        assert "tier=" in err


class TestLoadgenTimeseries:
    def test_artifact_lands_in_run_dir(self, overload_run):
        assert (overload_run / "timeseries.jsonl").exists()
        manifest = json.loads((overload_run / "manifest.json").read_text())
        assert manifest["params"]["timeseries_interval"] == 0.5
        assert manifest["params"]["cooldown"] == 10.0
        assert "timeseries.jsonl" in manifest["artifacts"]

    def test_twin_runs_are_byte_identical(self, overload_run, tmp_path):
        twin = tmp_path / "twin"
        assert main([*OVERLOAD, "--run-dir", str(twin)]) == 0
        assert (
            (overload_run / "timeseries.jsonl").read_bytes()
            == (twin / "timeseries.jsonl").read_bytes()
        )

    def test_negative_interval_is_exit_2(self, capsys):
        assert main(["loadgen", "--timeseries-interval", "-0.5"]) == 2
        assert ">= 0" in capsys.readouterr().err

    def test_heartbeat_reports_service_health(self, capsys):
        assert main([
            "--seed", "11", "loadgen", "--rate", "30", "--duration", "6",
            "--heartbeat", "2",
        ]) == 0
        err = capsys.readouterr().err
        assert "[hb] loadgen" in err
        assert "queue=" in err and "shed=" in err and "tier=" in err


class TestObsTimeline:
    def test_renders_sparklines_and_alerts(self, overload_run, capsys):
        assert main(["obs", "timeline", str(overload_run)]) == 0
        out = capsys.readouterr().out
        assert "ticks at 0.5s" in out
        assert "service.requests.offered" in out
        assert "shed-burn firing" in out
        assert "shed-burn resolved" in out

    def test_metric_glob_filters_series(self, overload_run, capsys):
        assert main([
            "obs", "timeline", str(overload_run), "--metric", "service.rejected.*",
        ]) == 0
        out = capsys.readouterr().out
        assert "service.rejected.queue_full" in out
        assert "service.requests.offered" not in out

    def test_assert_fired_gate_passes_on_overload(self, overload_run):
        assert main([
            "obs", "timeline", str(overload_run),
            "--assert-fired", "shed-burn",
            "--assert-fired", "latency-burn",
        ]) == 0

    def test_assert_fired_gate_trips_on_quarter_capacity(self, quarter_run, capsys):
        assert main([
            "obs", "timeline", str(quarter_run), "--assert-fired", "shed-burn",
        ]) == 1
        assert "never did" in capsys.readouterr().err

    def test_assert_not_fired_gate_passes_on_quarter_capacity(self, quarter_run):
        assert main([
            "obs", "timeline", str(quarter_run),
            "--assert-not-fired", "shed-burn",
            "--assert-not-fired", "latency-burn",
            "--assert-not-fired", "error-burn",
        ]) == 0

    def test_assert_not_fired_gate_trips_on_overload(self, overload_run, capsys):
        assert main([
            "obs", "timeline", str(overload_run), "--assert-not-fired", "shed-burn",
        ]) == 1
        assert "stay silent" in capsys.readouterr().err

    def test_run_without_timeseries_fails_cleanly(self, tmp_path, capsys):
        run = tmp_path / "plain"
        assert main([
            "--seed", "11", "loadgen", "--rate", "10", "--duration", "4",
            "--run-dir", str(run),
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "timeline", str(run)]) == 1
        assert "no timeseries.jsonl" in capsys.readouterr().out


class TestObsTop:
    def test_reads_run_dir_without_complete_marker(self, overload_run, tmp_path, capsys):
        # obs top tails the tick-flushed artifact directly: a COMPLETE
        # marker (or even a manifest) is not required
        partial = tmp_path / "partial"
        partial.mkdir()
        (partial / "timeseries.jsonl").write_bytes(
            (overload_run / "timeseries.jsonl").read_bytes()
        )
        assert main(["obs", "top", str(partial)]) == 0
        out = capsys.readouterr().out
        assert "ticks retained" in out

    def test_windowed_service_line_over_busy_window(self, overload_run, capsys):
        # a window wide enough to reach back into the loaded phase
        assert main(["obs", "top", str(overload_run), "--window", "80"]) == 0
        out = capsys.readouterr().out
        assert "service: offered=" in out
        assert "shed=" in out
        assert "alerts firing: none" in out  # resolved during cooldown

    def test_missing_artifact_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "top", str(tmp_path)]) == 1
        assert "does not exist" in capsys.readouterr().out

    def test_watch_iterations_bound_the_loop(self, overload_run, capsys):
        assert main([
            "obs", "top", str(overload_run), "--watch", "0.01", "--iterations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("ticks retained") == 2

    def test_watch_terminates_on_header_only_artifact(self, tmp_path, capsys):
        # a run that registered its flush path but never completed a tick:
        # a bounded watch must wait, not render — and must still terminate
        run = tmp_path / "young"
        run.mkdir()
        (run / "timeseries.jsonl").write_text(
            '{"interval":0.5,"schema_version":1}\n'
        )
        assert main([
            "obs", "top", str(run), "--watch", "0.01", "--iterations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("no tick records yet") == 2
        assert "ticks retained" not in out

    def test_watch_treats_torn_artifact_as_transient(self, overload_run, tmp_path, capsys):
        # a tail can catch the flusher mid-write; watch keeps polling
        # instead of dying on the truncated line
        run = tmp_path / "torn"
        run.mkdir()
        intact = (overload_run / "timeseries.jsonl").read_text()
        (run / "timeseries.jsonl").write_text(intact.rstrip("\n")[:-5])
        assert main([
            "obs", "top", str(run), "--watch", "0.01", "--iterations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("(waiting) malformed timeseries line") == 2

    def test_torn_artifact_without_watch_is_exit_1(self, overload_run, tmp_path, capsys):
        run = tmp_path / "torn"
        run.mkdir()
        intact = (overload_run / "timeseries.jsonl").read_text()
        (run / "timeseries.jsonl").write_text(intact.rstrip("\n")[:-5])
        assert main(["obs", "top", str(run)]) == 1
        assert "malformed timeseries line" in capsys.readouterr().out


class TestObsExport:
    def test_prom_exposition_renders_dimensions_as_labels(self, overload_run, capsys):
        assert main(["obs", "export", str(overload_run), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_service_requests_offered_total counter" in out
        assert 'repro_service_tenant_offered_total{tenant="tenant-0"}' in out
        assert "# TYPE repro_service_latency_seconds histogram" in out
        assert 'le="+Inf"' in out

    def test_out_writes_file_deterministically(self, overload_run, tmp_path, capsys):
        a, b = tmp_path / "a.prom", tmp_path / "b.prom"
        assert main(["obs", "export", str(overload_run), "--out", str(a)]) == 0
        assert main(["obs", "export", str(overload_run), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "exposition lines" in capsys.readouterr().out

    def test_missing_run_fails_cleanly(self, tmp_path, capsys):
        assert main(["obs", "export", str(tmp_path / "nope")]) == 1
        assert "error" in capsys.readouterr().out

    def test_escape_label_round_trips_specials(self):
        # the three characters the exposition format escapes inside label
        # values; a scraper's unescape must recover the original exactly
        from repro.obs.prom import _escape_label

        def unescape(text):
            out, chars = [], iter(text)
            for char in chars:
                if char != "\\":
                    out.append(char)
                    continue
                follower = next(chars)
                out.append({"n": "\n", "\\": "\\", '"': '"'}[follower])
            return "".join(out)

        cases = [
            "plain", "back\\slash", 'quo"te', "new\nline",
            "\\", '\\"', "\\n",  # literal backslash-n must not become newline
            'all\\three\n"at once"\\\n',
        ]
        for value in cases:
            escaped = _escape_label(value)
            assert "\n" not in escaped  # stays on one exposition line
            assert unescape(escaped) == value


class TestCrawlTimeseries:
    def test_crawl_records_ticks_under_tick_clock(self, tmp_path, capsys):
        from repro.obs.clock import TickClock, use_clock
        from repro.obs.timeseries import read_timeseries_jsonl

        run = tmp_path / "crawl"
        with use_clock(TickClock()):
            assert main([
                "--seed", "7", "crawl", "--dataset", "net", "--scale", "0.03",
                "--timeseries-interval", "0.05",
                "--run-dir", str(run),
            ]) == 0
        out = capsys.readouterr().out
        assert "timeseries:" in out
        series = read_timeseries_jsonl(run / "timeseries.jsonl")
        assert series.records
        assert any(record.counters for record in series.records)
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["params"]["timeseries_interval"] == 0.05

    def test_crawl_timeseries_is_deterministic_under_tick_clock(self, tmp_path):
        from repro.obs.clock import TickClock, use_clock

        runs = []
        for name in ("a", "b"):
            run = tmp_path / name
            with use_clock(TickClock()):
                assert main([
                    "--seed", "7", "crawl", "--dataset", "net", "--scale", "0.03",
                    "--timeseries-interval", "0.05",
                    "--run-dir", str(run),
                ]) == 0
            runs.append(run)
        a, b = runs
        assert (a / "timeseries.jsonl").read_bytes() == (b / "timeseries.jsonl").read_bytes()
