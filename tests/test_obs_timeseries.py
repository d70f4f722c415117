"""The windowed-telemetry recorder: ticks, rings, and the jsonl artifact.

The recorder is clock-agnostic by construction (the caller feeds it
time), so these tests drive it with plain floats and a hand-built
registry — no service, no campaign — and pin the contract the service
and campaign wiring rely on: counter deltas per tick, contiguous tick
indices including empty ticks, bounded eviction, fast-forward over poll
gaps, atomic per-tick flushing, and a schema-versioned artifact that
tolerates legacy headerless files but refuses future schemas.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.artifact import ArtifactSchemaError
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA_VERSION,
    HistogramWindow,
    RecorderProgress,
    TickRecord,
    TimeSeries,
    TimeSeriesRecorder,
    parse_dimensions,
    read_timeseries_jsonl,
    write_timeseries_jsonl,
)


class TestParseDimensions:
    def test_tenant_segment_is_lifted(self):
        base, labels = parse_dimensions("service.tenant.tenant-0.offered")
        assert base == "service.tenant.offered"
        assert labels == {"tenant": "tenant-0"}

    def test_tier_and_bundle(self):
        assert parse_dimensions("service.tier.static-only") == (
            "service.tier", {"tier": "static-only"},
        )
        assert parse_dimensions("service.bundle.refresh-1.verdicts") == (
            "service.bundle.verdicts", {"bundle": "refresh-1"},
        )

    def test_stratum(self):
        base, labels = parse_dimensions("crawl.zgrab0.stratum.top1k.hits")
        assert base == "crawl.zgrab0.stratum.hits"
        assert labels == {"stratum": "top1k"}

    def test_plain_names_pass_through(self):
        assert parse_dimensions("service.requests.offered") == (
            "service.requests.offered", {},
        )

    def test_trailing_token_without_value_passes_through(self):
        assert parse_dimensions("service.tier") == ("service.tier", {})


class TestRecorderTicks:
    def test_counters_become_per_tick_deltas(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        registry.inc("work.done", 3)
        assert recorder.poll(1.0) == 1
        registry.inc("work.done", 5)
        assert recorder.poll(2.0) == 1
        deltas = [record.counters.get("work.done", 0) for record in recorder.records]
        assert deltas == [3, 5]

    def test_empty_ticks_are_materialized(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=0.5)
        registry.inc("work.done")
        recorder.poll(2.0)
        assert [record.tick for record in recorder.records] == [0, 1, 2, 3]
        assert recorder.records[0].counters == {"work.done": 1}
        assert recorder.records[1].counters == {}

    def test_tick_times_are_relative_to_origin(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=0.5, origin=1000.0)
        recorder.poll(1001.0)
        assert [record.time for record in recorder.records] == [0.5, 1.0]

    def test_poll_before_first_boundary_emits_nothing(self):
        recorder = TimeSeriesRecorder(MetricsRegistry(), interval=1.0)
        assert recorder.poll(0.999) == 0
        assert recorder.records == []

    def test_histogram_deltas_are_windowed(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        registry.observe("service.latency", 0.004)
        recorder.poll(1.0)
        registry.observe("service.latency", 0.9)
        recorder.poll(2.0)
        first, second = recorder.records
        assert first.histograms["service.latency"].count == 1
        assert second.histograms["service.latency"].count == 1
        # the second window holds only the slow observation, not the tail
        assert second.histograms["service.latency"].quantile(0.5) == 1.0

    def test_gauges_snapshot_high_water(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        registry.gauge_max("service.queue.depth", 7)
        recorder.poll(1.0)
        assert recorder.records[0].gauges["service.queue.depth"] == 7


class TestRingBounds:
    def test_capacity_evicts_oldest_ticks(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0, capacity=3)
        for t in range(1, 6):
            registry.inc("work.done", t)
            recorder.poll(float(t))
        assert [record.tick for record in recorder.records] == [2, 3, 4]
        assert [record.counters["work.done"] for record in recorder.records] == [3, 4, 5]

    def test_fast_forward_over_a_long_gap(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0, capacity=4)
        registry.inc("work.done", 2)
        recorder.poll(1.0)
        registry.inc("work.done", 10)
        recorder.poll(100.0)  # 99 pending ticks, only 4 can be retained
        ticks = [record.tick for record in recorder.records]
        assert ticks == [96, 97, 98, 99]
        # the accumulated delta lands in the first retained tick
        assert recorder.records[0].counters == {"work.done": 10}
        assert recorder.records[1].counters == {}

    def test_capacity_must_cover_longest_alert_window(self):
        from repro.obs.alerts import AlertRule, AlertRuleSet

        rules = AlertRuleSet(
            rules=(AlertRule.parse("r", "shed_rate>0.5", windows=(5.0, 60.0)),)
        )
        with pytest.raises(ValueError, match="cannot cover"):
            TimeSeriesRecorder(MetricsRegistry(), interval=1.0, rules=rules, capacity=10)

    def test_invalid_interval_and_capacity(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(MetricsRegistry(), interval=0.0)
        with pytest.raises(ValueError):
            TimeSeriesRecorder(MetricsRegistry(), interval=1.0, capacity=0)


class TestFlush:
    def test_poll_flushes_after_each_emission(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0, flush_path=path)
        registry.inc("work.done")
        recorder.poll(1.0)
        live = read_timeseries_jsonl(path)
        assert len(live.records) == 1
        registry.inc("work.done")
        recorder.poll(2.0)
        assert len(read_timeseries_jsonl(path).records) == 2

    def test_flush_is_atomic_no_tmp_left_behind(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0, flush_path=path)
        recorder.finish(3.0)
        assert path.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_finish_flushes_even_without_new_ticks(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        recorder = TimeSeriesRecorder(MetricsRegistry(), interval=1.0, flush_path=path)
        recorder.finish(0.2)  # no completed tick yet
        assert read_timeseries_jsonl(path).records == []

    def test_finish_whose_poll_emitted_writes_once(self, tmp_path, monkeypatch):
        writes = []
        real_flush = TimeSeriesRecorder.flush

        def counting_flush(recorder):
            writes.append(recorder.flush_path)
            real_flush(recorder)

        monkeypatch.setattr(TimeSeriesRecorder, "flush", counting_flush)
        path = tmp_path / "timeseries.jsonl"
        recorder = TimeSeriesRecorder(MetricsRegistry(), interval=1.0, flush_path=path)
        recorder.finish(2.5)
        assert writes == [path]
        assert len(read_timeseries_jsonl(path).records) == 2

    def test_each_tick_is_encoded_once(self, tmp_path, monkeypatch):
        """N boundary-crossing polls with a flush path encode N records.

        Re-serializing the whole ring on every flush would make this
        N*(N+1)/2; the pin keeps the per-tick flush linear in the run.
        """
        from repro.obs.alerts import default_service_rules

        calls = []
        real_to_dict = TickRecord.to_dict

        def counting_to_dict(record):
            calls.append(record.tick)
            return real_to_dict(record)

        monkeypatch.setattr(TickRecord, "to_dict", counting_to_dict)
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(
            registry,
            interval=1.0,
            rules=default_service_rules(),
            flush_path=tmp_path / "timeseries.jsonl",
        )
        polls = 200
        for step in range(polls):
            registry.inc("service.requests.offered", 3)
            registry.observe("service.latency", 0.001 * (1 + step % 40))
            assert recorder.poll(float(step + 1)) == 1
        assert len(calls) == polls
        assert calls == list(range(polls))


    def test_each_flush_appends_only_its_own_lines(self, tmp_path):
        """After the first (atomic) write, a tick's flush grows the file by
        exactly that tick's encoded record line and alert lines."""
        from repro.obs.alerts import default_service_rules
        from repro.obs.artifact import dumps

        path = tmp_path / "timeseries.jsonl"
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(
            registry, interval=1.0, rules=default_service_rules(), capacity=200,
            flush_path=path,
        )
        registry.inc("service.requests.offered", 3)
        recorder.poll(1.0)
        before = path.read_bytes()
        fired = 0
        for step in range(1, 60):
            registry.inc("service.requests.offered", 10)
            registry.inc("service.rejected.queue_full", 9 if 20 <= step < 30 else 0)
            assert recorder.poll(float(step + 1)) == 1
            after = path.read_bytes()
            assert after.startswith(before)
            record = recorder.records[-1]
            events = [event for event in recorder.alerts if event.tick == record.tick]
            fired += len(events)
            expected = [dumps(record.to_dict())] + [dumps({"alert": e.to_dict()}) for e in events]
            assert after[len(before):].decode().splitlines() == expected
            before = after
        assert fired >= 2, "the shed burst should fire and resolve an alert"
        recorder.finish(60.5)
        assert path.read_text() == recorder.timeseries().to_jsonl()

    def test_appends_compact_once_capacity_lines_accumulate(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0, capacity=4, flush_path=path)
        for step in range(40):
            registry.inc("work.done", step)
            recorder.poll(float(step + 1))
            lines = path.read_text().splitlines()
            # header + at most the ring at the last rewrite + capacity appended
            assert len(lines) <= 1 + 2 * recorder.capacity
            on_disk = {r.tick: r.to_dict() for r in read_timeseries_jsonl(path).records}
            assert all(on_disk[r.tick] == r.to_dict() for r in recorder.records)
        recorder.finish(40.0)
        assert path.read_text() == recorder.timeseries().to_jsonl()
        assert len(path.read_text().splitlines()) == 1 + recorder.capacity


class TestRingAliasing:
    def test_merging_into_timeseries_leaves_the_ring_alone(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0, flush_path=path)
        registry.inc("work.done", 2)
        registry.observe("service.latency", 0.02)
        registry.gauge_max("service.queue.depth", 3)
        recorder.poll(2.0)
        before_records = [record.to_dict() for record in recorder.records]
        before_bytes = path.read_bytes()

        other = read_timeseries_jsonl(path)  # the same ticks, detached
        merged = recorder.timeseries().merge(other)
        assert merged.records[0].counters["work.done"] == 4
        assert [record.to_dict() for record in recorder.records] == before_records
        recorder.flush()
        assert path.read_bytes() == before_bytes


class TestRecorderProgress:
    def test_polls_on_advance_and_finish(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        times = iter([0.3, 1.2, 2.5])
        progress = RecorderProgress(recorder, inner=None, now=lambda: next(times))
        progress.begin(10)
        progress.advance(1)
        assert len(recorder.records) == 0
        progress.advance(1)
        assert len(recorder.records) == 1
        progress.finish()
        assert len(recorder.records) == 2

    def test_forwards_to_inner_reporter(self):
        from repro.obs.heartbeat import ProgressReporter

        lines = []
        inner = ProgressReporter(0.001, emit=lines.append)
        recorder = TimeSeriesRecorder(MetricsRegistry(), interval=1.0)
        times = iter([0.5, 1.5])
        progress = RecorderProgress(recorder, inner=inner, now=lambda: next(times))
        progress.begin(2)
        progress.advance(1)
        progress.finish()
        assert lines  # the inner reporter still emits
        assert len(recorder.records) == 1


class TestJsonlRoundTrip:
    def _series(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=0.5)
        registry.inc("service.requests.offered", 4)
        registry.observe("service.latency", 0.02)
        recorder.poll(0.5)
        registry.inc("service.requests.offered", 2)
        recorder.poll(1.5)
        return recorder.timeseries()

    def test_round_trip_is_lossless(self, tmp_path):
        series = self._series()
        path = tmp_path / "timeseries.jsonl"
        assert write_timeseries_jsonl(path, series) == 3
        loaded = read_timeseries_jsonl(path)
        assert loaded.to_jsonl() == series.to_jsonl()
        assert loaded.interval == series.interval

    def test_header_declares_current_schema(self, tmp_path):
        path = tmp_path / "timeseries.jsonl"
        write_timeseries_jsonl(path, self._series())
        header = json.loads(path.read_text().splitlines()[0])
        assert header["schema_version"] == TIMESERIES_SCHEMA_VERSION
        assert header["interval"] == 0.5

    def test_legacy_headerless_file_is_tolerated(self):
        legacy = (
            json.dumps({"tick": 0, "time": 0.5, "counters": {"x": 1}})
            + "\n"
            + json.dumps({"tick": 1, "time": 1.0, "counters": {}})
            + "\n"
        )
        series = TimeSeries.from_jsonl(legacy)
        assert [record.tick for record in series.records] == [0, 1]
        # interval recovered from the first record's end time
        assert series.interval == 0.5

    def test_future_schema_is_rejected(self):
        future = json.dumps(
            {"schema_version": TIMESERIES_SCHEMA_VERSION + 1, "interval": 1.0}
        )
        with pytest.raises(ArtifactSchemaError, match="upgrade repro"):
            TimeSeries.from_jsonl(future)

    def test_malformed_line_is_rejected(self):
        with pytest.raises(ArtifactSchemaError, match="malformed"):
            TimeSeries.from_jsonl("not json\n")
        with pytest.raises(ArtifactSchemaError, match="unrecognized"):
            TimeSeries.from_jsonl('{"neither": "tick nor alert"}\n')
        with pytest.raises(ArtifactSchemaError, match="line 1 .*missing field 'time'"):
            TimeSeries.from_jsonl('{"tick": 0}\n')
        with pytest.raises(ArtifactSchemaError, match="malformed interval 'x'"):
            TimeSeries.from_jsonl('{"interval": "x", "schema_version": 1}\n')

    def test_alert_events_round_trip(self):
        from repro.obs.alerts import AlertEvent

        series = TimeSeries(interval=1.0)
        series.records.append(TickRecord(tick=0, time=1.0, counters={"x": 1}))
        series.alerts.append(
            AlertEvent(
                rule="shed-burn",
                kind="fire",
                tick=0,
                time=1.0,
                expr="shed_rate>0.2",
                tier="static-only",
                windows=((5.0, 0.6, 0.2, ">"),),
                summary="shed-burn firing",
            )
        )
        loaded = TimeSeries.from_jsonl(series.to_jsonl())
        assert loaded.to_jsonl() == series.to_jsonl()
        event = loaded.alerts[0]
        assert event.windows == ((5.0, 0.6, 0.2, ">"),)
        assert event.tier == "static-only"


class TestHistogramWindow:
    def test_counts_must_match_bounds(self):
        with pytest.raises(ValueError):
            HistogramWindow(bounds=(1.0, 2.0), counts=[1, 2])

    def test_quantile_is_covering_bucket_upper_bound(self):
        window = HistogramWindow(bounds=(0.1, 1.0), counts=[3, 1, 0], count=4)
        assert window.quantile(0.5) == 0.1
        assert window.quantile(0.99) == 1.0

    def test_overflow_bucket_reports_top_bound_not_inf(self):
        window = HistogramWindow(bounds=(0.1, 1.0), counts=[0, 0, 2], count=2)
        assert window.quantile(0.99) == 1.0

    def test_empty_window_quantile_is_zero(self):
        window = HistogramWindow(bounds=(0.1,), counts=[0, 0])
        assert window.quantile(0.5) == 0.0
        assert window.mean_seconds == 0.0

    def test_merge_requires_matching_bounds(self):
        a = HistogramWindow(bounds=(0.1,), counts=[1, 0], count=1)
        b = HistogramWindow(bounds=(0.2,), counts=[1, 0], count=1)
        with pytest.raises(ValueError, match="bounds differ"):
            a.merge(b)


class TestLedgerIntegration:
    def _write(self, run_dir, series):
        from repro.obs.ledger import RunManifest, write_run

        manifest = RunManifest.build(
            "loadgen", {"seed": 1, "timeseries_interval": series.interval},
            git_describe="test",
        )
        write_run(run_dir, manifest, MetricsRegistry(), [], timeseries=series)

    def test_timeseries_artifact_round_trips_through_run_dir(self, tmp_path):
        from repro.obs.ledger import load_run

        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        registry.inc("service.requests.offered", 9)
        recorder.poll(2.0)
        series = recorder.timeseries()
        self._write(tmp_path / "run", series)
        loaded = load_run(tmp_path / "run")
        assert loaded.timeseries is not None
        assert loaded.timeseries.to_jsonl() == series.to_jsonl()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert "timeseries.jsonl" in manifest["artifacts"]

    def test_empty_timeseries_writes_no_artifact(self, tmp_path):
        from repro.obs.ledger import load_run

        self._write(tmp_path / "run", TimeSeries(interval=1.0))
        assert not (tmp_path / "run" / "timeseries.jsonl").exists()
        assert load_run(tmp_path / "run").timeseries is None

    def test_rewrite_without_timeseries_removes_stale_artifact(self, tmp_path):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        registry.inc("x")
        recorder.poll(1.0)
        self._write(tmp_path / "run", recorder.timeseries())
        assert (tmp_path / "run" / "timeseries.jsonl").exists()
        self._write(tmp_path / "run", TimeSeries(interval=1.0))
        assert not (tmp_path / "run" / "timeseries.jsonl").exists()

    def test_timeseries_interval_is_an_execution_param(self):
        from repro.obs.ledger import RunManifest

        a = RunManifest.build(
            "loadgen", {"seed": 1, "timeseries_interval": 0.5, "cooldown": 10.0},
            git_describe="test",
        )
        b = RunManifest.build(
            "loadgen", {"seed": 1, "timeseries_interval": 0.0, "cooldown": 0.0},
            git_describe="test",
        )
        assert a.identity() == b.identity()
