"""Run-ledger persistence: manifests, fingerprints, torn-run detection."""

from __future__ import annotations

import json

import pytest

from repro.faults.ledger import FaultLedger
from repro.obs.artifact import ArtifactSchemaError
from repro.obs.clock import TickClock, use_clock
from repro.obs.ledger import (
    COMPLETE_MARKER,
    EXECUTION_PARAMS,
    OBS_SCHEMA_VERSION,
    RunManifest,
    TornRunError,
    campaign_fingerprint,
    load_run,
    write_run,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import make_obs

PARAMS = {
    "dataset": "net",
    "seed": 7,
    "scale": 0.03,
    "shards": 2,
    "workers": 1,
    "fault_profile": "",
    "heartbeat": 0.0,
}


def _registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("crawl.zgrab0.domains_probed", 42)
    registry.observe_ns("stage.fetch", 1_000_000)
    registry.observe_ns("stage.fetch", 7_000_000)
    registry.gauge_max("shard.max_sites", 21.0)
    return registry


def _spans():
    obs = make_obs(prefix="led")
    with use_clock(TickClock()):
        with obs.span("campaign", kind="zgrab"):
            with obs.span("shard", shard=0):
                with obs.span("site", domain="example.net"):
                    with obs.span("fetch"):
                        pass
    return obs.tracer.spans


class TestFingerprint:
    def test_deterministic_and_order_insensitive(self):
        a = campaign_fingerprint({"seed": 7, "dataset": "net"})
        b = campaign_fingerprint({"dataset": "net", "seed": 7})
        assert a == b
        assert a == campaign_fingerprint({"seed": 7, "dataset": "net"})

    def test_sensitive_to_every_param(self):
        base = campaign_fingerprint(PARAMS)
        for key in PARAMS:
            bumped = dict(PARAMS)
            bumped[key] = "changed"
            assert campaign_fingerprint(bumped) != base, key

    def test_run_id_derives_from_fingerprint_alone(self):
        m1 = RunManifest.build("crawl", PARAMS, git_describe="g1")
        m2 = RunManifest.build("crawl", PARAMS, git_describe="g2")
        assert m1.run_id == m2.run_id
        assert m1.run_id == "run-" + m1.fingerprint[:12]


class TestManifest:
    def test_identity_excludes_execution_params(self):
        base = RunManifest.build("crawl", PARAMS, git_describe="g")
        identity = base.identity()
        assert EXECUTION_PARAMS.isdisjoint(identity)
        heavy = dict(PARAMS, shards=8, workers=4, fault_profile="heavy", heartbeat=2.0)
        assert RunManifest.build("crawl", heavy, git_describe="g").identity() == identity

    def test_legacy_fastpath_param_keeps_runs_comparable(self, tmp_path):
        # Manifests written while the hot paths had a runtime switch carry
        # a "fastpath" param; new manifests have none.
        legacy = RunManifest.build("crawl", dict(PARAMS, fastpath=False), git_describe="g")
        current = RunManifest.build("crawl", PARAMS, git_describe="g")
        assert legacy.identity() == current.identity()
        assert legacy.run_id != current.run_id

        from repro.cli import main

        for name, manifest in (("legacy", legacy), ("current", current)):
            write_run(tmp_path / name, manifest, _registry(), _spans(), FaultLedger())
        assert main(["obs", "diff", str(tmp_path / "legacy"), str(tmp_path / "current")]) == 0

    def test_legacy_executor_param_keeps_runs_comparable(self):
        # Manifests written while crawls took an executor flag carry an
        # "executor" param; new manifests have none.
        legacy = RunManifest.build("crawl", dict(PARAMS, executor="thread"), git_describe="g")
        current = RunManifest.build("crawl", PARAMS, git_describe="g")
        assert legacy.identity() == current.identity()

    def test_identity_differs_on_workload_params(self):
        base = RunManifest.build("crawl", PARAMS, git_describe="g")
        other = RunManifest.build("crawl", dict(PARAMS, seed=8), git_describe="g")
        assert other.identity() != base.identity()

    def test_round_trip(self):
        manifest = RunManifest.build("crawl", PARAMS, git_describe="g")
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_future_schema_version_rejected(self):
        payload = RunManifest.build("crawl", PARAMS, git_describe="g").to_dict()
        payload["schema_version"] = OBS_SCHEMA_VERSION + 1
        with pytest.raises(ArtifactSchemaError, match="upgrade repro"):
            RunManifest.from_dict(payload)


class TestWriteLoad:
    def _write(self, run_dir):
        manifest = RunManifest.build("crawl", PARAMS, git_describe="g")
        ledger = FaultLedger()
        ledger.retries = 3
        write_run(run_dir, manifest, _registry(), _spans(), ledger)
        return manifest

    def test_round_trip(self, tmp_path):
        run = tmp_path / "run"
        manifest = self._write(run)
        artifacts = load_run(run)
        assert artifacts.complete
        assert artifacts.manifest == manifest
        assert artifacts.registry == _registry()
        assert [s.to_dict() for s in artifacts.spans] == [s.to_dict() for s in _spans()]
        assert artifacts.fault_ledger.retries == 3
        assert artifacts.profile  # per-stage rows persisted
        assert (run / COMPLETE_MARKER).read_text().strip() == manifest.run_id

    def test_same_inputs_write_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        self._write(a)
        self._write(b)
        for name in ("manifest.json", "metrics.json", "trace.jsonl",
                     "profile.json", "ledger.json", COMPLETE_MARKER):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_missing_marker_is_torn(self, tmp_path):
        run = tmp_path / "run"
        self._write(run)
        (run / COMPLETE_MARKER).unlink()
        with pytest.raises(TornRunError, match="no COMPLETE marker"):
            load_run(run)
        artifacts = load_run(run, allow_torn=True)
        assert not artifacts.complete

    def test_mismatched_marker_is_torn(self, tmp_path):
        run = tmp_path / "run"
        self._write(run)
        (run / COMPLETE_MARKER).write_text("run-deadbeefcafe\n")
        with pytest.raises(TornRunError, match="mixed runs"):
            load_run(run)
        assert not load_run(run, allow_torn=True).complete

    def test_rewrite_replaces_stale_marker(self, tmp_path):
        run = tmp_path / "run"
        self._write(run)
        manifest = RunManifest.build("crawl", dict(PARAMS, seed=8), git_describe="g")
        write_run(run, manifest, _registry(), _spans())
        assert load_run(run).manifest.run_id == manifest.run_id

    def test_not_a_run_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no manifest.json"):
            load_run(tmp_path / "nope")

    def test_future_manifest_on_disk_rejected(self, tmp_path):
        run = tmp_path / "run"
        self._write(run)
        payload = json.loads((run / "manifest.json").read_text())
        payload["schema_version"] = OBS_SCHEMA_VERSION + 1
        (run / "manifest.json").write_text(json.dumps(payload))
        with pytest.raises(ArtifactSchemaError):
            load_run(run)
