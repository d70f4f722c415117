"""Persisted run artifacts — the durable write side of campaign telemetry.

A *run directory* makes one ``crawl``/``reproduce`` invocation
self-describing and comparable after the process exits:

    run-dir/
      manifest.json   campaign fingerprint, params, git describe, schema,
                      and the list of artifact files actually written
      metrics.json    lossless MetricsRegistry export (counters, gauges,
                      integer-ns histogram buckets)
      trace.jsonl     spans
      profile.json    numeric per-stage latency stats
      ledger.json     fault-ledger counters
      verdicts.jsonl  per-subject detection verdicts with evidence chains
                      (observed runs only)
      timeseries.jsonl  windowed telemetry ticks and alert events (runs
                      recorded with --timeseries-interval only)
      graph.jsonl     campaign attribution graph derived from the verdict
                      evidence plus the population's includer edge layer
                      (observed runs only)
      COMPLETE        atomic completion marker

The ``*.jsonl`` files follow the versioned-JSONL contract of
:mod:`repro.obs.artifact`; the manifest's ``schema_version`` goes through
the same version check.

The ``COMPLETE`` marker is written last via ``os.replace`` and names the
run id, so a torn run (crash mid-write, or a marker left over from a
different configuration) is detected on load rather than silently
analyzed. The run id derives from the campaign fingerprint alone — no
wall clock, no pid — so the same seed + config always lands on the same
id and two runs of one configuration diff byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.faults.ledger import FaultLedger
# a module import: repro.graph.model itself imports repro.obs.artifact, so
# its names may not exist yet while this package initializes
from repro.graph import model as graph_model
from repro.obs.artifact import check_version, read_json, write_atomic
from repro.obs.evidence import read_verdicts_jsonl, write_verdicts_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_payload
from repro.obs.timeseries import TimeSeries, read_timeseries_jsonl, write_timeseries_jsonl
from repro.obs.trace import Span, read_jsonl, spans_to_jsonl

#: Version of the run-directory layout (manifest/metrics/profile schemas).
OBS_SCHEMA_VERSION = 1

COMPLETE_MARKER = "COMPLETE"

#: Campaign parameters that select an execution *strategy* rather than a
#: workload. Two runs that differ only here are still comparable in
#: ``repro obs diff`` — that is the whole point of diffing (e.g. a heavy
#: fault profile against a clean baseline, or 8 shards against 1).
#: ``fastpath`` and ``executor`` name no current option: manifests
#: written while the detection hot paths had a runtime switch, or while
#: crawls took an executor flag, carry the key, and keeping it here leaves
#: those run directories comparable with new ones.
EXECUTION_PARAMS = frozenset(
    {
        "shards",
        "workers",
        "executor",
        "fault_profile",
        "heartbeat",
        "fastpath",
        "timeseries_interval",
        "cooldown",
    }
)


class TornRunError(RuntimeError):
    """The run directory has no (or a mismatched) ``COMPLETE`` marker."""


def campaign_fingerprint(params: dict) -> str:
    """Deterministic digest of a campaign configuration."""
    canonical = json.dumps(params, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _git_describe() -> str:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return proc.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


@dataclass(frozen=True)
class RunManifest:
    """Identity card of one persisted run."""

    run_id: str
    fingerprint: str
    command: str
    params: dict
    git_describe: str = "unknown"
    schema_version: int = OBS_SCHEMA_VERSION
    #: artifact files actually written alongside this manifest (additive
    #: v1 field; absent in older manifests and excluded from identity).
    #: A write-time inventory, not part of the run's description — excluded
    #: from equality so a loaded manifest compares equal to the one built
    #: before write_run stamped the artifact list on it.
    artifacts: tuple = field(default=(), compare=False)

    @classmethod
    def build(cls, command: str, params: dict, git_describe: Optional[str] = None) -> "RunManifest":
        fingerprint = campaign_fingerprint({"command": command, **params})
        return cls(
            run_id="run-" + fingerprint[:12],
            fingerprint=fingerprint,
            command=command,
            params=dict(params),
            git_describe=git_describe if git_describe is not None else _git_describe(),
        )

    def identity(self) -> dict:
        """The workload identity two runs must share to be comparable."""
        return {
            "command": self.command,
            "schema_version": self.schema_version,
            **{k: v for k, v in self.params.items() if k not in EXECUTION_PARAMS},
        }

    def workload_id(self) -> str:
        """``workload-`` plus a digest of :meth:`identity`: shared by runs
        that differ only in execution params (shards, heartbeat, ...),
        unlike ``run_id``, which hashes every param."""
        return "workload-" + campaign_fingerprint(self.identity())[:12]

    def to_dict(self) -> dict:
        payload = {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "fingerprint": self.fingerprint,
            "command": self.command,
            "params": dict(sorted(self.params.items())),
            "git_describe": self.git_describe,
        }
        if self.artifacts:
            payload["artifacts"] = list(self.artifacts)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunManifest":
        version = check_version(
            payload.get("schema_version", 1), OBS_SCHEMA_VERSION, "manifest.json"
        )
        return cls(
            run_id=payload["run_id"],
            fingerprint=payload["fingerprint"],
            command=payload["command"],
            params=dict(payload.get("params", {})),
            git_describe=payload.get("git_describe", "unknown"),
            schema_version=version,
            artifacts=tuple(payload.get("artifacts", ())),
        )


@dataclass
class RunArtifacts:
    """Everything :func:`load_run` recovers from a run directory."""

    path: pathlib.Path
    manifest: RunManifest
    registry: MetricsRegistry
    spans: list
    fault_ledger: FaultLedger = field(default_factory=FaultLedger)
    profile: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    timeseries: Optional[TimeSeries] = None
    #: attribution graph (``graph.jsonl``); ``None`` when the run has none
    graph: Optional[graph_model.Graph] = None
    complete: bool = True


def _dump_json(path: pathlib.Path, payload) -> None:
    write_atomic(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_run(
    run_dir,
    manifest: RunManifest,
    registry: MetricsRegistry,
    spans: Iterable[Span],
    fault_ledger: Optional[FaultLedger] = None,
    verdicts=None,
    timeseries: Optional[TimeSeries] = None,
    graph: Optional[graph_model.Graph] = None,
) -> pathlib.Path:
    """Persist one run's artifacts; the ``COMPLETE`` marker lands last.

    ``verdicts`` (an iterable of
    :class:`~repro.obs.evidence.VerdictRecord`) lands as
    ``verdicts.jsonl``, and ``timeseries`` (a
    :class:`~repro.obs.timeseries.TimeSeries` from a run recorded with
    ``--timeseries-interval``) as ``timeseries.jsonl``; a stale file from
    a previous write into the same directory is removed when this run has
    none. The manifest lists every artifact file actually written.
    """
    directory = pathlib.Path(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    marker = directory / COMPLETE_MARKER
    if marker.exists():
        # Re-running into a dir must not leave a stale marker covering a
        # half-finished rewrite: drop it first, restore it last.
        marker.unlink()
    artifacts = ["manifest.json", "metrics.json", "trace.jsonl", "profile.json", "ledger.json"]
    verdicts = list(verdicts) if verdicts is not None else []
    verdicts_path = directory / "verdicts.jsonl"
    if verdicts:
        artifacts.append("verdicts.jsonl")
    elif verdicts_path.exists():
        verdicts_path.unlink()
    timeseries_path = directory / "timeseries.jsonl"
    has_timeseries = timeseries is not None and bool(
        timeseries.records or timeseries.alerts
    )
    if has_timeseries:
        artifacts.append("timeseries.jsonl")
    elif timeseries_path.exists():
        timeseries_path.unlink()
    graph_path = directory / "graph.jsonl"
    has_graph = graph is not None and bool(graph)
    if has_graph:
        artifacts.append("graph.jsonl")
    elif graph_path.exists():
        graph_path.unlink()
    manifest = replace(manifest, artifacts=tuple(artifacts))
    _dump_json(directory / "manifest.json", manifest.to_dict())
    _dump_json(directory / "metrics.json", registry.to_dict())
    write_atomic(directory / "trace.jsonl", spans_to_jsonl(spans))
    _dump_json(directory / "profile.json", profile_payload(registry))
    _dump_json(directory / "ledger.json", (fault_ledger or FaultLedger()).to_dict())
    if verdicts:
        write_verdicts_jsonl(verdicts_path, verdicts)
    if has_timeseries:
        write_timeseries_jsonl(timeseries_path, timeseries)
    if has_graph:
        graph_model.write_graph_jsonl(graph_path, graph)
    write_atomic(marker, manifest.run_id + "\n")
    return directory


def record_run(
    run_dir,
    command: str,
    params: dict,
    registry: MetricsRegistry,
    fault_ledger: FaultLedger,
    spans: Iterable[Span] = (),
    **artifacts,
) -> RunManifest:
    """The ``--run-dir`` step of every command: build the manifest, fold the
    fault ledger's counters into ``registry``, and :func:`write_run`.

    ``artifacts`` are the optional ``verdicts``, ``timeseries`` and
    ``graph`` of :func:`write_run`.
    """
    manifest = RunManifest.build(command, params)
    merged = MetricsRegistry()
    merged.merge(registry)
    merged.merge(fault_ledger.as_registry())
    write_run(run_dir, manifest, merged, spans, fault_ledger, **artifacts)
    return manifest


def load_run(run_dir, allow_torn: bool = False) -> RunArtifacts:
    """Load a run directory back; torn runs raise unless ``allow_torn``."""
    directory = pathlib.Path(run_dir)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{directory} is not a run directory (no manifest.json)")
    manifest = read_json(manifest_path, RunManifest.from_dict)

    marker = directory / COMPLETE_MARKER
    complete = False
    if marker.exists():
        marked_id = marker.read_text().strip()
        if marked_id != manifest.run_id:
            if not allow_torn:
                raise TornRunError(
                    f"{directory}: COMPLETE marker names {marked_id!r} but the "
                    f"manifest says {manifest.run_id!r} — artifacts are from "
                    f"mixed runs"
                )
        else:
            complete = True
    elif not allow_torn:
        raise TornRunError(
            f"{directory}: no COMPLETE marker — the run is torn or still in "
            f"flight (pass allow_torn/--allow-torn to inspect anyway)"
        )

    metrics_path = directory / "metrics.json"
    registry = (
        read_json(metrics_path, MetricsRegistry.from_dict)
        if metrics_path.exists()
        else MetricsRegistry()
    )
    trace_path = directory / "trace.jsonl"
    spans = read_jsonl(trace_path) if trace_path.exists() else []
    ledger_path = directory / "ledger.json"
    fault_ledger = (
        read_json(ledger_path, FaultLedger.from_dict)
        if ledger_path.exists()
        else FaultLedger()
    )
    profile_path = directory / "profile.json"
    profile = read_json(profile_path) if profile_path.exists() else []
    verdicts_path = directory / "verdicts.jsonl"
    verdicts = read_verdicts_jsonl(verdicts_path) if verdicts_path.exists() else []
    timeseries_path = directory / "timeseries.jsonl"
    timeseries = (
        read_timeseries_jsonl(timeseries_path) if timeseries_path.exists() else None
    )
    graph_path = directory / "graph.jsonl"
    graph = graph_model.read_graph_jsonl(graph_path) if graph_path.exists() else None
    return RunArtifacts(
        path=directory,
        manifest=manifest,
        registry=registry,
        spans=spans,
        fault_ledger=fault_ledger,
        profile=profile,
        verdicts=verdicts,
        timeseries=timeseries,
        graph=graph,
        complete=complete,
    )
