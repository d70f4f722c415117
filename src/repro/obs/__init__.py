"""Campaign observability: tracing, unified metrics, stage profiling.

The three legs of production-scale campaign accounting:

- :mod:`repro.obs.clock` — the injectable wall clock (``PerfClock`` in
  real runs, ``TickClock`` in tests) every duration is read from,
- :mod:`repro.obs.trace` — structured spans
  (``campaign → shard → site → fetch/parse/detect/ws-poll``) exported as
  JSONL via ``--trace-out``,
- :mod:`repro.obs.metrics` — the counters/gauges/histograms registry
  whose single ``merge()`` law keeps sharded aggregation bit-identical
  and mode-invariant,
- :mod:`repro.obs.profile` — the :class:`Obs` facade pipelines hook into,
  plus the ``--profile`` per-stage latency table,
- :mod:`repro.obs.ledger` — persisted run directories (``--run-dir``):
  manifest, metrics, trace, profile, fault ledger, atomic ``COMPLETE``,
- :mod:`repro.obs.artifact` — the versioned-JSONL contract every run-dir
  artifact is written and read through, with its one
  :class:`ArtifactSchemaError`,
- :mod:`repro.obs.analyze` — critical-path attribution, Chrome-trace
  export, and cross-run diffing,
- :mod:`repro.obs.gates` — the one ``--fail-on`` / alert-rule gate
  language: grammar, target resolution, and the pass/fail decision,
- :mod:`repro.obs.heartbeat` — live campaign progress snapshots
  (``--heartbeat``), exactly reproducible under ``TickClock``.
"""

from repro.obs.alerts import (
    AlertEvent,
    AlertRule,
    AlertRuleSet,
    default_service_rules,
)
from repro.obs.artifact import ArtifactSchemaError
from repro.obs.clock import PerfClock, TickClock, get_clock, set_clock, use_clock
from repro.obs.gates import Gate, Verdict
from repro.obs.heartbeat import ProgressReporter
from repro.obs.ledger import (
    OBS_SCHEMA_VERSION,
    RunArtifacts,
    RunManifest,
    TornRunError,
    load_run,
    write_run,
)
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from repro.obs.profile import (
    NULL_OBS,
    Obs,
    make_obs,
    profile_payload,
    profile_rows,
    render_profile,
)
from repro.obs.prom import registry_to_prom
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
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    Tracer,
    parse_jsonl,
    read_jsonl,
    spans_to_jsonl,
)

__all__ = [
    "AlertEvent",
    "AlertRule",
    "AlertRuleSet",
    "ArtifactSchemaError",
    "DEFAULT_BOUNDS",
    "Gate",
    "Histogram",
    "HistogramWindow",
    "MetricsRegistry",
    "NULL_OBS",
    "OBS_SCHEMA_VERSION",
    "Obs",
    "PerfClock",
    "ProgressReporter",
    "RecorderProgress",
    "RunArtifacts",
    "RunManifest",
    "Span",
    "TIMESERIES_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "TickClock",
    "TickRecord",
    "TimeSeries",
    "TimeSeriesRecorder",
    "TornRunError",
    "Tracer",
    "Verdict",
    "default_service_rules",
    "get_clock",
    "load_run",
    "make_obs",
    "parse_dimensions",
    "parse_jsonl",
    "profile_payload",
    "profile_rows",
    "read_jsonl",
    "read_timeseries_jsonl",
    "registry_to_prom",
    "render_profile",
    "set_clock",
    "spans_to_jsonl",
    "use_clock",
    "write_run",
    "write_timeseries_jsonl",
]
