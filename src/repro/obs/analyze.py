"""Trace and run analysis: critical paths, Chrome traces, cross-run diffs.

The read side of the run ledger. Everything here is exact integer
arithmetic over the persisted artifacts:

- **Critical path** — span durations convert to integer nanoseconds via
  their absolute stamps, so a parent's *self time* (duration minus the
  sum of its children) telescopes: the per-stage attribution of any
  subtree sums to that subtree root's duration, to the nanosecond. The
  campaign's critical path is its slowest ``shard`` child — the one that
  bounded wall time.
- **Chrome trace export** — spans re-emitted as ``trace_event`` complete
  events (``ph: "X"``), one virtual thread per tracer prefix, so
  ``chrome://tracing`` / Perfetto render a sharded campaign as parallel
  lanes.
- **Diff** — two runs compared counter-by-counter and stage-by-stage
  (mean/p50/p90 shift); ``obs diff --fail-on`` turns it into a CI
  regression gate through :mod:`repro.obs.gates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span

_NS = 1_000_000_000


def _stamp_ns(stamp: float) -> int:
    return round(stamp * _NS)


def span_ns(span: Span) -> int:
    """Span duration in integer nanoseconds (never negative)."""
    return max(0, _stamp_ns(span.end) - _stamp_ns(span.start))


# ---------------------------------------------------------------------------
# span tree + critical path


def build_tree(spans: Iterable[Span]):
    """(roots, children-by-parent-id), both in input order.

    A span whose parent is absent from the list counts as a root — a
    partial trace still analyzes.
    """
    spans = list(spans)
    by_id = {span.span_id: span for span in spans}
    roots = []
    children: dict[str, list] = {}
    for span in spans:
        if span.parent_id and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    return roots, children


def subtree_stage_ns(root: Span, children: dict) -> dict:
    """Exact self-time attribution by stage name within one subtree.

    Each span contributes ``duration - sum(child durations)`` to the
    bucket of its own name, so the values sum to ``span_ns(root)``
    exactly. Overlapping children (process-mode shards under a campaign)
    can push a bucket negative; the telescoping identity still holds.
    """
    totals: dict[str, int] = {}
    stack = [root]
    # visit each span object at most once: a trace with duplicated span
    # ids (hand-merged files, pre-fix multi-dataset runs) would otherwise
    # re-expand shared subtrees combinatorially
    seen: set[int] = set()
    while stack:
        span = stack.pop()
        if id(span) in seen:
            continue
        seen.add(id(span))
        kids = children.get(span.span_id, [])
        self_ns = span_ns(span) - sum(span_ns(kid) for kid in kids)
        totals[span.name] = totals.get(span.name, 0) + self_ns
        stack.extend(kids)
    return totals


@dataclass
class CriticalPath:
    """Which subtree bounded one root span's wall time, and why."""

    root: Span
    bounding: Optional[Span]          # slowest shard child; None if unsharded
    stage_ns: dict = field(default_factory=dict)

    @property
    def wall_ns(self) -> int:
        return span_ns(self.root)

    @property
    def path_ns(self) -> int:
        return span_ns(self.bounding) if self.bounding is not None else self.wall_ns

    @property
    def bounding_stage(self) -> str:
        if not self.stage_ns:
            return ""
        return sorted(self.stage_ns.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def critical_paths(spans: Iterable[Span]) -> list:
    """One :class:`CriticalPath` per root span, in trace order.

    For a sharded campaign the analysis descends into the slowest
    ``shard`` child (wall time is its duration plus scatter/gather
    overhead); for an unsharded root it attributes the root itself.
    """
    roots, children = build_tree(spans)
    paths = []
    for root in roots:
        shard_kids = [kid for kid in children.get(root.span_id, []) if kid.name == "shard"]
        bounding = (
            max(shard_kids, key=lambda span: (span_ns(span), span.span_id))
            if shard_kids
            else None
        )
        target = bounding if bounding is not None else root
        paths.append(
            CriticalPath(root=root, bounding=bounding, stage_ns=subtree_stage_ns(target, children))
        )
    return paths


def stage_attribution(spans: Iterable[Span]) -> dict:
    """Self-time per stage across the whole trace (sums to Σ root durations)."""
    roots, children = build_tree(spans)
    totals: dict[str, int] = {}
    for root in roots:
        for name, ns in subtree_stage_ns(root, children).items():
            totals[name] = totals.get(name, 0) + ns
    return totals


def slowest_spans(spans: Iterable[Span], name: str = "site", k: int = 10) -> list:
    """Top-``k`` spans of one stage by duration (ties broken by id)."""
    picked = [span for span in spans if span.name == name]
    picked.sort(key=lambda span: (-span_ns(span), span.span_id))
    return picked[:k]


def error_breakdown(spans: Iterable[Span], registry: MetricsRegistry) -> list:
    """Error classes joined across spans and ``fault.*`` counters.

    Rows: ``[error_class, tagged_spans, fault.observed, fault.injected,
    fault.unrecovered]`` sorted by span count desc then name — the view
    that answers "what actually failed, and was it injected or organic".
    """
    span_counts: dict[str, int] = {}
    for span in spans:
        cls = span.tags.get("error_class") or span.tags.get("error")
        if cls:
            span_counts[cls] = span_counts.get(cls, 0) + 1
    classes = set(span_counts)
    for prefix in ("fault.observed.", "fault.injected.", "fault.unrecovered."):
        classes.update(
            name[len(prefix):] for name in registry.counters_with_prefix(prefix)
        )
    rows = []
    for cls in sorted(classes, key=lambda c: (-span_counts.get(c, 0), c)):
        rows.append(
            [
                cls,
                span_counts.get(cls, 0),
                registry.counter(f"fault.observed.{cls}"),
                registry.counter(f"fault.injected.{cls}"),
                registry.counter(f"fault.unrecovered.{cls}"),
            ]
        )
    return rows


# ---------------------------------------------------------------------------
# Chrome trace_event export


def chrome_trace(spans: Iterable[Span], run_id: str = "") -> dict:
    """Spans as a Chrome ``trace_event`` JSON object.

    Each tracer prefix (campaign, ``z0s3``-style shard workers) becomes a
    virtual thread so Perfetto renders shards as parallel lanes;
    timestamps and durations are microseconds per the spec.
    """
    spans = list(spans)
    prefixes = sorted({span.span_id.rsplit("-", 1)[0] for span in spans})
    tids = {prefix: i for i, prefix in enumerate(prefixes)}
    events = [
        {
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "name": "thread_name",
            "args": {"name": prefix},
        }
        for prefix, tid in tids.items()
    ]
    for span in spans:
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": tids[span.span_id.rsplit("-", 1)[0]],
                "name": span.name,
                "cat": "repro",
                "ts": _stamp_ns(span.start) / 1000.0,
                "dur": span_ns(span) / 1000.0,
                "args": {**span.tags, "span_id": span.span_id},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run_id": run_id},
    }


# ---------------------------------------------------------------------------
# run diffing


@dataclass
class StageShift:
    """One stage's latency distribution, base vs head."""

    stage: str
    base_count: int
    head_count: int
    base_mean_ns: int
    head_mean_ns: int
    base_p50_ns: int
    head_p50_ns: int
    base_p90_ns: int
    head_p90_ns: int


@dataclass
class RunDiff:
    """Everything ``repro obs diff`` reports."""

    base_id: str
    head_id: str
    counter_deltas: list = field(default_factory=list)    # [name, base, head]
    histogram_count_deltas: list = field(default_factory=list)
    stage_shifts: list = field(default_factory=list)
    new_error_classes: list = field(default_factory=list)
    vanished_error_classes: list = field(default_factory=list)

    @property
    def is_zero(self) -> bool:
        """No schedule-independent difference between the runs."""
        return not self.counter_deltas and not self.histogram_count_deltas


def _stage_stats(registry: MetricsRegistry, stage: str):
    histogram = registry.histograms.get("stage." + stage)
    if histogram is None:
        return 0, 0, 0, 0
    return (
        histogram.count,
        int(round(histogram.mean_seconds * _NS)),
        int(round(histogram.quantile(0.5) * _NS)),
        int(round(histogram.quantile(0.9) * _NS)),
    )


def _error_classes(registry: MetricsRegistry) -> set:
    return {
        name[len("fault.observed."):]
        for name in registry.counters_with_prefix("fault.observed.")
    }


def diff_runs(base_registry: MetricsRegistry, head_registry: MetricsRegistry,
              base_id: str = "base", head_id: str = "head") -> RunDiff:
    diff = RunDiff(base_id=base_id, head_id=head_id)
    for name in sorted(set(base_registry.counters) | set(head_registry.counters)):
        base_n, head_n = base_registry.counter(name), head_registry.counter(name)
        if base_n != head_n:
            diff.counter_deltas.append([name, base_n, head_n])
    base_counts = base_registry.histogram_counts()
    head_counts = head_registry.histogram_counts()
    for name in sorted(set(base_counts) | set(head_counts)):
        if base_counts.get(name, 0) != head_counts.get(name, 0):
            diff.histogram_count_deltas.append(
                [name, base_counts.get(name, 0), head_counts.get(name, 0)]
            )
    stages = sorted(set(base_registry.stage_names()) | set(head_registry.stage_names()))
    for stage in stages:
        b_count, b_mean, b_p50, b_p90 = _stage_stats(base_registry, stage)
        h_count, h_mean, h_p50, h_p90 = _stage_stats(head_registry, stage)
        diff.stage_shifts.append(
            StageShift(
                stage=stage,
                base_count=b_count, head_count=h_count,
                base_mean_ns=b_mean, head_mean_ns=h_mean,
                base_p50_ns=b_p50, head_p50_ns=h_p50,
                base_p90_ns=b_p90, head_p90_ns=h_p90,
            )
        )
    base_classes, head_classes = _error_classes(base_registry), _error_classes(head_registry)
    diff.new_error_classes = sorted(head_classes - base_classes)
    diff.vanished_error_classes = sorted(base_classes - head_classes)
    return diff
