"""The observability facade and per-stage profiling.

:class:`Obs` bundles a tracer, a metrics registry, and the injectable
clock behind one ``span()`` call so pipeline code needs a single hook:

    with obs.span("fetch", domain=site.domain) as span:
        ...

Each closed span also lands its duration in the ``stage.<name>``
histogram, which is what the ``--profile`` table renders.

**Disabled path**: the module-level :data:`NULL_OBS` singleton answers
``span()`` with one shared pre-built no-op context manager — no clock
read, no allocation, no branch beyond the ``enabled`` check — so leaving
observability off costs nothing on the per-site hot path (pinned by the
micro-benchmark in ``bench_perf_primitives``).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class _NullSpan:
    """Inert span: accepts tags, records nothing."""

    __slots__ = ()
    span_id = ""
    parent_id = ""
    name = ""
    duration = 0.0

    def set_tag(self, key, value) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class _ObsSpanContext:
    """Closes the traced span and books its latency histogram."""

    __slots__ = ("_obs", "_inner")

    def __init__(self, obs: "Obs", inner) -> None:
        self._obs = obs
        self._inner = inner

    def __enter__(self):
        return self._inner.__enter__()

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._inner._span
        suppressed = self._inner.__exit__(exc_type, exc, tb)
        self._obs.registry.observe("stage." + span.name, span.duration)
        if exc_type is not None:
            self._obs.registry.inc("stage." + span.name + ".errors")
        return suppressed


class Obs:
    """One execution context's tracer + registry (+ enabled flag)."""

    __slots__ = ("tracer", "registry", "enabled")

    def __init__(self, tracer=None, registry=None, enabled: bool = True, prefix: str = "t"):
        self.tracer = tracer if tracer is not None else Tracer(prefix=prefix)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = enabled

    def span(self, name: str, **tags):
        if not self.enabled:
            return _NULL_CONTEXT
        return _ObsSpanContext(self, self.tracer.span(name, **tags))

    def inc(self, name: str, n: int = 1) -> None:
        if self.enabled:
            self.registry.inc(name, n)

    def __repr__(self) -> str:
        return (
            f"Obs(enabled={self.enabled}, spans={len(self.tracer.spans)}, "
            f"counters={len(self.registry.counters)})"
        )


#: The process-wide disabled instance — the default everywhere.
NULL_OBS = Obs(enabled=False, prefix="null")


def make_obs(prefix: str = "t") -> Obs:
    """A fresh enabled observability context."""
    return Obs(prefix=prefix)


# ---------------------------------------------------------------------------
# profile rendering


PROFILE_HEADER = ["stage", "count", "errors", "total", "mean", "p50", "p90", "max"]


def profile_rows(registry: MetricsRegistry) -> list:
    """Per-stage latency rows for :func:`repro.analysis.reporting.render_table`.

    Stages sort by total time spent, descending — the attribution view:
    where did the campaign's wall clock actually go.
    """
    names = sorted(
        registry.stage_names(),
        key=lambda name: -registry.histograms["stage." + name].total_ns,
    )
    rows = []
    for name in names:
        histogram = registry.histograms["stage." + name]
        rows.append(
            [
                name,
                histogram.count,
                registry.counter("stage." + name + ".errors"),
                f"{histogram.total_seconds:.3f}s",
                f"{histogram.mean_seconds * 1e3:.2f}ms",
                f"{histogram.quantile(0.5) * 1e3:.2f}ms",
                f"{histogram.quantile(0.9) * 1e3:.2f}ms",
                f"{histogram.max_seconds * 1e3:.2f}ms",
            ]
        )
    return rows


def profile_payload(registry: MetricsRegistry) -> list:
    """Numeric per-stage stats (integer ns) for ``profile.json``.

    Same ordering as :func:`profile_rows` (total time desc, then name) but
    machine-readable — the run ledger persists this so ``repro obs
    report`` can render a profile without re-deriving it.
    """
    _NS = 1_000_000_000
    names = sorted(
        registry.stage_names(),
        key=lambda name: (-registry.histograms["stage." + name].total_ns, name),
    )
    payload = []
    for name in names:
        histogram = registry.histograms["stage." + name]
        payload.append(
            {
                "stage": name,
                "count": histogram.count,
                "errors": registry.counter("stage." + name + ".errors"),
                "total_ns": histogram.total_ns,
                "mean_ns": int(round(histogram.mean_seconds * _NS)),
                "p50_ns": int(round(histogram.quantile(0.5) * _NS)),
                "p90_ns": int(round(histogram.quantile(0.9) * _NS)),
                "max_ns": histogram.max_ns or 0,
            }
        )
    return payload


def render_profile(registry: MetricsRegistry, title: str = "stage profile") -> str:
    from repro.analysis.reporting import render_table

    rows = profile_rows(registry)
    if not rows:
        return f"{title}: (no stages recorded)" if title else "(no stages recorded)"
    return render_table(PROFILE_HEADER, rows, title=title)
