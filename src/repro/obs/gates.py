"""The one gate language: every ``--fail-on`` threshold and alert rule.

``obs diff``, ``obs slo``, ``obs scorecard``, ``obs graph query`` and the
burn-rate :class:`~repro.obs.alerts.AlertRule`\\ s all parse, resolve and
decide their thresholds here.

**Grammar** — ``<target><op><number>[x]`` with ``op`` one of
``> >= < <=``. A trailing ``x`` makes the gate *relative*: the head value
divided by the base value (``0/0`` reads 1, ``x/0`` reads infinity). Only
``obs diff`` has a base run; every other command rejects relative gates.
``stage.*`` targets must end in a histogram stat (``stage.fetch.p90``).

**Histogram stats** — ``mean``, ``max``, ``total``, ``count``, ``p50``,
``p90``, ``p95``, ``p99`` (seconds, except ``count``).

**Resolution order** for the open metric views — the cumulative
:class:`RegistryView` and the tick-window :class:`WindowView`:

1. latency shorthands (``p50``, ``p99``, ``mean``, …) read the
   ``service.latency`` histogram,
2. derived rates — ``shed_rate`` and ``deadline_rate`` over offered
   requests, ``error_rate`` and ``degraded_rate`` over completed ones,
3. ``<histogram>.<stat>`` for any recorded histogram,
4. anything else is a counter: its cumulative value in a registry (an
   absent counter reads 0, since zero increments are never recorded), a
   per-second rate over a window.

Scorecards and graphs export a closed namespace instead
(:class:`ClosedView`): exact names only, and an unknown name is an error
that lists the available ones.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

from repro.obs.metrics import MetricsRegistry

_EXPR_RE = re.compile(
    r"\s*(?P<target>[A-Za-z0-9_.\-]+?)\s*(?P<op>>=|<=|>|<)\s*"
    r"(?P<value>\d+(?:\.\d+)?)(?P<relative>x?)\s*$"
)

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def _quantile(q: float):
    return lambda histogram: histogram.quantile(q)


#: stat suffix → reader; works on a ``Histogram`` and a ``HistogramWindow``
_HISTOGRAM_STATS = {
    "mean": lambda histogram: histogram.mean_seconds,
    "max": lambda histogram: histogram.max_seconds,
    "total": lambda histogram: histogram.total_seconds,
    "count": lambda histogram: float(histogram.count),
    "p50": _quantile(0.5),
    "p90": _quantile(0.9),
    "p95": _quantile(0.95),
    "p99": _quantile(0.99),
}

_LATENCY_SHORTHANDS = ("mean", "max", "p50", "p90", "p95", "p99")

#: derived rate → (numerator, denominator counter); a string numerator is
#: a prefix whose counters are summed
_DERIVED_RATES = {
    "shed_rate": (
        (
            "service.rejected.rate_limit",
            "service.rejected.queue_full",
            "service.rejected.deadline",
        ),
        "service.requests.offered",
    ),
    "deadline_rate": (("service.rejected.deadline",), "service.requests.offered"),
    "error_rate": (("service.fetch.errors",), "service.requests.completed"),
    "degraded_rate": ("service.degraded.", "service.requests.completed"),
}


def histogram_stat(histogram, stat: str) -> float:
    """One stat of a ``Histogram`` or ``HistogramWindow``."""
    return _HISTOGRAM_STATS[stat](histogram)


# ---------------------------------------------------------------------------
# parsing


@dataclass(frozen=True)
class Gate:
    """One parsed threshold expression."""

    raw: str
    target: str
    op: str
    value: float
    relative: bool  # trailing "x": head/base ratio, else the head value


def parse(expression: str) -> Gate:
    """Parse ``stage.fetch.p90>1.2x`` / ``shed_rate>0.25`` / ``p99>0.5``."""
    match = _EXPR_RE.match(expression)
    if match is None:
        raise ValueError(
            f"bad gate expression {expression!r}; expected "
            f"'<target><op><number>[x]', e.g. 'p99>0.5' or 'stage.fetch.p90>1.2x'"
        )
    target = match["target"]
    if target.startswith("stage."):
        prefix, _, stat = target.rpartition(".")
        if prefix == "stage" or stat not in _HISTOGRAM_STATS:
            raise ValueError(
                f"stage targets need a stat suffix {tuple(_HISTOGRAM_STATS)}, "
                f"e.g. 'stage.fetch.p90' (got {target!r})"
            )
    return Gate(
        raw=expression.strip(),
        target=target,
        op=match["op"],
        value=float(match["value"]),
        relative=match["relative"] == "x",
    )


# ---------------------------------------------------------------------------
# views


class _OpenView:
    """The resolution order, over a view's counters and histograms."""

    def value(self, target: str) -> float:
        if target in _LATENCY_SHORTHANDS:
            histogram = self.histogram("service.latency")
            return histogram_stat(histogram, target) if histogram is not None else 0.0
        if target in _DERIVED_RATES:
            numerator, denominator = _DERIVED_RATES[target]
            if isinstance(numerator, str):
                hits = self.counter_total(numerator)
            else:
                hits = sum(self.counter(name) for name in numerator)
            return hits / max(1, self.counter(denominator))
        prefix, _, stat = target.rpartition(".")
        if prefix and stat in _HISTOGRAM_STATS:
            histogram = self.histogram(prefix)
            if histogram is not None:
                return histogram_stat(histogram, stat)
        return self.bare_counter(target)


class RegistryView(_OpenView):
    """One run's cumulative registry (``obs diff``, ``obs slo``)."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry

    def counter(self, name: str) -> int:
        return self.registry.counter(name)

    def counter_total(self, prefix: str) -> int:
        return sum(self.registry.counters_with_prefix(prefix).values())

    def histogram(self, name: str):
        return self.registry.histograms.get(name)

    def bare_counter(self, name: str) -> float:
        return float(self.registry.counter(name))


class WindowView(_OpenView):
    """A trailing window of tick records (alert rules, ``obs top``).

    Resolves one target on demand — alert rules run on every tick, so
    the view never materializes a whole namespace.
    """

    def __init__(self, records, interval: float) -> None:
        self.records = records
        self.interval = interval

    def counter(self, name: str) -> int:
        return sum(record.counters.get(name, 0) for record in self.records)

    def counter_total(self, prefix: str) -> int:
        return sum(
            delta
            for record in self.records
            for name, delta in record.counters.items()
            if name.startswith(prefix)
        )

    def histogram(self, name: str):
        merged = None
        for record in self.records:
            window = record.histograms.get(name)
            if window is None:
                continue
            merged = window.copy() if merged is None else merged.merge(window)
        return merged

    def bare_counter(self, name: str) -> float:
        seconds = max(len(self.records) * self.interval, self.interval)
        return self.counter(name) / seconds


class ClosedView:
    """A closed metric namespace (scorecard, graph): exact names only."""

    def __init__(self, metrics: dict, kind: str) -> None:
        self.metrics = metrics
        self.kind = kind

    def value(self, target: str) -> float:
        if target not in self.metrics:
            available = ", ".join(sorted(self.metrics))
            raise ValueError(
                f"unknown {self.kind} metric {target!r}; available: {available}"
            )
        return self.metrics[target]


def _as_view(source):
    return RegistryView(source) if isinstance(source, MetricsRegistry) else source


# ---------------------------------------------------------------------------
# the decision


class Verdict(NamedTuple):
    """One gate's measurement and outcome."""

    gate: Gate
    measured: float
    violated: bool

    @property
    def detail(self) -> str:
        unit = "x" if self.gate.relative else ""
        return (
            f"{self.gate.raw}: measured {self.measured:.4g}{unit} — "
            f"{'VIOLATED' if self.violated else 'ok'}"
        )


def evaluate(gate: Gate, head, base=None) -> Verdict:
    """Decide ``gate`` on ``head`` (and ``base``, for a relative gate).

    ``head``/``base`` are views or ``MetricsRegistry``\\ s. Raises
    ``ValueError`` for a relative gate without a base run, and for an
    unknown name in a :class:`ClosedView`.
    """
    if gate.relative and base is None:
        raise ValueError(
            f"{gate.raw!r} is relative, but there is no base run; gates are "
            f"absolute outside `obs diff` — drop the trailing 'x'"
        )
    measured = _as_view(head).value(gate.target)
    if gate.relative:
        reference = _as_view(base).value(gate.target)
        if reference == 0:
            measured = math.inf if measured > 0 else 1.0
        else:
            measured = measured / reference
    return Verdict(gate=gate, measured=measured, violated=_OPS[gate.op](measured, gate.value))
