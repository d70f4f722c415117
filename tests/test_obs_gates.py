"""The one gate language (``repro.obs.gates``).

Pins what the unified evaluator changed and what it must keep: ``obs
diff`` resolves ``<histogram>.<stat>`` for every histogram (a service
latency regression used to read an absent counter and pass as ``1x``),
every ``--fail-on`` expression in CI and the README parses, relative
gates appear only where a base run exists, and the cumulative registry
view agrees with the tick-window view wherever the two are meant to.
"""

from __future__ import annotations

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.obs import gates
from repro.obs.ledger import RunManifest, write_run
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _latency_registry(seconds: float) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("service.requests.offered", 10)
    for _ in range(10):
        registry.observe("service.latency", seconds)
    return registry


class TestServiceHistogramDiff:
    """A non-``stage.`` histogram gate on ``obs diff`` must be able to fail."""

    def test_registry_latency_regression_is_violated(self):
        base, head = _latency_registry(0.002), _latency_registry(3.0)
        verdict = gates.evaluate(gates.parse("service.latency.p90>1.2x"), head, base)
        assert verdict.violated
        assert verdict.measured == pytest.approx(1500.0)
        assert verdict.detail == "service.latency.p90>1.2x: measured 1500x — VIOLATED"

    def test_obs_diff_trips_on_latency_regression(self, tmp_path, capsys):
        manifest = RunManifest.build("loadgen", {"seed": 11}, git_describe="test")
        base, head = tmp_path / "base", tmp_path / "head"
        write_run(base, manifest, _latency_registry(0.002), [])
        write_run(head, manifest, _latency_registry(3.0), [])
        capsys.readouterr()
        gate = ["--fail-on", "service.latency.p90>1.2x", "--fail-on", "p99>1.2x"]
        assert main(["obs", "diff", str(base), str(head), *gate]) == 1
        out = capsys.readouterr().out
        assert "service.latency.p90>1.2x: measured 1500x — VIOLATED" in out
        assert "p99>1.2x: measured 1500x — VIOLATED" in out
        assert "2 threshold(s) violated" in out
        assert main(["obs", "diff", str(head), str(base), *gate]) == 0


class TestGrammar:
    def test_stage_targets_take_every_histogram_stat(self):
        for stat in ("mean", "max", "total", "count", "p50", "p90", "p95", "p99"):
            assert gates.parse(f"stage.fetch.{stat}>1.2x").target == f"stage.fetch.{stat}"

    def test_zero_over_zero_reads_one(self):
        verdict = gates.evaluate(
            gates.parse("fault.observed.timeout>1x"), MetricsRegistry(), MetricsRegistry()
        )
        assert verdict.measured == 1.0 and not verdict.violated
        assert verdict.detail == "fault.observed.timeout>1x: measured 1x — ok"


class TestMaxStat:
    def test_registry_max_is_exact_window_max_is_bucket_bound(self):
        registry = MetricsRegistry()
        recorder = TimeSeriesRecorder(registry, interval=1.0)
        registry.observe("service.latency", 3.0)
        recorder.poll(1.0)
        assert gates.RegistryView(registry).value("max") == 3.0
        assert gates.WindowView(recorder.records, 1.0).value("max") == 5.0


# ---------------------------------------------------------------------------
# every gate the repository ships must parse


_FAIL_ON_RE = re.compile(r"--fail-on '([^']*)'")


def _logical_lines(path: pathlib.Path):
    """Lines with shell ``\\`` continuations joined."""
    lines, pending = [], ""
    for line in path.read_text().splitlines():
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        lines.append(pending + line)
        pending = ""
    return lines


@pytest.mark.parametrize("document", [".github/workflows/ci.yml", "README.md"])
def test_shipped_gates_parse_and_relative_ones_sit_on_obs_diff(document):
    found = 0
    for line in _logical_lines(ROOT / document):
        for expression in _FAIL_ON_RE.findall(line):
            found += 1
            gate = gates.parse(expression)
            if gate.relative:
                assert "obs diff" in line, f"relative gate off `obs diff`: {line.strip()}"
    assert found >= 5, f"only {found} --fail-on expressions found in {document}"


# ---------------------------------------------------------------------------
# the two open views agree where they are meant to


_COUNTERS = (
    "service.requests.offered",
    "service.requests.completed",
    "service.rejected.rate_limit",
    "service.rejected.queue_full",
    "service.rejected.deadline",
    "service.fetch.errors",
    "service.degraded.no-dynamic",
    "service.degraded.static-only",
)
_HISTOGRAMS = ("service.latency", "service.queue_wait", "stage.fetch")

_events = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), st.sampled_from(_COUNTERS), st.integers(0, 50)),
        st.tuples(
            st.just("observe"), st.sampled_from(_HISTOGRAMS), st.integers(0, 90_000_000_000)
        ),
    ),
    max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(ticks=st.lists(_events, min_size=1, max_size=12))
def test_registry_and_window_views_agree(ticks):
    """Over all retained ticks, the window view of every derived rate and
    every ``<hist>.count|total|mean`` equals the cumulative registry view.

    Quantiles and ``max`` differ by design (a window reads bucket bounds,
    the registry clamps to the exact tracked extremes), and a bare counter
    is a per-second rate in a window but a total in the registry, so none
    of those is asserted here.
    """
    registry = MetricsRegistry()
    recorder = TimeSeriesRecorder(registry, interval=1.0, capacity=len(ticks))
    for index, events in enumerate(ticks):
        for kind, name, amount in events:
            if kind == "inc":
                registry.inc(name, amount)
            else:
                registry.observe_ns(name, amount)
        recorder.poll(float(index + 1))
    assert len(recorder.records) == len(ticks)
    cumulative = gates.RegistryView(registry)
    window = gates.WindowView(recorder.records, recorder.interval)
    targets = ["shed_rate", "deadline_rate", "error_rate", "degraded_rate"]
    targets += [f"{name}.{stat}" for name in _HISTOGRAMS for stat in ("count", "total", "mean")]
    for target in targets:
        assert cumulative.value(target) == window.value(target), target
