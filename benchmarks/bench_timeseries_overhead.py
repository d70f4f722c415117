"""Overhead of the windowed-telemetry recorder.

Three measurements, all persisted into BENCH_SUMMARY.json so CI can smoke
them without scraping tables:

1. the microcost of one ``poll`` that crosses a tick boundary over a
   service-shaped registry (the per-tick snapshot: counter deltas,
   histogram bucket diffs, burn-rate rule evaluation),
2. the same poll with a ``flush_path``, so every tick also appends its
   lines to ``timeseries.jsonl`` the way ``obs top --watch`` follows it
   (an atomic rewrite only on the first flush and once ``capacity`` lines
   have been appended since the last one) — measured with 30 and with
   300 ticks retained in the ring, so a flush whose cost grows with the
   ring shows up as a gap between the two, and
3. the end-to-end cost a 0.5s-interval recorder adds to a seeded loadgen
   campaign, as a ratio against the same campaign with telemetry off.

The assertions are deliberately generous — they catch "the recorder made
campaigns several times slower", not scheduler jitter. The flush figures
are informational; ``test_each_tick_is_encoded_once`` in
``tests/test_obs_timeseries.py`` is the deterministic gate on flush cost.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from conftest import emit, emit_json

from repro.obs.alerts import default_service_rules
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesRecorder
from repro.service.loadgen import LoadgenConfig, run_loadgen

#: a registry shaped like the verdict server's: a handful of scalar
#: counters, per-tenant and per-bundle dimensions, two latency histograms
_TENANTS = 4
_BUNDLES = 3


def _service_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("service.requests.offered", 0)
    registry.inc("service.requests.completed", 0)
    registry.inc("service.rejected.queue_full", 0)
    for t in range(_TENANTS):
        registry.inc(f"service.tenant.tenant-{t}.offered", 0)
    for b in range(_BUNDLES):
        registry.inc(f"service.bundle.v{b}.verdicts", 0)
    return registry


def _spin_registry(registry: MetricsRegistry, step: int) -> None:
    registry.inc("service.requests.offered", 24)
    registry.inc("service.requests.completed", 20)
    registry.inc("service.rejected.queue_full", 4)
    registry.inc(f"service.tenant.tenant-{step % _TENANTS}.offered", 24)
    registry.inc(f"service.bundle.v{step % _BUNDLES}.verdicts", 20)
    registry.inc("service.tier.full", 20)
    for i in range(20):
        registry.observe("service.latency", 0.001 * (1 + (step + i) % 40))
        registry.observe("service.queue_wait", 0.0005 * (1 + (step + i) % 25))


def _flush_us_per_tick(retained: int, polls: int = 50) -> float:
    """Per-tick cost of a flushing poll once ``retained`` ticks fill the ring."""
    registry = _service_registry()
    with tempfile.TemporaryDirectory() as tmp:
        recorder = TimeSeriesRecorder(
            registry,
            interval=1.0,
            rules=default_service_rules(),
            capacity=retained,
            flush_path=Path(tmp) / "timeseries.jsonl",
        )
        for step in range(retained):
            _spin_registry(registry, step)
            recorder.poll(float(step + 1))
        start = time.perf_counter()
        for step in range(retained, retained + polls):
            _spin_registry(registry, step)
            recorder.poll(float(step + 1))
        return (time.perf_counter() - start) / polls * 1e6


def test_perf_timeseries_poll(benchmark):
    """One boundary-crossing poll: snapshot + rule evaluation."""
    registry = _service_registry()
    recorder = TimeSeriesRecorder(
        registry, interval=1.0, rules=default_service_rules(), capacity=256
    )
    state = {"now": 0.0, "step": 0}

    def tick():
        _spin_registry(registry, state["step"])
        state["step"] += 1
        state["now"] += 1.0
        recorder.poll(state["now"])

    benchmark(tick)
    assert recorder.records, "benchmark never crossed a tick boundary"


def test_timeseries_overhead_summary():
    """Recorder-on vs recorder-off loadgen, min-of-repeats wall time."""
    base = dict(seed=11, scale=0.05, rate=24.0, duration=6.0, tenants=2)

    def best_of(config: LoadgenConfig, repeats: int = 5) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run_loadgen(config)
            times.append(time.perf_counter() - start)
        return min(times)

    off = best_of(LoadgenConfig(**base))
    on = best_of(LoadgenConfig(timeseries_interval=0.5, **base))

    report = run_loadgen(LoadgenConfig(timeseries_interval=0.5, **base))
    ticks = len(report.recorder.records)
    overhead = round(on / off, 3)

    # per-tick microcost, measured directly (boundary-crossing polls)
    registry = _service_registry()
    recorder = TimeSeriesRecorder(
        registry, interval=1.0, rules=default_service_rules(), capacity=256
    )
    polls = 200
    start = time.perf_counter()
    for step in range(polls):
        _spin_registry(registry, step)
        recorder.poll(float(step + 1))
    per_tick_us = (time.perf_counter() - start) / polls * 1e6
    flush_30 = _flush_us_per_tick(30)
    flush_300 = _flush_us_per_tick(300)

    payload = {
        "loadgen_seconds_off": round(off, 4),
        "loadgen_seconds_on": round(on, 4),
        "overhead_ratio": overhead,
        "ticks_recorded": ticks,
        "poll_us_per_tick": round(per_tick_us, 1),
        "flush_us_per_tick_30": round(flush_30, 1),
        "flush_us_per_tick_300": round(flush_300, 1),
    }
    emit_json("timeseries_overhead", payload)
    emit(
        "timeseries_overhead",
        "\n".join(
            [
                f"loadgen {base['duration']}s @ {base['rate']} r/s: "
                f"off={off * 1e3:.1f}ms on={on * 1e3:.1f}ms "
                f"({overhead}x, {ticks} ticks)",
                f"recorder poll (snapshot + rules): {per_tick_us:.1f}us/tick",
                f"recorder poll + flush: {flush_30:.1f}us/tick at 30 retained ticks, "
                f"{flush_300:.1f}us/tick at 300",
            ]
        ),
    )
    assert ticks > 0, payload
    # generous: the 0.5s recorder must not multiply campaign cost
    assert overhead < 3.0, payload
