"""One-shard vs. sharded campaign execution wall-clock.

Times the full-calibration .com zgrab scan (the largest zone) three ways:

- one shard, serial (``ParallelConfig()``'s defaults — the baseline),
- eight shards, serial (one worker — isolates shard overhead and yields
  uncontended per-shard timings),
- eight shards on a fork-based process pool at 4 workers.

Real pool wall-clock only beats one shard when the host has spare cores;
CI containers are often single-core, where every worker timeshares one
CPU. So besides the measured wall-clocks this benchmark derives the
**modeled 4-worker makespan**: the longest-processing-time schedule of the
uncontended per-shard timings onto 4 workers — the wall-clock a 4-core
host converges to. The acceptance gate (≥2× at 4 workers) is asserted on
that model, and additionally on the real pool wall-clock when the host
actually has ≥4 cores.
"""

from __future__ import annotations

import os

from conftest import emit, emit_json
from repro.analysis.parallel import ParallelConfig, ShardedZgrabCampaign
from repro.analysis.reporting import render_table
from repro.obs.profile import PROFILE_HEADER, make_obs, profile_rows

WORKERS = 4
SHARDS = 8


def _lpt_makespan(durations: list[float], workers: int) -> float:
    """Longest-processing-time-first schedule length on ``workers`` machines."""
    loads = [0.0] * workers
    for duration in sorted(durations, reverse=True):
        loads[loads.index(min(loads))] += duration
    return max(loads)


def test_parallel_scan_speedup(benchmark, populations):
    population = populations["com"]
    baseline_campaign = ShardedZgrabCampaign(population=population)

    def run_baseline():
        return baseline_campaign.scan(0)

    baseline_result = benchmark.pedantic(run_baseline, rounds=1, iterations=1)
    baseline_wall = benchmark.stats.stats.total

    rows = [["one shard", 1, f"{baseline_wall:.3f}s", "1.00x", "-"]]
    walls = {}
    results = {}
    shard_walls: list[float] = []
    for mode, workers in (("serial", 1), ("process", WORKERS)):
        campaign = ShardedZgrabCampaign(
            population=population,
            config=ParallelConfig(shards=SHARDS, workers=workers, mode=mode),
        )
        results[mode] = campaign.scan(0)
        walls[mode] = campaign.metrics.wall_seconds
        if mode == "serial":
            shard_walls = [m.wall_seconds for m in campaign.metrics.shards]
        rows.append(
            [
                f"sharded/{mode}",
                workers,
                f"{walls[mode]:.3f}s",
                f"{baseline_wall / walls[mode]:.2f}x",
                f"{campaign.metrics.parallel_efficiency:.0%}",
            ]
        )

    # the wall-clock 4 truly-parallel workers converge to, from the
    # uncontended per-shard timings
    makespan = _lpt_makespan(shard_walls, WORKERS)
    modeled_speedup = baseline_wall / makespan if makespan else 0.0
    rows.append(["modeled 4-worker", WORKERS, f"{makespan:.3f}s", f"{modeled_speedup:.2f}x", "-"])

    cores = os.cpu_count() or 1
    table = render_table(
        ["execution", "workers", "wall", "speedup", "efficiency"],
        rows,
        title=f"zgrab .com scan, {len(population.sites)} sites, {SHARDS} shards "
        f"(host cores: {cores})",
    )
    emit("parallel_scan", table)
    emit_json(
        "parallel_scan",
        {
            "sites": len(population.sites),
            "shards": SHARDS,
            "workers": WORKERS,
            "host_cores": cores,
            "baseline_wall_s": baseline_wall,
            "wall_s": dict(walls),
            "speedup": {mode: baseline_wall / wall for mode, wall in walls.items()},
            "shard_walls_s": shard_walls,
            "modeled_makespan_s": makespan,
            "modeled_speedup": modeled_speedup,
        },
    )

    # per-stage attribution: where the scan's wall clock goes, from an
    # obs-instrumented serial run (uncontended, so stage shares are clean)
    obs = make_obs(prefix="bench")
    profiled = ShardedZgrabCampaign(
        population=population,
        config=ParallelConfig(shards=SHARDS, workers=1, mode="serial"),
        obs=obs,
    )
    profiled_result = profiled.scan(0)
    emit(
        "parallel_scan_stages",
        render_table(
            PROFILE_HEADER,
            profile_rows(obs.registry),
            title=f"per-stage latency, sharded/serial ({SHARDS} shards)",
        ),
    )
    assert profiled_result == baseline_result, "obs instrumentation changed the result"

    # correctness first: every mode merged to the one-shard result
    for mode, result in results.items():
        assert result == baseline_result, mode

    # the partition keeps 4 workers ≥2× faster than one; on a ≥4-core host
    # the realized pool wall-clock must show it too
    assert modeled_speedup >= 2.0, (
        f"modeled 4-worker speedup {modeled_speedup:.2f}x < 2x "
        f"(shard walls: {[f'{w:.3f}' for w in shard_walls]})"
    )
    if cores >= WORKERS:
        best_real = baseline_wall / walls["process"]
        assert best_real >= 2.0, f"real 4-worker speedup {best_real:.2f}x < 2x on {cores} cores"
