"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Two traced runs per workload (about three minutes in all) check that
every count the trace reports repeats exactly, and that the layers a
workload bypasses record no calls.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("reproduce", "zgrab-stream", "serve-live")

#: layers that must stay idle on a workload, as boundary-name prefixes
BYPASSED = {
    "reproduce": ("core.dynamic.", "obs.", "graph.", "service."),
    "zgrab-stream": (
        "core.dynamic.", "wasm.", "web.visit.", "blockchain.", "pool.",
        "analysis.simulate_network.", "obs.", "graph.", "service.",
    ),
    "serve-live": ("blockchain.", "pool.", "analysis.simulate_network.", "web.visit."),
}


def traced_metrics(workload: str) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "2018", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced_pairs():
    cache: dict = {}

    def pair(workload: str) -> tuple:
        if workload not in cache:
            cache[workload] = (traced_metrics(workload), traced_metrics(workload))
        return cache[workload]

    return pair


#: the server's simulated-time figures: pure functions of the schedule
SIMULATED = {name for name, _counter in run.SERVICE_COUNTERS} | {
    "service.queue_depth_peak", "service.queue_wait_p50_s", "service.queue_wait_p99_s",
}


def is_count(name: str) -> bool:
    return name.endswith(".calls") or name.endswith("_ratio") or name in SIMULATED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_ratios_repeat_exactly(traced_pairs, workload):
    first, second = traced_pairs(workload)
    counts = [name for name in first if is_count(name)]
    assert counts
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bypassed_layers_record_no_calls(traced_pairs, workload):
    metrics, _ = traced_pairs(workload)
    idle = [
        name for name in metrics
        if name.endswith(".calls") and name.startswith(BYPASSED[workload])
    ]
    assert idle
    assert {name: metrics[name] for name in idle} == dict.fromkeys(idle, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_remainder_add_up_to_wall(traced_pairs, workload):
    metrics, _ = traced_pairs(workload)
    remainder = metrics["unattributed.self_s"]
    attributed = sum(
        value for name, value in metrics.items()
        if name.endswith(".self_s") and name != "unattributed.self_s"
    )
    assert remainder >= 0
    assert attributed + remainder == pytest.approx(metrics["trace.wall_s"])


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("web.lookup", inner)
    tracer.wrap("web.visit", outer)()
    (_, start, end, _), (_, child_start, child_end, parent) = tracer.spans
    assert parent == 0
    outer_self, inner_self = tracer.self_times_ns()
    assert inner_self == child_end - child_start
    assert outer_self == (end - start) - inner_self
    assert outer_self + inner_self == end - start


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-live", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
