"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve-live --seed 2018 --seconds 30 --trace 0

Run from the repository root. Every repetition runs in a fresh child
process of this script. ``--trace 0`` times the workload's repetitions
untraced and prints the end-to-end metrics; ``--trace 1`` runs repetition 0
once untraced and once traced and prints the per-layer metrics. Both check
the workload's outputs first: against ``reference.json`` for the reference
seed, and against invariants every seed keeps. The last line of standard
output is the result object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records host facts, a host-speed probe and
every repetition's outputs. Both are also saved under ``.perfbench-out/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

#: one repetition's child process; a run must end within 180 s
CHILD_TIMEOUT_S = 150

#: set-ups timed per run: workloads with fewer repetitions add children
#: that only set up, so ``setup_s`` is always a median of this many
MIN_SETUPS = 7

SERVICE_COUNTERS = (
    ("service.offered", "service.requests.offered"),
    ("service.rejected.rate_limit", "service.rejected.rate_limit"),
    ("service.rejected.queue_full", "service.rejected.queue_full"),
    ("service.rejected.deadline", "service.rejected.deadline"),
    ("service.tier.full", "service.tier.full"),
    ("service.tier.no-dynamic", "service.tier.no-dynamic"),
    ("service.tier.no-classifier", "service.tier.no-classifier"),
    ("service.tier.static-only", "service.tier.static-only"),
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_us": "us",
    "item_p99_us": "us",
    "peak_rss_mb": "MB",
    "ok_share": "share",
}


def host_facts() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_model": model, "python": platform.python_version()}


def host_probe_ms(rounds: int = 7) -> float:
    """Median time of a fixed pure-Python loop that uses no program code.

    A diagnostic that tells host drift from a program change; it never
    enters a metric.
    """
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def quantile(values: list, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_against_reference(name: str, seed: int, outputs: list) -> list:
    """Mismatches of repetition outputs against the reference seed's."""
    reference = json.loads(REFERENCE.read_text())
    if seed != reference["seed"]:
        return []
    expected = reference["workloads"].get(name, [])
    problems = []
    for index, output in enumerate(outputs):
        if index >= len(expected):
            problems.append(f"rep {index}: no reference output")
        elif output != expected[index]:
            problems.append(f"rep {index}: outputs differ from reference.json")
    return problems


# ---------------------------------------------------------------------------
# child side: one repetition in a fresh process


def child_setup(workload, seed: int, index: int) -> tuple:
    """Set up repetition ``index``: the program's imports, the shared
    inputs and this repetition's inputs. Returns the state, the inputs and
    the set-up time."""
    import workloads

    progress = workloads.GapProgress(ok_only=workload.ok_only)
    start = time.perf_counter()
    state = workload.setup(seed, WORKDIR)
    inputs = workload.prepare(state, workloads.rep_seed(seed, index), progress)
    return state, inputs, time.perf_counter() - start


def child_rep(workload, seed: int, index: int) -> dict:
    """Set up, then time repetition ``index``."""
    state, inputs, setup_s = child_setup(workload, seed, index)
    gc.collect()
    began = time.perf_counter()
    outcome = workload.run(state, inputs)
    wall = time.perf_counter() - began
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "items": outcome.items,
        "operations": outcome.operations,
        "failed_operations": outcome.failed_operations,
        "outputs": outcome.outputs,
        "item_samples": len(outcome.gaps),
        "item_p50_s": quantile(outcome.gaps, 0.50),
        "item_p99_s": quantile(outcome.gaps, 0.99),
        "rss_mb": peak_rss_mb(),
    }


def child_pass(workload, seed: int, traced: bool) -> dict:
    """Repetition 0 from set-up to the end of the timed work, with or
    without the tracer. Every traced module is imported first, so the
    pass times no imports."""
    import importlib

    import tracing
    import workloads

    for _layer, targets in tracing.BOUNDARIES.values():
        for module_name, _path in targets:
            importlib.import_module(module_name)
    tracer = tracing.Tracer()
    if traced:
        tracer.install()
    progress = workloads.GapProgress(ok_only=workload.ok_only)
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(seed, WORKDIR)
    inputs = workload.prepare(state, workloads.rep_seed(seed, 0), progress)
    outcome = workload.run(state, inputs)
    wall = time.perf_counter() - start
    tracer.uninstall()
    payload = {"wall_s": wall, "items": outcome.items, "outputs": outcome.outputs}
    if traced:
        values = tracer.boundary_metrics()
        values.update(service_metrics(outcome.registry))
        values["unattributed.self_s"] = (wall - sum(tracer.self_times_ns()) / 1e9, "s")
        table = tracer.subtree_table()
        (WORKDIR / f"spans-{workload.name}-seed{seed}.json").write_text(
            json.dumps({"table": table, "spans": tracer.spans_payload()})
        )
        payload.update(layers=values, spans=len(tracer.spans), table=table)
    return payload


def service_metrics(registry) -> dict:
    metrics = {}
    for name, counter in SERVICE_COUNTERS:
        metrics[name] = (registry.counter(counter) if registry is not None else 0, "count")
    peak = registry.gauges.get("service.queue.depth", 0.0) if registry is not None else 0.0
    metrics["service.queue_depth_peak"] = (peak, "count")
    wait = registry.histograms.get("service.queue_wait") if registry is not None else None
    metrics["service.queue_wait_p50_s"] = (wait.quantile(0.5) if wait is not None else 0.0, "sim_s")
    metrics["service.queue_wait_p99_s"] = (wait.quantile(0.99) if wait is not None else 0.0, "sim_s")
    return metrics


def per_layer_names() -> list:
    import tracing

    names = tracing.boundary_metric_names()
    names += [name for name, _counter in SERVICE_COUNTERS]
    names += ["service.queue_depth_peak", "service.queue_wait_p50_s", "service.queue_wait_p99_s"]
    names += ["unattributed.self_s", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"]
    return names


# ---------------------------------------------------------------------------
# coordinator side


class ChildFailed(Exception):
    """A child process broke a check or crashed."""


def spawn(workload_name: str, seed: int, mode: str, index: int = 0) -> dict:
    """Run one child to completion and return its payload."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", str(seed), "--child", mode, "--index", str(index)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise ChildFailed(f"{mode} child {index} exited {completed.returncode}: "
                          f"{completed.stderr.strip()[-1500:]}")
    payload = json.loads(completed.stdout.strip().splitlines()[-1])
    if "problem" in payload:
        raise ChildFailed(f"rep {index}: {payload['problem']}")
    return payload


def run_untraced(workload, seed: int, seconds: float) -> tuple:
    import workloads

    count = workloads.rep_count(workload, seconds)
    reps = [spawn(workload.name, seed, "rep", index) for index in range(count)]
    setups = [rep["setup_s"] for rep in reps] + [
        spawn(workload.name, seed, "setup", index)["setup_s"]
        for index in range(count, MIN_SETUPS)
    ]
    operations = sum(rep["operations"] for rep in reps)
    failed = sum(rep["failed_operations"] for rep in reps)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "items_per_s": statistics.median(rep["items"] / rep["wall_s"] for rep in reps),
        "item_p50_us": statistics.median(rep["item_p50_s"] for rep in reps) * 1e6,
        "item_p99_us": statistics.median(rep["item_p99_s"] for rep in reps) * 1e6,
        "peak_rss_mb": statistics.median(rep["rss_mb"] for rep in reps),
        "ok_share": 1.0 - failed / operations if operations else 1.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    detail = {
        "samples": {
            key: [rep[key] for rep in reps]
            for key in ("wall_s", "item_p50_s", "item_p99_s", "rss_mb")
        } | {"setup_s": setups},
        "items": sum(rep["items"] for rep in reps),
        "item_samples": sum(rep["item_samples"] for rep in reps),
        "operations": operations,
        "failed_operations": failed,
        "failed_share": failed / operations if operations else 0.0,
    }
    return [rep["outputs"] for rep in reps], metrics, detail


def run_traced(workload, seed: int) -> tuple:
    untraced = spawn(workload.name, seed, "untraced")
    traced = spawn(workload.name, seed, "traced")
    if traced["outputs"] != untraced["outputs"]:
        raise ChildFailed("the traced and untraced passes produced different outputs")
    values = dict(traced["layers"])
    values["trace.wall_s"] = (traced["wall_s"], "s")
    values["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    values["trace.overhead_s"] = (traced["wall_s"] - untraced["wall_s"], "s")
    metrics = {name: {"value": values[name][0], "unit": values[name][1]} for name in per_layer_names()}
    detail = {
        "items": traced["items"],
        "spans": traced["spans"],
        "table": [
            {"boundary": name, "layer": layer, "calls": calls,
             "self_s": round(self_s, 6), "subtree_s": round(subtree_s, 6)}
            for name, layer, calls, self_s, subtree_s in traced["table"]
        ],
    }
    return [traced["outputs"]], metrics, detail


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("rep", "setup", "untraced", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.seconds is None:
        args.seconds = float(json.loads(SPEC.read_text())["run_seconds"])
    WORKDIR.mkdir(exist_ok=True)
    if args.child:
        try:
            if args.child == "rep":
                payload = child_rep(workload, args.seed, args.index)
            elif args.child == "setup":
                payload = {"setup_s": child_setup(workload, args.seed, args.index)[2]}
            else:
                payload = child_pass(workload, args.seed, traced=args.child == "traced")
        except workloads.CheckError as error:
            payload = {"problem": str(error)}
        print(json.dumps(payload))
        return 0

    probe_before = host_probe_ms()
    problems = []
    try:
        if args.trace:
            outputs, metrics, detail = run_traced(workload, args.seed)
        else:
            outputs, metrics, detail = run_untraced(workload, args.seed, args.seconds)
    except (ChildFailed, subprocess.TimeoutExpired) as error:
        outputs, metrics, detail = [], {}, {}
        problems.append(str(error))
    probe_after = host_probe_ms()
    problems += check_against_reference(workload.name, args.seed, outputs)
    correct = not problems
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(),
        "host_probe_ms": {"before": probe_before, "after": probe_after},
        "rep_seeds": [workloads.rep_seed(args.seed, i) for i in range(len(outputs))],
        "outputs": outputs,
        "problems": problems,
        **detail,
    }
    result = {
        "correct": correct,
        "attempted": max(1, detail.get("items", 0)),
        "failed": 0 if correct else 1,
        "metrics": metrics if correct else {},
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (WORKDIR / f"{stem}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
