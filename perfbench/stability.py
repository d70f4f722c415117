"""Interleaved repeat runs: how much each end-to-end metric spreads.

    python3 perfbench/stability.py --seeds 1-10 --sets 2
    python3 perfbench/stability.py --seeds 1-10 --side ../parent --side .

Runs ``run.py`` once per (seed, workload, side, set), walking seeds in the
outer loop and workloads inside it, and alternating which side and set
goes first from one step to the next, so drift of the host lands on every
side alike instead of on one batch. For each side and set it prints each
metric's median, quartiles (``statistics.quantiles(n=4)``) and spread (the
quartile distance over the median) against the bound in BENCHMARK.json,
then each later set's or side's median against the first one's, and how
far its runs stray from the first set's run on the same seed: the largest
and the median over seeds of ``|a - b| / median(a, b)``. Only that last
figure separates host noise from input variation, because the two runs of
a pair share their inputs. A median gap above a tenth fails the run-to-run
repeat aim; a largest gap above the bound is marked. Runs with the same
workload and seed must report the same outputs. Raw results go to ``.perfbench-out/stability-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
#: the median same-seed gap a metric may show from run to run
REPEAT_WITHIN = 0.1


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(side: pathlib.Path, command: list, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(argv, cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} in {side} failed:\n{completed.stderr[-2000:]}")
    return {"info": json.loads(lines[-2])["perfbench"], "result": json.loads(lines[-1])}


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def pair_gap(first: float, second: float) -> float:
    """``|first - second|`` over the pair's median (0 for two zeros)."""
    middle = statistics.median((first, second))
    return abs(first - second) / middle if middle else 0.0


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--sets", type=int, default=1, help="runs of each side per seed")
    parser.add_argument("--side", action="append", default=[], help="checkout to run (repeatable)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = [pathlib.Path(side).resolve() for side in args.side] or [ROOT]
    lanes = [(side, number) for side in sides for number in range(args.sets)]
    metrics = {m["name"]: m for m in spec["end_to_end"]} if args.trace == 0 else {}
    runs = []
    step = 0
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            order = lanes if step % 2 == 0 else lanes[::-1]
            step += 1
            for side, number in order:
                record = run_once(side, spec["command"], workload, seed, spec["run_seconds"], args.trace)
                record.update(side=str(side), set=number, workload=workload, seed=seed)
                runs.append(record)
                print(f"{workload} seed={seed} side={side.name} set={number} "
                      f"correct={record['result']['correct']}", file=sys.stderr, flush=True)

    out = ROOT / ".perfbench-out"
    out.mkdir(exist_ok=True)
    (out / f"stability-{time.strftime('%Y%m%d-%H%M%S')}.json").write_text(json.dumps(runs, indent=1))

    problems = []
    outputs: dict = {}
    for run in runs:
        key = (run["workload"], run["seed"])
        seen = outputs.setdefault(key, run["info"]["outputs"])
        if seen != run["info"]["outputs"]:
            problems.append(f"{key[0]} seed {key[1]}: outputs differ between runs")
        if not run["result"]["correct"]:
            problems.append(f"{key[0]} seed {key[1]}: {run['info']['problems']}")

    for workload in workloads:
        first_medians = None
        first_lane = None
        for side, number in lanes:
            lane = [r for r in runs if r["workload"] == workload and r["side"] == str(side) and r["set"] == number]
            probe = statistics.median(r["info"]["host_probe_ms"]["before"] for r in lane)
            print(f"\n{workload}  side={side.name} set={number}  runs={len(lane)}  host probe {probe:.2f} ms")
            medians = {}
            for name, meta in metrics.items():
                values = [r["result"]["metrics"][name]["value"] for r in lane]
                median, q1, q3, share = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
                medians[name] = median
                flag = "" if share <= meta["bound"] / 3 else "  > bound/3"
                if share > meta["bound"]:
                    flag = "  > BOUND"
                    problems.append(f"{workload} {name}: spread {share:.3f} > bound {meta['bound']}")
                line = f"  {name:14} median {median:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {share:6.3f}  bound {meta['bound']}{flag}"
                if first_medians is not None:
                    worse = worsening(first_medians[name], median, meta["better"])
                    line += f"  vs first {worse:+.3f}"
                    if worse > meta["bound"]:
                        problems.append(f"{workload} {name}: median worse by {worse:.3f} > bound")
                    first_values = {r["seed"]: r["result"]["metrics"][name]["value"] for r in first_lane}
                    gaps = [pair_gap(first_values[r["seed"]], r["result"]["metrics"][name]["value"])
                            for r in lane if r["seed"] in first_values]
                    line += f"  same seed: max {max(gaps):.3f} median {statistics.median(gaps):.3f}"
                    if max(gaps) > meta["bound"]:
                        line += "  (max > bound)"
                    # a gap between two checkouts is the change, not noise
                    if side == lanes[0][0] and statistics.median(gaps) > REPEAT_WITHIN:
                        problems.append(f"{workload} {name}: same-seed runs differ by a median "
                                        f"{statistics.median(gaps):.3f} > {REPEAT_WITHIN}")
                print(line)
            if first_medians is None:
                first_medians = medians
                first_lane = lane
    for problem in problems:
        print("PROBLEM:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
