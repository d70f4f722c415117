"""Regenerate ``reference.json``: every workload's outputs for seed 2018.

    python3 perfbench/bless.py [WORKLOAD ...]

Runs, through the same child processes as ``run.py``, each repetition a
run of the longest allowed ``--seconds`` makes, and rewrites the named
workloads' entries (all of them by default). Run it only when a change to
the program is meant to change its outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEED = 2018


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    names = names or list(workloads.WORKLOADS)
    payload = (
        json.loads(run.REFERENCE.read_text())
        if run.REFERENCE.exists()
        else {"seed": REFERENCE_SEED, "workloads": {}}
    )
    for name in names:
        reps = workloads.rep_count(workloads.WORKLOADS[name], workloads.MAX_SECONDS)
        payload["workloads"][name] = [
            run.spawn(name, REFERENCE_SEED, "rep", index)["outputs"] for index in range(reps)
        ]
        print(f"{name}: {reps} repetitions", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
