#!/usr/bin/env python3
"""Prints perfbench's simulated results as one JSON object.

    scripts/perfbench_sim.py <perfbench binary> > PERFBENCH_SIM.json

For seeds 1-3 of every workload it runs the driver twice with the
shortest time budget, so it makes its minimum of measured runs: once
untraced, for attempted and failed (per measured run), p50_ms, tail_ms
and goodput_frac, and once with --trace 1, for every per-layer metric
that is not a host time. Three driver processes run at a time. All of these are pure functions of the seed.
scripts/check.sh diffs the output against the tracked PERFBENCH_SIM.json
at the repository root, so a change that moves any simulated result of
the repository benchmark fails there. After an intended change to the
simulation, regenerate the file with this script.
"""

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

WORKLOADS = ("tablet-skew", "converged-pipelines", "serve-spike")
SEEDS = (1, 2, 3)
END_TO_END = ("p50_ms", "tail_ms", "goodput_frac")


def is_host_metric(name):
    """Host times and ratios of host times: they vary run to run."""
    return (name.startswith("host.") or "host_" in name or
            name == "trace.overhead_frac")


def run(binary, workload, seed, trace):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    lines = done.stdout.rstrip("\n").splitlines()
    runs = int(re.search(r"  runs (\d+)$", lines[0]).group(1))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: the driver reported a "
                         "violation")
    return runs, result


def simulated(binary, workload, seed):
    runs, plain = run(binary, workload, seed, 0)
    out = {
        "attempted": plain["attempted"] // runs,
        "failed": plain["failed"] // runs,
    }
    for name in END_TO_END:
        out[name] = plain["metrics"][name]["value"]
    _, traced = run(binary, workload, seed, 1)
    for name, metric in traced["metrics"].items():
        if not is_host_metric(name):
            out[name] = metric["value"]
    return out


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: scripts/perfbench_sim.py <perfbench binary>")
    cases = [(workload, seed) for workload in WORKLOADS for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=len(WORKLOADS)) as pool:
        results = pool.map(lambda case: simulated(sys.argv[1], *case), cases)
        report = {}
        for (workload, seed), result in zip(cases, results):
            report.setdefault(workload, {})[str(seed)] = result
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
