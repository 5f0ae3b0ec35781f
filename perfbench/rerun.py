#!/usr/bin/env python3
"""Rerun the whole benchmark and summarise the spread of its figures.

    python3 perfbench/rerun.py

Reads the command, run length and workloads from BENCHMARK.json.  For
each workload it runs the command once per seed 1-10 with ``--trace 0``,
one process at a time, then once with ``--trace 1`` on seed 1.  It
prints, per end-to-end metric, the median of the runs, the first and
third quartiles and the spread (q3 - q1) / median next to the metric's
bound, the share of failed operations, and the traced run's per-layer
figures.  The raw results go to ``perfbench/work/rerun.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(spec, workload, seed, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(argv),
                                                  proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(spec, workload, seed, 0))
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()})),
                flush=True)
        traced = run_once(spec, workload, SEEDS[0], 1)
        results[workload] = {"runs": runs, "traced": traced}

        print("\n%s: %d runs, failed %s of attempted %s"
              % (workload, len(runs), [r["failed"] for r in runs],
                 [r["attempted"] for r in runs]))
        print("  %-18s %12s %12s %12s %8s %6s" % ("metric", "q1", "median",
                                                 "q3", "spread", "bound"))
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            if len(values) < 2:
                continue
            q1, med, q3 = quartiles(values)
            print("  %-18s %12.6g %12.6g %12.6g %8.4f %6.2f"
                  % (metric["name"], q1, med, q3, (q3 - q1) / med,
                     metric["bound"]))
        print("  traced run, seed %d:" % SEEDS[0])
        for name, m in sorted(traced["metrics"].items()):
            print("    %-28s %14.6g %s" % (name, m["value"], m["unit"]))
        print(flush=True)

    out = ROOT / "perfbench" / "work" / "rerun.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
