#!/usr/bin/env python3
"""Repeated sets of benchmark runs, one fresh process per run.

    python3 perfbench/repeat.py --workload gap-scaling --seeds 0-9 --sets 2

Runs ``perfbench/run.py`` once per seed and set, one run at a time; each
set takes the next block of seeds (``--seeds 0-9 --sets 2`` runs 0-9, then
10-19).  Prints for every metric the median and quartiles of each set
(``statistics.quantiles(values, n=4)``), the spread (interquartile range
over the median) against the metric's bound in BENCHMARK.json, and, from
the second set on, how much worse its median is than the first set's.
Also prints the share of failed operations of each set.  ``--trace 1``
does the same for the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"run failed (exit {proc.returncode}) for seed {seed}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    seconds = spec["run_seconds"]
    seeds = seed_list(args.seeds)
    sets = []
    for k in range(args.sets):
        runs = []
        for seed in (s + k * len(seeds) for s in seeds):
            runs.append(run_once(args.workload, seed, seconds, args.trace))
            print(f"set {k + 1} seed {seed}: " + json.dumps(runs[-1]), file=sys.stderr, flush=True)
        sets.append(runs)

    print(f"{args.workload}: {args.sets} set(s) of {len(seeds)} seeds from {seeds[0]}, "
          f"{seconds} s per run\n")
    print("| metric | set | median | q1 | q3 | spread | bound | worse than set 1 |")
    print("|---|---|---|---|---|---|---|---|")
    for m in metrics:
        first = None
        for k, runs in enumerate(sets):
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / abs(med) if med else float("nan")
            first = med if first is None else first
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (med - first) / abs(first) if first else float("nan")
            print(f"| {m['name']} ({m['unit']}) | {k + 1} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                  f"{spread:.3f} | {m.get('bound', '-')} | {worse:+.3f} |")
    for k, runs in enumerate(sets):
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"\nset {k + 1}: {failed}/{attempted} operations failed (per-run shares {shares}); "
              f"all correct: {correct}")


if __name__ == "__main__":
    main()
