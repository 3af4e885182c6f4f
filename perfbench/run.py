#!/usr/bin/env python3
"""gtimm's benchmark: one run of one workload.

    python3 perfbench/run.py --workload paper-cli --seed 0 --seconds 40 --trace 0

Runs whole rounds of identical operations for about ``--seconds`` (a round
starts while it is expected to end in time; at least one round runs), each
after building the workload's inputs from the seed five times (``setup_s`` is
the median of these set-ups), checks every output against
computations that do not use gtimm, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` untraced and traced rounds alternate and the metrics are
the per-layer ones, plus the tracing overhead.

gtimm is imported from ``src/`` of the checkout this file sits in; the
run fails when it is not there.  Everything runs in this one process, on
one thread: BLAS and OpenMP are pinned before numpy is imported, and
GTIMM_THREADS=1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "GTIMM_THREADS": "1"}
SETUPS_PER_ROUND = 5


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def import_gtimm():
    """gtimm from this checkout's src/, or None."""
    package = ROOT / "src" / "gtimm"
    if not (package / "__init__.py").is_file():
        log(f"no gtimm sources at {package}")
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import gtimm
    import gtimm.cli  # the package does not import its CLI itself

    if Path(gtimm.__file__).resolve().parent != package.resolve():
        log(f"imported gtimm from {gtimm.__file__}, not from {package}")
        return None
    return gtimm


def measure(workload, gtimm, seed, seconds, trace, workdir):
    import tracing
    import workloads

    wl = workloads.WORKLOADS[workload](gtimm, ROOT)
    setup_times, inp = [], None
    tally = workloads.Tally(log)
    tracer = tracing.Tracer(gtimm) if trace else None
    plain, traced = defaultdict(list), defaultdict(list)  # metric -> samples
    round_s = {False: [], True: []}  # traced? -> round durations
    layers = []
    start = time.perf_counter()
    rounds, last = 0, 0.0
    # whole rounds only: start one more while it should end by the deadline
    while rounds < (2 if trace else 1) or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        # set-up is timed before every round, so its samples span the run as
        # the round's do; every set-up gives the same inputs, and the round
        # uses the last one
        for _ in range(SETUPS_PER_ROUND):
            inp = None
            shutil.rmtree(workdir / "setup", ignore_errors=True)
            t0 = time.perf_counter()
            inp = wl.setup(seed, workdir / "setup")
            setup_times.append(time.perf_counter() - t0)
        traced_round = trace and rounds % 2 == 1
        if traced_round:
            tracer.reset()
            tracer.install()
        tally.begin_round(wl.ops_per_round)
        t0 = time.perf_counter()
        try:
            wl.run_round(inp, tally, traced if traced_round else plain)
        except Exception as exc:  # a fault of the program: count it and go on
            tally.abort_round(exc)
        finally:
            if traced_round:
                tracer.uninstall()
                layers.append(tracer.summary())
        round_s[traced_round].append(time.perf_counter() - t0)
        rounds += 1
        last = time.perf_counter() - round_start
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    timed = [m["name"] for m in spec["end_to_end"] if m["name"] not in ("setup_s", "peak_rss_mb")]
    if not all(plain[name] for name in timed) or (trace and not layers):
        return None, tally

    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            name = m["name"]
            if name == "setup_s":
                value = statistics.median(setup_times)
            elif name == "peak_rss_mb":
                value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            else:
                value = statistics.median(plain[name])
            metrics[name] = (value, m["unit"])
    else:
        untraced_s = statistics.median(round_s[False])
        overhead = statistics.median(round_s[True]) - untraced_s
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                value = overhead
            elif name == "trace.overhead_share":
                value = overhead / untraced_s
            else:
                value = statistics.median(s.get(name, 0.0) for s in layers)
            metrics[name] = (value, m["unit"])
        for name in sorted(set().union(*layers)):
            log(f"{name:48s} {statistics.median(s.get(name, 0.0) for s in layers):.6g}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, tally


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-cli", "many-groups", "gap-scaling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(THREAD_PINS)  # before numpy is first imported
    gtimm = import_gtimm()
    if gtimm is None:
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        metrics, tally = measure(args.workload, gtimm, args.seed, args.seconds, bool(args.trace),
                                 workdir)
    finally:
        shutil.rmtree(workdir)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run is using it
    for what, value in tally.largest.items():
        log(f"largest {what}: {value:.3g}")
    if metrics is None:
        log("no round completed")
        return 1
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
