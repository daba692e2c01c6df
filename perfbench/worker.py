"""One pass of one workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1

Imports akzeta from the checkout's `src`, builds the workload's jobs from the
seed, runs them once as a closed loop with one client and no extra threads
or processes, and prints one JSON object: the loop's wall time, this
process's peak resident memory, job counts, failures, counters and, when
traced, the per-span self times and the spans themselves.  Module caches
start cold because the interpreter is new.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_akzeta():
    """Import akzeta from this checkout's src, never from an installed copy."""
    sys.path.insert(0, SRC)
    import akzeta

    where = os.path.dirname(os.path.abspath(akzeta.__file__))
    if where != os.path.join(SRC, "akzeta"):
        raise ImportError(f"akzeta imported from {where}, not from {SRC}")
    return akzeta


def run_jobs(jobs: list, tr) -> dict:
    """Run the jobs once, in order; a job that raises or fails its gate is
    counted as failed and the loop goes on."""
    failures = []
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        tr.job = i
        with tr.span("bench.job"):
            try:
                job.run(tr)
            except Exception as e:
                failures.append(f"{job.name}: {type(e).__name__}: {e}")
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "jobs": [job.name for job in jobs],
        "counters": dict(tr.counters),
        "traced": tr.enabled,
    }
    if tr.enabled:
        out["self_s"] = tr.self_times()
        out["spans"] = tr.records()
    return out


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    import_akzeta()
    import numpy
    from tracing import Tracer
    from workloads import make_jobs

    out = run_jobs(make_jobs(workload, seed), Tracer(traced))
    out["numpy"] = numpy.__version__
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print(json.dumps(run_pass(args.workload, args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
