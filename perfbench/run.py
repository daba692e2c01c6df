"""The akzeta benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports akzeta from the checkout's
`src`.  One run:

1. makes one unmeasured `python -m akzeta num --n 1 --k 2` call, which
   writes the bytecode caches;
2. for S seconds, alternates set-up probes and passes: a probe times that
   CLI call in a fresh interpreter and checks its output (setup_s is the
   median of at least 7); a pass runs the workload in a fresh interpreter
   (perfbench/worker.py) and runs every seed-made job, each checked by its
   gate.  A pass is not started when it would end after S seconds, going by
   the longest pass so far, unless fewer than 3 passes have run; so the
   medians are over at least 3 passes and a run ends near S seconds;
3. prints a summary with units and provenance, writes the full result and
   the spans under .bench_out/, and prints one JSON line last.

Spreading the probes over the run, rather than making them all first, lets
setup_s and wall_s see the same stretch of host load.

With --trace 0 the JSON holds the end-to-end metrics of BENCHMARK.json
(medians over passes).  With --trace 1 passes alternate between untraced and
traced; the JSON holds the per-layer metrics of BENCHMARK.json, read from the
traced pass with the median wall time, plus the tracing overhead (median
traced minus median untraced wall time).

Exit status: 0 when every job passed its gate, 1 when any failed (the result
is still printed), 2 when the checkout holds no akzeta source or the
workload is unknown (nothing is printed on stdout).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("symbol-routes", "series-and-zeta")
SETUP_PROBES = 7  # at least this many measured set-up calls
MIN_PASSES = 3  # at least this many passes, whatever --seconds says
SETUP_COMMAND = ["-m", "akzeta", "num", "--n", "1", "--k", "2"]
SETUP_EXPECTED = {"den": "4", "num": "1"}
RUN_LIMIT_S = 170  # every run must end within 180 s


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as f:
            return f.read().strip()
    except OSError:
        return "unavailable"


def git_sha() -> str:
    """HEAD of the checkout read from .git, without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    """The checkout's source first on the path; numpy's BLAS on one thread, so
    that each interpreter is a single client with no extra threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    # one string-hash seed for every pass, so passes differ only in host load
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_probe(deadline: float) -> tuple[float, str | None]:
    """Wall time of one fresh-interpreter CLI call and its failure, if any."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *SETUP_COMMAND],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "setup: timed out"
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, f"setup: exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        got = json.loads(proc.stdout)
    except json.JSONDecodeError:
        got = proc.stdout
    if got != SETUP_EXPECTED:
        return wall, f"setup: printed {proc.stdout.strip()!r}, expected {SETUP_EXPECTED}"
    return wall, None


def run_pass(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(int(traced))],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(5.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_pass(passes: list[dict]) -> dict:
    ordered = sorted(passes, key=lambda p: p["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer_metrics(names: list[str], traced: list[dict], untraced: list[dict]) -> dict:
    chosen = median_pass(traced)
    values = {f"{name}_s": s for name, s in chosen["self_s"].items()}
    values.update(chosen["counters"])
    values["trace.wall_s"] = chosen["wall_s"]
    values["trace.unattributed_s"] = chosen["wall_s"] - sum(chosen["self_s"].values())
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    unlisted = sorted(set(values) - set(names))
    if unlisted:
        raise RuntimeError(f"per-layer values missing from BENCHMARK.json: {unlisted}")
    # a layer this workload never enters has spent no time and done no work
    return {name: float(values.get(name, 0.0)) for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "akzeta", "__init__.py")):
        print(f"no akzeta source under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    deadline = time.monotonic() + RUN_LIMIT_S
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": loadavg(),
    }
    failures: list[str] = []
    attempted = 0

    # one unmeasured call writes the bytecode caches
    setup_probe(deadline)
    setup_walls: list[float] = []

    def probe() -> None:
        nonlocal attempted
        wall, failure = setup_probe(deadline)
        setup_walls.append(wall)
        attempted += 1
        if failure:
            failures.append(failure)

    passes: list[dict] = []
    longest = 0.0
    t0 = time.monotonic()
    while True:
        traced_done = any(p["traced"] for p in passes)
        untraced_done = any(not p["traced"] for p in passes)
        enough = len(passes) >= MIN_PASSES and untraced_done and (traced_done or not args.trace)
        if enough and time.monotonic() - t0 + longest > args.seconds:
            break
        probe()
        trace_this = bool(args.trace) and untraced_done and not passes[-1]["traced"]
        started = time.monotonic()
        try:
            p = run_pass(args.workload, args.seed, trace_this, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as e:
            failures.append(f"pass {len(passes)}: {type(e).__name__}: {e}")
            attempted += 1
            break
        longest = max(longest, time.monotonic() - started + statistics.median(setup_walls))
        passes.append(p)
        attempted += p["attempted"]
        failures.extend(p["failures"])
        if p["jobs"] != passes[0]["jobs"]:
            failures.append(f"pass {len(passes) - 1}: job list differs from pass 0 for one seed")
    provenance["measured_s"] = time.monotonic() - t0
    while len(setup_walls) < SETUP_PROBES:
        probe()

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    provenance["loadavg_end"] = loadavg()
    provenance["numpy"] = passes[0]["numpy"] if passes else "unknown"
    provenance["passes"] = {"untraced": len(untraced), "traced": len(traced)}

    metrics: dict[str, float] = {}
    if not untraced or (args.trace and not traced):
        failures.append("run: no complete pass of each kind")
    elif args.trace:
        metrics = per_layer_metrics(list(units), traced, untraced)
    else:
        metrics = {
            "setup_s": statistics.median(setup_walls),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        }
    failed = len(failures)
    correct = not failures and set(metrics) == set(units)

    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": provenance,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "setup_walls_s": setup_walls,
        "passes": [{k: v for k, v in p.items() if k != "spans"} for p in passes],
    }
    with open(os.path.join(OUT, f"result-{stem}.json"), "w") as f:
        json.dump(record, f, indent=1)
    if traced:
        with open(os.path.join(OUT, f"trace-{stem}.json"), "w") as f:
            json.dump({"provenance": provenance, "passes": [p["spans"] for p in traced]}, f)

    print(f"provenance: {json.dumps(provenance)}")
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"failed_ratio: {failed / max(attempted, 1):.6g} ({failed}/{attempted} jobs)")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
