"""Negative controls for the benchmark's gates: a wrong answer is counted as
a failed job, never passed silently.

    python3 -m pytest perfbench
"""
import json
import os
import random
import shutil
import subprocess
import sys

import worker

worker.import_akzeta()

from akzeta import verify  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = verify.VerifyConfig(n_max=4, k_max=2, m_max=2)
ALL_SUITES = tuple(suite for suite, _, _ in workloads.SUITES)


def test_suite_jobs_mirror_run_all():
    report = verify.run_all(SMALL)
    jobs = workloads.verify_jobs(random.Random(0), ALL_SUITES, SMALL)
    assert sorted(j.name for j in jobs) == sorted(f"verify {c.name}" for c in report.checks)
    assert {c.status for c in report.checks} == {"pass"}
    out = worker.run_jobs(jobs, Tracer(False))
    assert (out["attempted"], out["failed"]) == (23, 0)


def test_corrupt_route_agreement_is_counted_failed():
    job = workloads._check_job(
        "route-agreement", lambda: verify.check_route_agreement(4, 2, corrupt=True)
    )
    out = worker.run_jobs([job], Tracer(False))
    assert (out["attempted"], out["failed"]) == (1, 1)
    assert "route-agreement" in out["failures"][0]


def test_corrupt_verify_config_fails_exactly_one_job():
    cfg = verify.VerifyConfig(n_max=4, k_max=2, m_max=2, corrupt=True)
    out = worker.run_jobs(workloads.verify_jobs(random.Random(0), ALL_SUITES, cfg), Tracer(False))
    assert (out["attempted"], out["failed"]) == (23, 1)
    assert out["failures"][0].startswith("verify route-agreement")


def test_perturbed_reference_value_fails_the_numeric_gate(monkeypatch):
    job = workloads._mellin_job(2, 1, workloads.MELLIN_TOL, "zetanum.mellin")
    assert worker.run_jobs([job], Tracer(False))["failed"] == 0
    monkeypatch.setitem(workloads.AK_ZETA, (2, 1), workloads.ZETA3 + 1e-6)
    out = worker.run_jobs([job], Tracer(False))
    assert out["failed"] == 1 and "GateError" in out["failures"][0]


def test_exact_disagreement_fails_the_exact_gate():
    tr = Tracer(False)
    workloads.agree(tr, "same", 3, 3)
    try:
        workloads.agree(tr, "off by one", 3, 4)
    except workloads.GateError:
        return
    raise AssertionError("a disagreement passed the exact gate")


def test_self_times_subtract_children():
    tr = Tracer(True)
    with tr.span("outer"):
        with tr.span("inner"):
            sum(range(10000))
    (_, s0, e0, _, _), (_, s1, e1, parent, _) = tr.spans
    assert parent == 0
    self_s = tr.self_times()
    assert abs(self_s["outer"] - ((e0 - s0) - (e1 - s1))) < 1e-12
    assert abs(self_s["outer"] + self_s["inner"] - (e0 - s0)) < 1e-12


def test_same_seed_same_inputs():
    for name in run.WORKLOADS:
        a = [j.name for j in workloads.make_jobs(name, 5)]
        assert a == [j.name for j in workloads.make_jobs(name, 5)]


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    here = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(here, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(here), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbol-routes", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_listed_metrics_match_the_report():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name, _ in workloads.verify_calls(SMALL):
        assert f"verify.{name}_s" in per_layer
