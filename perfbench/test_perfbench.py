"""Tests of the benchmark itself, on a tiny configuration.

    PYTHONPATH=src python -m pytest perfbench

The tiny configuration is ldc2d, Taylor-Hood k = 2, one refinement, hMG.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer as tr
import worker
import workloads as wl
from stokesmg import solvers

TINY = wl.Workload("tiny", "th", 2, "hmg", 1)
TINY_SV = wl.Workload("tiny-sv", "sv", 2, "phmg-direct", 1,
                      check_divergence=True)

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


@pytest.fixture(scope="module")
def results():
    timed = worker.execute(TINY, 1, 0.0, "timed")
    traced = worker.execute(TINY, 1, 0.0, "traced")
    return timed, traced


def _base(name):
    return re.sub(r"\.l\d+$", "", name)


def test_every_benchmark_metric_is_emitted_with_its_unit(results):
    timed, traced = results
    metrics, problems = run.collect(timed, SPEC["end_to_end"])
    assert not problems
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]][0] > 0

    metrics, problems = run.collect(traced, SPEC["per_layer"])
    emitted = {_base(n): run.unit(n) for n in metrics}
    for m in SPEC["per_layer"]:
        # the tiny hierarchy has two levels; deeper ones exist only in the
        # full workloads, where run.collect reports any that is missing
        assert emitted.get(_base(m["name"])) == m["unit"], m["name"]
        level = re.search(r"\.l(\d+)$", m["name"])
        if level is None or int(level.group(1)) == 0:
            assert m["name"] in metrics, m["name"]
    assert all("not measured" in p for p in problems)


def test_check_rejects_perturbed_solutions():
    for workload in (TINY, TINY_SV):
        problem = wl.make_problem(workload, 3)
        system, pc = wl.build(workload, problem)
        x, report = wl.solve(system, pc)
        assert wl.check_solution(workload, system, x, report) == []

        free = np.setdiff1d(np.arange(system.n_u), system.dirichlet_dofs)
        bad = x.copy()
        bad[free[len(free) // 2]] += 1e-3
        reasons = wl.check_solution(workload, system, bad, report)
        assert any("residual" in r for r in reasons)
        if workload.check_divergence:
            assert any("divergence" in r for r in reasons)

        bad = x.copy()
        bad[0] = np.nan
        assert wl.check_solution(workload, system, bad, report) == [
            "non-finite solution"]

        report.converged = False
        assert "not converged" in wl.check_solution(workload, system, x,
                                                    report)


def test_spans_nest_and_setup_self_times_sum_to_setup(results, tmp_path):
    _, traced = results
    for (total, span_s), rep in zip(traced["setup_self_sums"],
                                    traced["repeats"]):
        assert total == pytest.approx(rep["setup_s"], rel=0.05)
        assert total == pytest.approx(span_s, rel=1e-9)

    path = tmp_path / "spans.json"
    worker.execute(TINY, 2, 0.0, "traced", str(path))
    spans = json.loads(path.read_text())["repeats"][0]["spans"]
    names = {s[tr.NAME] for s in spans}
    assert {"setup", "solve", "assembly.operator", "relaxation.factor",
            "linalg.eig", "linalg.krylov", "relaxation.apply"} <= names
    for s in spans:
        assert s[tr.START] <= s[tr.END]
        if s[tr.PARENT] is not None:
            parent = spans[s[tr.PARENT]]
            assert parent[tr.START] <= s[tr.START] <= s[tr.END] \
                <= parent[tr.END]
    # the untraced run must see the library unwrapped again
    assert not hasattr(solvers.asm_apply, "__wrapped__")
    assert not hasattr(solvers.fgmres, "__wrapped__")


def test_traced_and_untraced_repeats_agree_on_iterations(results):
    timed, traced = results
    counts = {r["iterations"]
              for r in timed["repeats"] + traced["repeats"]
              + traced["untraced"]}
    assert len(counts) == 1


def test_force_accepts_scalars_and_arrays():
    force = wl.SeededForce(5)
    xs, ys = np.linspace(-1, 1, 7), np.linspace(1, -1, 7)
    fx, fy = force(xs, ys)
    for i in range(len(xs)):
        assert force(xs[i], ys[i]) == pytest.approx((fx[i], fy[i]))
    assert wl.SeededForce(5)(0.3, 0.1) == force(0.3, 0.1)
    assert wl.SeededForce(6)(0.3, 0.1) != force(0.3, 0.1)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ldc-th4-phmg",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == b""
