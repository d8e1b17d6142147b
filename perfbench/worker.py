"""Run one workload in this (fresh) process and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode {timed,traced} [--spans PATH]

Both modes run a discarded warm-up (the same workload at one refinement, so
every code path has been imported and run once), then full repeats of one
setup plus one solve for as long as the next one is predicted to end within
``--seconds`` (at least one). Every solve goes through the correctness
check.

``timed`` installs no wrapper; it gives the end-to-end numbers. ``traced``
alternates untraced repeats with traced ones, which wrap the library's
layers (see ``tracer.py``) and pass a ``Timings`` to ``solve_stokes``; it
then times each level's smoother and SpMV in isolation and computes a
reference spectral radius of every smoothed operator. It gives the
per-layer numbers, the tracing overhead, and writes its spans to
``--spans``.

The library must be importable (``PYTHONPATH=src``); ``run.py`` sets that up.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigs

from stokesmg import relaxation
from stokesmg.linalg import CHEBYSHEV_UPPER
from stokesmg.timing import Timings

import tracer as tr
import workloads as wl

WARMUP_REFINEMENTS = 1
KERNEL_MIN_SECONDS = 0.2
KERNEL_MIN_CALLS = 5
EIG_TOL = 1e-3
EIG_NCV = 20
KERNEL_SEED = 0x5EED


def run_once(workload, seed, refinements=None, tracer=None):
    """One setup plus one solve, checked.

    Returns the repeat's record and, when traced, the live objects the
    per-layer metrics read.
    """
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    on_force = tracer.charge if tracer is not None else None
    timer = Timings() if tracer is not None else None
    gc.collect()
    t0 = time.perf_counter()
    with span("setup"):
        with span("problems.build"):
            problem = wl.make_problem(workload, seed, refinements, on_force)
        system, pc = wl.build(workload, problem)
    t1 = time.perf_counter()
    with span("solve"):
        x, report = wl.solve(system, pc, timer)
    t2 = time.perf_counter()
    repeat = {"setup_s": t1 - t0, "solve_s": t2 - t1,
              "time_to_solution_s": t2 - t0, "iterations": report.iterations,
              "failures": wl.check_solution(workload, system, x, report)}
    live = None
    if tracer is not None:
        live = {"system": system, "pc": pc, "report": report, "timer": timer}
    return repeat, live


def measure(workload, seed, seconds, tracer=None):
    """Warm-up, then repeats within the time budget.

    Without a tracer every repeat is untraced. With one, each step is a
    pair, an untraced repeat and then a traced one, so the tracing overhead
    compares neighbours in time rather than two runs minutes apart, between
    which a shared machine's speed can drift. Returns (warm-up record, untraced
    records, traced records, their traces, live objects of the last traced
    repeat).
    """
    warmup, _ = run_once(workload, seed, WARMUP_REFINEMENTS)
    untraced, traced, traces, live = [], [], [], None
    start = time.perf_counter()
    while True:
        live = None  # release the previous hierarchy before building anew
        t0 = time.perf_counter()
        untraced.append(run_once(workload, seed)[0])
        if tracer is not None:
            tracer.reset()
            with tracer:
                repeat, live = run_once(workload, seed, tracer=tracer)
            traced.append(repeat)
            traces.append({"spans": tracer.spans,
                           "krylov_matvecs": tracer.krylov_matvecs})
        duration = time.perf_counter() - t0
        if time.perf_counter() - start + duration > seconds:
            break
    return warmup, untraced, traced, traces, live


# -- per-layer metrics from the spans of one repeat ---------------------------

def layer_metrics(trace, live):
    """Per-layer metrics of one traced repeat.

    Level suffix ``.l<i>`` counts from the finest level (i = 0) of the
    hierarchy the preconditioner relaxes on. Operators are mapped to levels
    by their dimension, which is distinct on every level of these
    hierarchies; an operator of no level (the FBF outer system) is
    ``.outer``.
    """
    hierarchy = wl.hierarchy_of(live["pc"])
    level_of = {level.n: i for i, level in enumerate(hierarchy.levels)}
    if len(level_of) != len(hierarchy.levels):
        raise ValueError("two levels share a dimension; spans cannot be "
                         "mapped to levels")
    finest_n = live["system"].n
    timer = live["timer"]
    report = live["report"]
    spans = trace["spans"]
    self_s = tr.self_times(spans)
    roots = tr.roots(spans)

    def lvl(n):
        return f"l{level_of[n]}" if n in level_of else "outer"

    m = defaultdict(float)
    pending_transfer = 0.0
    forcing_useful = 0
    relax_inclusive = 0.0
    for i, span in enumerate(spans):
        name, n = span[tr.NAME], span[tr.N]
        duration = span[tr.END] - span[tr.START]
        phase = spans[roots[i]][tr.NAME]
        m["assembly.forcing_s"] += span[tr.CHARGED_S]
        m["assembly.forcing_calls"] += span[tr.CHARGED_CALLS]
        if name == "assembly.operator" and n == finest_n:
            forcing_useful += span[tr.CHARGED_CALLS]
        if name in ("problems.build", "mesh.refine", "spaces.build",
                    "assembly.dirichlet", "linalg.coarse_factor",
                    "solvers.schur_factor"):
            m[f"{name}_s"] += self_s[i]
        elif name in ("assembly.operator", "relaxation.patches",
                      "relaxation.factor"):
            m[f"{name}_s.{lvl(n)}"] += self_s[i]
        elif name == "linalg.eig":
            m[f"linalg.eig_s.{lvl(n)}"] += duration
        elif name == "transfer.build":
            pending_transfer += self_s[i]
            if n is not None:  # filter_dirichlet closes one level's transfer
                m[f"transfer.build_s.{lvl(n)}"] += pending_transfer
                pending_transfer = 0.0
        elif name == "relaxation.apply" and phase == "solve":
            m[f"relaxation.apply_s.{lvl(n)}"] += duration
            m[f"relaxation.apply_calls.{lvl(n)}"] += 1
        elif name == "linalg.chebyshev":
            m[f"linalg.chebyshev_self_s.{lvl(n)}"] += self_s[i]
            relax_inclusive += duration
        elif name == "linalg.krylov":
            m["linalg.krylov_self_s"] += self_s[i]
        elif name == "solvers.coarse":
            m["solvers.coarse_s"] += duration
            m["solvers.coarse_calls"] += 1
    m["assembly.forcing_useful_frac"] = (forcing_useful
                                         / m["assembly.forcing_calls"])
    m["transfer.apply_s"] = timer.get("transfer")
    m["solvers.residual_s"] = timer.get("residual")
    if "schur" in timer.seconds:
        m["solvers.schur_s"] = timer.get("schur")

    # fgmres applies K once up front, once per iteration, once per cycle end
    cycles = trace["krylov_matvecs"] - 1 - report.iterations
    m["linalg.restarts"] = cycles - 1
    reduction = report.final_residual / report.history[0]
    m["linalg.conv_factor"] = float(reduction ** (1.0 / report.iterations))
    pc_ms = [1e3 * t for t in report.precond_times]
    m["solvers.pc_apply_ms.p50"] = float(np.percentile(pc_ms, 50))
    m["solvers.pc_apply_ms.p90"] = float(np.percentile(pc_ms, 90))
    m["solvers.pc_apply_count"] = len(pc_ms)

    setup_root = next(i for i, s in enumerate(spans) if s[tr.NAME] == "setup")
    solve_root = next(i for i, s in enumerate(spans) if s[tr.NAME] == "solve")
    setup_total = spans[setup_root][tr.END] - spans[setup_root][tr.START]
    solve_total = spans[solve_root][tr.END] - spans[solve_root][tr.START]
    m["trace.setup_cover"] = 1.0 - self_s[setup_root] / setup_total
    named_solve = (m["linalg.krylov_self_s"] + relax_inclusive
                   + m["solvers.coarse_s"] + m["transfer.apply_s"]
                   + m["solvers.residual_s"] + timer.get("schur"))
    m["trace.solve_cover"] = named_solve / solve_total
    return dict(m)


def level_metrics(hierarchy):
    """Static per-level sizes and computed bytes (no timing)."""
    m = {}
    for i, level in enumerate(hierarchy.levels):
        m[f"solvers.level_dofs.l{i}"] = level.n
        if level.patches is None:
            m["linalg.coarse_bytes"] = 8 * level.n**2 + 4 * level.n
            continue
        sizes = np.array([len(idx) for idx in level.patches.indices])
        # LU factors (float64), pivots (int32), indices (int64), weights
        stored = int(np.sum(8 * sizes**2 + (4 + 8 + 8) * sizes))
        m[f"relaxation.patch_count.l{i}"] = len(sizes)
        m[f"relaxation.patch_dofs_max.l{i}"] = int(sizes.max())
        m[f"relaxation.stored_bytes.l{i}"] = stored
        # one sweep zeroes z, then per patch reads everything stored,
        # gathers r and updates z in place
        m[f"relaxation.apply_bytes.l{i}"] = (
            8 * level.n + stored + int(np.sum((8 + 16) * sizes))
        )
        m[f"linalg.lambda_max.l{i}"] = level.lambda_max
    return m


def _time_per_call(fn):
    """Median seconds of one call, over enough calls to fill the minimum."""
    times = []
    start = time.perf_counter()
    while (len(times) < KERNEL_MIN_CALLS
           or time.perf_counter() - start < KERNEL_MIN_SECONDS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(hierarchy):
    """Isolated smoother and SpMV time per level, with computed bytes."""
    rng = np.random.default_rng(KERNEL_SEED)
    m = {}
    for i, level in enumerate(hierarchy.levels):
        v = rng.standard_normal(level.n)
        K = level.K
        m[f"linalg.spmv_us.l{i}"] = 1e6 * _time_per_call(lambda: K @ v)
        m[f"linalg.spmv_bytes.l{i}"] = K.nnz * 12 + level.n * 16
        if level.patches is not None:
            p = level.patches
            m[f"relaxation.apply_us.l{i}"] = 1e6 * _time_per_call(
                lambda: relaxation.asm_apply(p, v))
    return m


def lambda_cover(hierarchy):
    """1.1 * lambda_hat / rho_ref per smoothed level.

    rho_ref is ARPACK's largest-magnitude eigenvalue of M^-1 K, a long
    reference for the 10-step power estimate that sets the Chebyshev
    interval; coverage below 1 leaves part of the spectrum unsmoothed.
    """
    rng = np.random.default_rng(KERNEL_SEED)
    m = {}
    for i, level in enumerate(hierarchy.levels):
        if level.patches is None:
            continue
        op = LinearOperator(
            (level.n, level.n), dtype=np.float64,
            matvec=lambda v, p=level.patches, K=level.K:
                relaxation.asm_apply(p, K @ v),
        )
        rho = abs(eigs(op, k=1, which="LM", tol=EIG_TOL, ncv=EIG_NCV,
                       v0=rng.standard_normal(level.n),
                       return_eigenvectors=False)[0])
        m[f"linalg.lambda_cover.l{i}"] = (CHEBYSHEV_UPPER * level.lambda_max
                                          / rho)
    return m


# -- modes --------------------------------------------------------------------

def run_timed(workload, seed, seconds):
    warmup, repeats, _, _, _ = measure(workload, seed, seconds)
    return warmup, repeats, {}


def run_traced(workload, seed, seconds, spans_path):
    warmup, untraced, repeats, traces, live = measure(
        workload, seed, seconds, tr.Tracer())
    per_repeat = [layer_metrics(t, live) for t in traces]
    layers = {name: statistics.median(r[name] for r in per_repeat)
              for name in per_repeat[-1]}
    layers["trace.overhead_frac"] = statistics.median(
        t["time_to_solution_s"] / u["time_to_solution_s"]
        for u, t in zip(untraced, repeats)) - 1.0
    hierarchy = wl.hierarchy_of(live["pc"])
    layers.update(level_metrics(hierarchy))
    layers.update(kernel_metrics(hierarchy))
    layers.update(lambda_cover(hierarchy))
    if spans_path:
        with open(spans_path, "w") as fh:
            json.dump({"workload": workload.name, "seed": seed,
                       "fields": tr.FIELDS, "repeats": traces}, fh)
    sums = [tr.subtree_self_sum(t["spans"], "setup") for t in traces]
    return warmup, repeats, {"untraced": untraced, "layers": layers,
                             "setup_self_sums": sums}


def execute(workload, seed, seconds, mode, spans_path=None):
    """Run one workload in this process; the result as a JSON-ready dict.

    ``repeats`` are the measured repeats of the mode (traced ones when
    traced); every solve, warm-up included, counts as attempted.
    """
    if mode == "timed":
        warmup, repeats, extra = run_timed(workload, seed, seconds)
    else:
        warmup, repeats, extra = run_traced(workload, seed, seconds,
                                            spans_path)
    solves = [warmup] + repeats + extra.get("untraced", [])
    return {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "warmup": warmup,
        "repeats": repeats,
        "attempted": len(solves),
        "failed": sum(1 for r in solves if r["failures"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **extra,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("timed", "traced"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    result = execute(wl.WORKLOADS[args.workload], args.seed, args.seconds,
                     args.mode, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
