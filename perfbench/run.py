"""Pinned Stokes solver benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the library is imported from
``src/``). Workloads, metrics and bounds are listed in ``BENCHMARK.json``.

Load is one closed-loop caller: one process, one solve at a time, BLAS
limited to one thread. Each workload runs in its own fresh worker process
(``worker.py``), so ``peak_rss_mb`` is that process's own peak.

``--trace 0`` runs an untraced worker for ``S`` seconds and reports the
end-to-end metrics. ``--trace 1`` runs a worker that alternates untraced and
traced repeats for ``S`` seconds and reports the per-layer metrics, with
``trace.overhead_frac`` the median over pairs of traced over untraced time
to solution, minus one. Spans of the traced repeats are written to
``.perfbench/``.

Every solve is checked (see ``workloads.check_solution``). The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every solve passed.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
BLAS_THREADS = 1
#: Wall-clock limit for all workers of one invocation.
DEADLINE_S = 170.0

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")


def unit(name):
    """Unit of a metric, from its base name (level/percentile suffix cut)."""
    base = re.sub(r"\.(l\d+|outer|p\d+)$", "", name)
    for suffix, u in (("_s", "s"), ("_us", "us"), ("_ms", "ms"),
                      ("_bytes", "B"), ("_mb", "MB")):
        if base.endswith(suffix):
            return u
    if base.endswith(("_frac", "_cover", "_factor", "lambda_max")):
        return "1"
    return "count"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(workload, seed, seconds, mode, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in BLAS_ENV:
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if mode == "traced":
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--spans",
                os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        fail(f"{mode} worker for {workload} exceeded the time limit")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3, len(values)


def end_to_end(result):
    """End-to-end metrics as name -> (median, q1, q3, count)."""
    reps = result["repeats"]
    out = {name: summarize([r[name] for r in reps])
           for name in ("setup_s", "solve_s", "time_to_solution_s")}
    out["iterations"] = summarize([r["iterations"] for r in reps])
    out["peak_rss_mb"] = (result["peak_rss_mb"],) * 3 + (1,)
    solved = 1.0 - result["failed"] / result["attempted"]
    out["solved_frac"] = (solved, solved, solved, result["attempted"])
    return out


def collect(result, wanted):
    """Metrics as name -> (median, q1, q3, count), and the problems found.

    ``result`` is a worker's result; ``wanted`` lists the metrics
    BENCHMARK.json asks for.
    """
    if result["mode"] == "timed":
        metrics = end_to_end(result)
    else:
        metrics = {k: (v, v, v, len(result["repeats"]))
                   for k, v in result["layers"].items()}

    untraced = result.get("untraced", [])
    solves = [result["warmup"]] + result["repeats"] + untraced
    problems = [f"solve {i}: {'; '.join(rep['failures'])}"
                for i, rep in enumerate(solves) if rep["failures"]]
    if len({rep["iterations"] for rep in result["repeats"] + untraced}) != 1:
        problems.append("iteration counts differ between repeats of one "
                        "input")
    for m in wanted:
        if m["name"] not in metrics:
            problems.append(f"metric {m['name']} not measured")
        elif unit(m["name"]) != m["unit"]:
            problems.append(f"metric {m['name']} has unit "
                            f"{unit(m['name'])}, not {m['unit']}")
    return metrics, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description="Pinned Stokes solver benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "stokesmg", "__init__.py")):
        fail(f"no stokesmg sources under {SRC}; run from a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    result = run_worker(args.workload, args.seed, args.seconds,
                        "traced" if args.trace else "timed", deadline)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, problems = collect(result, wanted)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"blas_threads {BLAS_THREADS}  repeats {len(result['repeats'])}")
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'n':>4s}  unit")
    for name in sorted(metrics):
        med, q1, q3, n = metrics[name]
        print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {n:4d}  "
              f"{unit(name)}")
    if args.trace:
        print("*_bytes are computed from array sizes, not measured")
    for p in problems:
        print(f"FAILED: {p}")

    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
