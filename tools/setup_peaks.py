"""Traced memory of every setup call, level by level, and of the solve.

Takes the options of ``stokes-bench run``:

    python tools/setup_peaks.py --problem ldc2d --family sv --k 4 \\
        --refinements 2 --solver phmg-direct

(``--out`` and ``--format`` are accepted and ignored: the tables go to
standard output), builds the solver once under ``tracemalloc`` and solves
once. A level table comes first: each level's kind, degree, DoFs,
patches, distinct inverses and the MB its smoother stores, from
``level_summary()``, so stored bytes sit beside traced ones. Each setup
call that ``stokesmg.solvers`` makes (assembly, patches, factor, the λ̂
estimate, transfers, the coarse factor, the FBF Schur factor) is wrapped
where ``solvers`` binds it. Per level (l0 the finest; ``outer`` the FBF
saddle system, which belongs to no level) the call table gives each kind
of call's count, its largest peak above the traced bytes at its start,
and the bytes it left behind. Two totals follow: ``build_solver`` and
``solve_stokes``, each with its peak above its start, the bytes it left
behind, and the traced bytes at its peak. The last line divides the
traced bytes at ``build_solver``'s peak by those at ``solve_stokes``'s: at
most 1 when setup never holds more than the solve. Figures are MB (10^6
bytes) of allocations that ``tracemalloc`` sees, which are NumPy's and
Python's.
"""

import sys
import tracemalloc

from stokesmg import bench, solvers

#: (name bound in stokesmg.solvers, row label, dimension of its operator)
CALLS = [
    ("assemble_stokes", "assembly", lambda args, out: out.n),
    ("assemble_vector_laplacian", "assembly",
     lambda args, out: out.shape[0]),
    ("eliminate_dirichlet", "assembly", lambda args, out: out[0].shape[0]),
    ("build_vanka_star_patches", "patches", lambda args, out: out.n),
    ("build_star_patches", "patches", lambda args, out: out.n),
    ("factor_patches", "factor", lambda args, out: out.n),
    ("estimate_lambda_max", "lambda", lambda args, out: args[1]),
    # a level's transfer calls end with filter_dirichlet, whose rows are
    # the finer level's DoFs
    ("build_h_prolongation", "transfer", None),
    ("build_p_prolongation", "transfer", None),
    ("build_monolithic_transfer", "transfer", None),
    ("filter_dirichlet", "transfer", lambda args, out: out.shape[0]),
    ("dense_lu", "coarse factor", lambda args, out: args[0].shape[0]),
    ("assemble_pressure_mass", "schur factor", None),
    ("splu", "schur factor", None),
]

MB = 1e-6


class PeakMeter:
    """Peak and retained traced bytes of nested calls.

    `tracemalloc.reset_peak` at each call's start isolates its peak; the
    running peak of the enclosing call is kept on a stack, so nesting
    loses nothing.
    """

    def __init__(self):
        self.stack = []  # [start bytes, running peak] of each open call

    def measure(self, fn, *args, **kwargs):
        """(fn's result, peak above start, bytes retained, peak bytes)."""
        current, peak = tracemalloc.get_traced_memory()
        if self.stack:
            self.stack[-1][1] = max(self.stack[-1][1], peak)
        tracemalloc.reset_peak()
        self.stack.append([current, current])
        try:
            out = fn(*args, **kwargs)
        finally:
            start, running = self.stack.pop()
            end, peak = tracemalloc.get_traced_memory()
            peak = max(peak, running)
            if self.stack:
                self.stack[-1][1] = max(self.stack[-1][1], peak)
        return out, peak - start, end - start, peak


def run(args):
    """Build and solve once; returns (setup rows, the hierarchy's
    `level_summary()`, totals, the solve's report).

    Each row is (label, dimension or None, peak above start, retained).
    """
    meter = PeakMeter()
    rows = []
    originals = {name: getattr(solvers, name) for name, _, _ in CALLS}

    def wrap(name, label, dimension):
        def measured(*a, **kw):
            out, peak, kept, _ = meter.measure(originals[name], *a, **kw)
            rows.append((label, dimension and dimension(a, out), peak, kept))
            return out
        return measured

    extra = {"mesh_dir": args.mesh_dir} if (
        args.problem == "bfs2d" and args.mesh_dir) else {}
    instance = bench.PROBLEMS[args.problem](args.refinements, args.k,
                                            family=args.family, **extra)
    tracemalloc.start()
    try:
        for name, label, dimension in CALLS:
            setattr(solvers, name, wrap(name, label, dimension))
        (system, pc), *setup = meter.measure(
            solvers.build_solver, instance, args.refinements, args.solver,
            n_V=args.nv, nu_p=args.nup, nu_h=args.nuh)
    finally:
        for name, fn in originals.items():
            setattr(solvers, name, fn)
    (x, report), *solve = meter.measure(
        solvers.solve_stokes, system, pc, rtol=args.rtol,
        restart=args.restart)
    tracemalloc.stop()
    hierarchy = pc if isinstance(pc, solvers.MGHierarchy) else pc.inner
    totals = {"build_solver": setup, "solve_stokes": solve}
    return rows, hierarchy.level_summary(), totals, report


def table(rows, levels):
    """((level, label), (calls, largest peak, summed retained bytes)) in
    level order, then call order."""
    level_of = {n: f"l{i}" for i, n in enumerate(levels)}
    named, level = [], "outer"
    for label, n, peak, kept in reversed(rows):
        if n is not None or label != "transfer":
            level = level_of.get(n, "outer")
        named.append((level, label, peak, kept))
    groups = {}
    for level, label, peak, kept in reversed(named):
        calls, top, total = groups.get((level, label), (0, 0, 0))
        groups[level, label] = calls + 1, max(top, peak), total + kept
    rank = list(level_of.values()) + ["outer"]
    return sorted(groups.items(), key=lambda item: rank.index(item[0][0]))


def main(argv=None):
    args = bench._build_parser().parse_args(
        ["run"] + list(sys.argv[1:] if argv is None else argv))
    rows, summary, totals, report = run(args)
    levels = [row[4] for row in summary]
    print(f"{args.problem} {args.family} k{args.k} r{args.refinements} "
          f"{args.solver}: {levels[0]} DoFs on l0, "
          f"{report.iterations} iterations")
    print("| level | kind | degree | DoFs | patches | inverses "
          "| smoother MB |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for i, (kind, _, k, _, n, patches, inverses, stored) in enumerate(
            summary):
        print(f"| l{i} | {kind} | {k} | {n} | {patches} | {inverses} "
              f"| {stored * MB:.2f} |")
    print()
    print("| level | call | calls | peak MB | retained MB |")
    print("| --- | --- | --- | --- | --- |")
    for (level, label), (calls, peak, kept) in table(rows, levels):
        print(f"| {level} | {label} | {calls} | {peak * MB:.1f} "
              f"| {kept * MB:.1f} |")
    print()
    print("| phase | peak MB | retained MB | traced at peak MB |")
    print("| --- | --- | --- | --- |")
    for name, (peak, kept, top) in totals.items():
        print(f"| {name} | {peak * MB:.1f} | {kept * MB:.1f} "
              f"| {top * MB:.1f} |")
    print()
    print(f"setup / solve traced peak: "
          f"{totals['build_solver'][2] / totals['solve_stokes'][2]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
