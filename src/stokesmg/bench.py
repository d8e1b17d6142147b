"""Benchmark harness and command-line interface.

Runs named solver configurations over (problem, family, k, refinements)
grids, collecting iteration counts and a wall-clock breakdown split into a
setup phase (problem construction, assembly on every level, patch
factorization, eigenvalue estimation) and a solve phase (FGMRES to the
target residual). Inside the solve phase, time is attributed to kernels:
per-level relaxation ``rlx(l=i)``, grid ``transfer``, ``residual``
evaluation, ``coarse`` solves, the FBF ``schur`` update, the Krylov
orthogonalization remainder ``krylov``, and unattributed preconditioner
glue ``other``.

Each report also carries ``smoother_bytes``, what the patch smoothers of
the preconditioner's multigrid hierarchy store (``PatchSet.nbytes`` summed
over ``MGHierarchy.level_summary``; the builders' per-patch index lists and
DoF rank are not counted). Tables print it after the fixed ``COLUMNS``,
before the kernel times, whenever a report carries it.

Reports carry two families of derived metrics:

- ``setup_frac`` — T(setup) / T(total) with T(total) = T(setup) + T(solve);
- relative ratios against a named reference solver on the same problem:
  ``r_total`` = T(total, reference) / T(total, solver), and likewise
  ``r_setup`` and ``r_solve`` per phase. The reference row itself has all
  ratios equal to 1.

The CLI entry point is installed as ``stokes-bench``:

    stokes-bench run --problem ldc2d --family th --k 4 7 --refinements 2 \\
        --solver hmg phmg-direct [--reference NAME --nv N --nup N --nuh N
        --rtol R --restart M --out PATH --format {csv,markdown} --mesh-dir DIR]
    stokes-bench run @FILE

It runs every (k, refinements, solver) point, in that nesting order, one
solve at a time; ``--reference`` defaults to the first solver. ``@FILE``
reads flags from an argument file (split on whitespace; a line starting
with '#' is a comment). Every check of the arguments runs before a solve.

Exit codes: 0 on success, 2 when a solve fails to converge, 1 on errors.
"""

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field

from .problems import backward_facing_step, lid_driven_cavity, manufactured
from .solvers import (SOLVER_NAMES, FBFPreconditioner, build_solver,
                      solve_stokes)
from .timing import Timings

PROBLEMS = {
    "ldc2d": lid_driven_cavity,
    "bfs2d": backward_facing_step,
    "manufactured": manufactured,
}
FAMILIES = ("th", "sv")
FORMATS = ("csv", "markdown")

#: Fixed leading column order of emitted tables.
COLUMNS = ["problem", "family", "k", "refinements", "solver", "dofs",
           "nnz_per_dof", "iterations", "converged", "t_setup_s",
           "t_solve_s", "t_total_s", "setup_frac", "r_total", "r_setup",
           "r_solve"]


@dataclass
class RunReport:
    """Everything measured about one (problem, solver) execution."""

    problem: str
    family: str
    k: int
    refinements: int
    solver: str
    dofs: int
    nnz_per_dof: float
    iterations: int
    converged: bool
    t_setup: float
    t_solve: float
    kernels: dict = field(default_factory=dict)
    smoother_bytes: int | None = None

    @property
    def t_total(self):
        return self.t_setup + self.t_solve

    @property
    def setup_frac(self):
        return self.t_setup / self.t_total if self.t_total > 0 else 0.0

    def kernel_coverage(self):
        """Fraction of the solve phase attributed to named kernels
        (everything except ``other``)."""
        if self.t_solve <= 0:
            return 1.0
        named = sum(v for k, v in self.kernels.items() if k != "other")
        return named / self.t_solve

    def key(self):
        return (self.problem, self.family, self.k, self.refinements)


def relative_metrics(report, reference):
    """(r_total, r_setup, r_solve): reference time over this solver's time,
    phase by phase."""
    return (
        reference.t_total / report.t_total,
        reference.t_setup / report.t_setup,
        reference.t_solve / report.t_solve,
    )


def make_problem(problem, refinements, k, family, mesh_dir=None):
    """The named problem's instance. Only bfs2d reads a mesh file, from
    `mesh_dir` when one is given."""
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; pick from "
                         f"{sorted(PROBLEMS)}")
    if mesh_dir is not None and problem != "bfs2d":
        raise ValueError(f"problem {problem!r} reads no mesh file, so it "
                         "takes no mesh directory")
    extra = {} if mesh_dir is None else {"mesh_dir": mesh_dir}
    return PROBLEMS[problem](refinements, k, family=family, **extra)


def run(problem, family, k, refinements, solver, n_V=None, nu_p=None,
        nu_h=None, rtol=1e-10, restart=30, maxiter=500, mesh_dir=None):
    """Execute one benchmark configuration and return its RunReport.

    The setup phase covers problem construction through preconditioner
    assembly (including every level's rediscretization and patch
    factorization); the solve phase covers the preconditioned FGMRES run.
    """
    timer = Timings()
    with timer.scope("setup"):
        instance = make_problem(problem, refinements, k, family, mesh_dir)
        system, pc = build_solver(instance, refinements, solver,
                                  n_V=n_V, nu_p=nu_p, nu_h=nu_h)
    kernel_timer = Timings()
    with timer.scope("solve"):
        x, krylov_report = solve_stokes(system, pc, rtol=rtol,
                                        restart=restart, maxiter=maxiter,
                                        timer=kernel_timer)
    t_setup = timer.get("setup")
    t_solve = timer.get("solve")

    kernels = dict(kernel_timer.seconds)
    precond_total = sum(krylov_report.precond_times)
    kernels["other"] = max(precond_total - kernel_timer.total(), 0.0)
    kernels["krylov"] = max(t_solve - precond_total, 0.0)
    hierarchy = pc.inner if isinstance(pc, FBFPreconditioner) else pc

    return RunReport(
        problem=problem,
        family=family,
        k=k,
        refinements=refinements,
        solver=solver,
        dofs=system.n,
        nnz_per_dof=system.K.nnz / system.n,
        iterations=krylov_report.iterations,
        converged=krylov_report.converged,
        t_setup=t_setup,
        t_solve=t_solve,
        kernels=kernels,
        smoother_bytes=sum(row[7] for row in hierarchy.level_summary()),
    )


class ComparisonTable:
    """Reports plus a named reference solver, renderable as CSV/markdown.

    Relative metrics compare each report against the reference report
    sharing its (problem, family, k, refinements) key; rows without a
    matching reference run show empty ratio cells.
    """

    def __init__(self, reports, reference):
        self.reports = list(reports)
        self.reference = reference
        self._refs = {r.key(): r for r in self.reports
                      if r.solver == reference}

    def kernel_names(self):
        names = set()
        for r in self.reports:
            names.update(r.kernels)
        rlx = sorted(n for n in names if n.startswith("rlx"))
        rest = [n for n in ("residual", "transfer", "coarse", "schur",
                            "krylov", "other") if n in names]
        extra = sorted(names - set(rlx) - set(rest))
        return rlx + rest + extra

    def columns(self):
        """Every column of the table: COLUMNS, then ``smoother_bytes`` when
        a report carries it, then the kernel times."""
        memory = ["smoother_bytes"] if any(
            r.smoother_bytes is not None for r in self.reports) else []
        return COLUMNS + memory + self.kernel_names()

    def rows(self):
        kernel_names = self.kernel_names()
        out = []
        for r in self.reports:
            ref = self._refs.get(r.key())
            ratios = relative_metrics(r, ref) if ref else ("", "", "")
            # The printed total is the sum of the printed phases, and the
            # printed fraction divides the printed fields, so every row is
            # internally consistent after parsing (not just before
            # rounding).
            t_setup = float(f"{r.t_setup:.6f}")
            t_solve = float(f"{r.t_solve:.6f}")
            t_total = t_setup + t_solve
            row = {
                "problem": r.problem,
                "family": r.family,
                "k": r.k,
                "refinements": r.refinements,
                "solver": r.solver,
                "dofs": r.dofs,
                "nnz_per_dof": f"{r.nnz_per_dof:.2f}",
                "iterations": r.iterations,
                "converged": r.converged,
                "t_setup_s": f"{t_setup:.6f}",
                "t_solve_s": f"{t_solve:.6f}",
                "t_total_s": f"{t_total:.6f}",
                "setup_frac": (f"{t_setup / t_total:.9f}"
                               if t_total > 0 else "0.000000000"),
                "r_total": _fmt_ratio(ratios[0]),
                "r_setup": _fmt_ratio(ratios[1]),
                "r_solve": _fmt_ratio(ratios[2]),
                "smoother_bytes": ("" if r.smoother_bytes is None
                                   else r.smoother_bytes),
            }
            for name in kernel_names:
                row[name] = f"{r.kernels.get(name, 0.0):.6f}"
            out.append(row)
        return out

    def to_csv(self):
        header = self.columns()
        lines = [",".join(header)]
        for row in self.rows():
            lines.append(",".join(str(row[c]) for c in header))
        return "\n".join(lines) + "\n"

    def to_markdown(self):
        header = self.columns()
        rows = self.rows()
        widths = {c: max([len(str(c))] + [len(str(r[c])) for r in rows])
                  for c in header}
        def line(values):
            return "| " + " | ".join(
                str(v).ljust(widths[c]) for c, v in zip(header, values)
            ) + " |"
        out = [line(header),
               "|" + "|".join("-" * (widths[c] + 2) for c in header) + "|"]
        out.extend(line([r[c] for c in header]) for r in rows)
        return "\n".join(out) + "\n"


def _fmt_ratio(v):
    return f"{v:.3f}" if v != "" else ""


def _emit(table, fmt, out):
    text = table.to_csv() if fmt == "csv" else table.to_markdown()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors, not 2
        raise ValueError(message)

    def convert_arg_line_to_args(self, line):  # '#' starts a comment line
        return [] if line.lstrip().startswith("#") else line.split()


class _Once(argparse.Action):
    """Store a flag's value; the flag may be given once."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            parser.error(f"{option_string} given twice")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def _number(convert, low, high=math.inf):
    """An argparse type: `convert` the text, then require low <= value <=
    high, which NaN fails."""
    def parse(text):
        value = convert(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"{text} is outside [{low}, "
                                             f"{high}]")
        return value
    parse.__name__ = convert.__name__  # "invalid int value: ..."
    return parse


def _build_parser():
    parser = _Parser(prog="stokes-bench", fromfile_prefix_chars="@",
                     allow_abbrev=False,
                     description="Stokes multigrid benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", allow_abbrev=False,
                           help="run every (k, refinements, solver) point")
    add = functools.partial(run_p.add_argument, action=_Once)
    add("--problem", required=True, choices=sorted(PROBLEMS))
    add("--family", required=True, choices=FAMILIES)
    add("--k", required=True, nargs="+", type=_number(int, 2, 10))
    add("--refinements", required=True, nargs="+", type=_number(int, 0))
    add("--solver", required=True, nargs="+", choices=SOLVER_NAMES)
    add("--reference", choices=SOLVER_NAMES,
        help="the solver the ratios divide by (default: the first --solver)")
    add("--nv", type=_number(int, 1))
    add("--nup", type=_number(int, 1))
    add("--nuh", type=_number(int, 1))
    add("--rtol", type=_number(float, 0), default=1e-10)
    add("--restart", type=_number(int, 1), default=30)
    add("--out")
    add("--format", choices=FORMATS, default="markdown")
    add("--mesh-dir")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        reference = args.reference or args.solver[0]
        if reference not in args.solver:
            raise ValueError(f"--reference {reference} is not a --solver")
        # one solve at a time keeps the timings honest
        reports = [run(args.problem, args.family, k, refinements, solver,
                       n_V=args.nv, nu_p=args.nup, nu_h=args.nuh,
                       rtol=args.rtol, restart=args.restart,
                       mesh_dir=args.mesh_dir)
                   for k in args.k for refinements in args.refinements
                   for solver in args.solver]
        _emit(ComparisonTable(reports, reference), args.format, args.out)
        return 0 if all(r.converged for r in reports) else 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
