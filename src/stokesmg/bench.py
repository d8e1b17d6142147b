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

Each report also carries ``smoother_bytes``, the bytes of every patch
smoother in the preconditioner's multigrid hierarchy (``PatchSet.nbytes``:
each class's shared patch inverse and the scatter index that holds every
member index list, summed over the levels of ``MGHierarchy.level_summary``;
the builders' per-patch index lists and DoF rank are not counted). Tables print
it as the column after the fixed ``COLUMNS``, before the kernel times,
whenever a report carries it.

Reports carry two families of derived metrics:

- ``setup_frac`` — T(setup) / T(total) with T(total) = T(setup) + T(solve);
- relative ratios against a named reference solver on the same problem:
  ``r_total`` = T(total, reference) / T(total, solver), and likewise
  ``r_setup`` and ``r_solve`` per phase. The reference row itself has all
  ratios equal to 1.

The CLI entry point is installed as ``stokes-bench``:

    stokes-bench run --problem ldc2d --family th --k 4 --refinements 2 \\
        --solver phmg-direct [--nv N --nup N --nuh N --rtol R --restart M]
        [--out PATH --format {csv,markdown} --mesh-dir DIR]
    stokes-bench sweep --config FILE

Exit codes: 0 on success, 2 when a solve fails to converge, 1 on errors.
"""

import argparse
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


def run(problem, family, k, refinements, solver, n_V=None, nu_p=None,
        nu_h=None, rtol=1e-10, restart=30, maxiter=500, mesh_dir=None):
    """Execute one benchmark configuration and return its RunReport.

    The setup phase covers problem construction through preconditioner
    assembly (including every level's rediscretization and patch
    factorization); the solve phase covers the preconditioned FGMRES run.
    """
    if problem not in PROBLEMS:
        raise ValueError(f"unknown problem {problem!r}; pick from "
                         f"{sorted(PROBLEMS)}")
    if solver not in SOLVER_NAMES:
        raise ValueError(f"unknown solver {solver!r}; pick from "
                         f"{SOLVER_NAMES}")
    factory_kwargs = {"mesh_dir": mesh_dir} if (
        problem == "bfs2d" and mesh_dir) else {}

    timer = Timings()
    with timer.scope("setup"):
        instance = PROBLEMS[problem](refinements, k, family=family,
                                     **factory_kwargs)
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


_REQUIRED_KEYS = {"problem", "family", "k", "refinements", "solvers",
                  "reference"}
_OPTIONAL_KEYS = {"rtol", "restart", "nv", "nup", "nuh", "out", "format",
                  "mesh_dir"}


def read_sweep_config(path):
    """Parse a key = value sweep description.

    Keys: problem, family (single values); k, refinements, solvers
    (whitespace-separated lists); reference (solver name); optional rtol,
    restart, nv, nup, nuh, out, format (csv or markdown), mesh_dir. Lines
    starting with '#' are comments. Unknown and repeated keys, and names of
    problems, families, solvers or formats that do not exist, raise a
    ValueError here, before any grid point runs.
    """
    raw = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _REQUIRED_KEYS | _OPTIONAL_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in raw:
                raise ValueError(f"{path}:{lineno}: key {key!r} given twice")
            raw[key] = value.strip()
    missing = _REQUIRED_KEYS - set(raw)
    if missing:
        raise ValueError(f"{path}: missing keys {sorted(missing)}")

    def number(key, convert, default=None, many=False):
        if key not in raw:
            return default
        try:
            if many:
                return [convert(v) for v in raw[key].split()]
            return convert(raw[key])
        except ValueError:
            raise ValueError(f"{path}: key {key!r} has a malformed "
                             f"number: {raw[key]!r}") from None

    config = {
        "problem": raw["problem"],
        "family": raw["family"],
        "k": number("k", int, many=True),
        "refinements": number("refinements", int, many=True),
        "solvers": raw["solvers"].split(),
        "reference": raw["reference"],
        "rtol": number("rtol", float, 1e-10),
        "restart": number("restart", int, 30),
        "n_V": number("nv", int),
        "nu_p": number("nup", int),
        "nu_h": number("nuh", int),
        "out": raw.get("out"),
        "format": raw.get("format", "markdown"),
        "mesh_dir": raw.get("mesh_dir"),
    }
    if not config["k"] or not config["solvers"] or not config["refinements"]:
        raise ValueError(f"{path}: empty sweep grid")
    names = [("problem", config["problem"], PROBLEMS),
             ("family", config["family"], FAMILIES),
             ("format", config["format"], FORMATS)]
    names += [("solver", v, SOLVER_NAMES) for v in config["solvers"]]
    for what, value, known in names:
        if value not in known:
            raise ValueError(f"{path}: unknown {what} {value!r}; pick from "
                             f"{sorted(known)}")
    if config["reference"] not in config["solvers"]:
        raise ValueError(f"{path}: reference solver {config['reference']!r} "
                         "is not in the solvers list")
    return config


def sweep(config):
    """Run the full grid of a sweep config sequentially (one solve at a
    time keeps the timings honest) and return the reports."""
    reports = []
    for k in config["k"]:
        for refinements in config["refinements"]:
            for solver in config["solvers"]:
                reports.append(run(
                    config["problem"], config["family"], k, refinements,
                    solver, n_V=config["n_V"], nu_p=config["nu_p"],
                    nu_h=config["nu_h"], rtol=config["rtol"],
                    restart=config["restart"], mesh_dir=config["mesh_dir"],
                ))
    return reports


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


def _build_parser():
    parser = _Parser(prog="stokes-bench",
                     description="Stokes multigrid benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configuration")
    run_p.add_argument("--problem", required=True, choices=sorted(PROBLEMS))
    run_p.add_argument("--family", required=True, choices=FAMILIES)
    run_p.add_argument("--k", required=True, type=int)
    run_p.add_argument("--refinements", required=True, type=int)
    run_p.add_argument("--solver", required=True, choices=list(SOLVER_NAMES))
    run_p.add_argument("--nv", type=int, default=None)
    run_p.add_argument("--nup", type=int, default=None)
    run_p.add_argument("--nuh", type=int, default=None)
    run_p.add_argument("--rtol", type=float, default=1e-10)
    run_p.add_argument("--restart", type=int, default=30)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--format", choices=FORMATS, default="markdown")
    run_p.add_argument("--mesh-dir", default=None)

    sweep_p = sub.add_parser("sweep", help="execute a config-file grid")
    sweep_p.add_argument("--config", required=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            report = run(args.problem, args.family, args.k, args.refinements,
                         args.solver, n_V=args.nv, nu_p=args.nup,
                         nu_h=args.nuh, rtol=args.rtol, restart=args.restart,
                         mesh_dir=args.mesh_dir)
            table = ComparisonTable([report], reference=args.solver)
            _emit(table, args.format, args.out)
            return 0 if report.converged else 2
        config = read_sweep_config(args.config)
        reports = sweep(config)
        table = ComparisonTable(reports, reference=config["reference"])
        _emit(table, config["format"], config["out"])
        return 0 if all(r.converged for r in reports) else 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
