"""Workload definitions, seeded inputs and the per-solve correctness check.

Every workload solves the regularized lid-driven cavity (``ldc2d``) at two
refinements with FGMRES(30) to rtol 1e-10 and the default cycle parameters.
The seed only draws a smooth body force; at the parent library it leaves the
iteration counts unchanged (16 / 44 / 15), so seeds vary the input without
varying the work.

The library is driven only through its public API: ``problems``,
``solvers.build_solver``, ``solvers.solve_stokes`` and ``dataclasses.replace``
on the ``ProblemInstance``.
"""

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from stokesmg import problems, solvers
from stokesmg.assembly import compute_divergence_norm

RTOL = 1e-10
RESTART = 30
FORCE_MODES = 4
FORCE_AMPLITUDE = 1.0

#: Bound on the L2 norm of div(u_h) for Scott-Vogelius solutions. The pair
#: is exactly divergence-free, so the norm only reflects the algebraic
#: residual left at rtol 1e-10.
DIVERGENCE_BOUND = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    k: int
    solver: str
    refinements: int
    check_divergence: bool = False


# Why each workload is in the suite is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ldc-th4-phmg", "th", 4, "phmg-direct", 2),
        Workload("ldc-th4-fbf", "th", 4, "fbf-phmg", 2),
        Workload("ldc-sv4-phmg", "sv", 4, "phmg-direct", 2,
                 check_divergence=True),
    )
}


class SeededForce:
    """Smooth body force: a few Fourier modes per component.

    Written with NumPy ufuncs over the mode axis, so it accepts scalar or
    array coordinates. Each call may be timed through ``on_call(dt)``.
    """

    def __init__(self, seed, on_call=None):
        rng = np.random.default_rng(seed)
        shape = (2 * FORCE_MODES,)  # component-major (component, mode)
        self.kx = math.pi * rng.integers(1, 4, size=shape)
        self.ky = math.pi * rng.integers(1, 4, size=shape)
        self.phase_x = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        self.phase_y = rng.uniform(0.0, 2.0 * math.pi, size=shape)
        self.amp = FORCE_AMPLITUDE * rng.uniform(-1.0, 1.0, size=shape)
        self.on_call = on_call

    def _evaluate(self, x, y):
        modes = (self.amp
                 * np.sin(np.multiply.outer(x, self.kx) + self.phase_x)
                 * np.cos(np.multiply.outer(y, self.ky) + self.phase_y))
        f = modes.reshape(np.shape(x) + (2, FORCE_MODES)).sum(axis=-1)
        return f[..., 0], f[..., 1]

    def __call__(self, x, y):
        if self.on_call is None:
            return self._evaluate(x, y)
        t0 = time.perf_counter()
        out = self._evaluate(x, y)
        self.on_call(time.perf_counter() - t0)
        return out


def make_problem(workload, seed, refinements=None, on_force_call=None):
    """The workload's ProblemInstance with the seeded body force attached."""
    refinements = workload.refinements if refinements is None else refinements
    problem = problems.lid_driven_cavity(refinements, workload.k,
                                         family=workload.family)
    return dataclasses.replace(problem,
                               forcing=SeededForce(seed, on_force_call))


def build(workload, problem):
    return solvers.build_solver(problem, problem.refinements, workload.solver)


def solve(system, pc, timer=None):
    return solvers.solve_stokes(system, pc, rtol=RTOL, restart=RESTART,
                                timer=timer)


def hierarchy_of(pc):
    """The multigrid hierarchy a preconditioner relaxes on."""
    return pc if isinstance(pc, solvers.MGHierarchy) else pc.inner


def check_solution(workload, system, x, report):
    """List of reasons this solve is wrong; empty when it is correct.

    The residual is recomputed from ``x``, ``system.K`` and ``system.b``
    and held to FGMRES's own tolerance, rtol * min(|b|, |r0|) with r0 the
    (projected) residual of the lifted initial guess.
    """
    reasons = []
    if not report.converged:
        reasons.append("not converged")
    if not np.all(np.isfinite(x)):
        reasons.append("non-finite solution")
        return reasons
    r0 = system.b - system.K @ system.lifted_guess()
    if system.has_pressure_nullspace:
        c = system.pressure_nullvector()
        r0 = r0 - c * (c @ r0)
    tol = RTOL * min(np.linalg.norm(system.b), np.linalg.norm(r0))
    residual = float(np.linalg.norm(system.b - system.K @ x))
    if not residual <= tol:
        reasons.append(f"residual {residual:.3e} above tolerance {tol:.3e}")
    if workload.check_divergence:
        u, _ = system.split(x)
        div = compute_divergence_norm(u, system.velocity_space)
        if not div <= DIVERGENCE_BOUND:
            reasons.append(f"divergence {div:.3e} above {DIVERGENCE_BOUND}")
    return reasons
