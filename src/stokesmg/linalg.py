"""Krylov, Chebyshev, and dense-factorization kernels.

The sparse matrix type is CSR (scipy). FGMRES is flexible and
right-preconditioned: the preconditioner may change between iterations
(multigrid cycles with Chebyshev-damped relaxation are nonstationary), and
the true residual is recomputed at every restart boundary before a new cycle
starts.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "SingularMatrixError",
    "DenseFactorization",
    "KrylovReport",
    "dense_lu",
    "fgmres",
    "estimate_lambda_max",
    "chebyshev",
]

POWER_ITERATION_SEED = 0x5EED


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot collapsed during factorization."""


class DenseFactorization:
    """LU with partial pivoting of a small dense matrix."""

    def __init__(self, M):
        M = np.asarray(M, dtype=np.float64)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("dense_lu needs a square matrix")
        row_max = np.abs(M).max(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            self._lu, self._piv = scipy.linalg.lu_factor(M, check_finite=False)
        pivots = np.abs(np.diag(self._lu))
        # Partial pivoting keeps |L| <= 1, so a pivot this far below the
        # magnitude of its matrix flags numerical singularity.
        threshold = 1e-14 * max(row_max.max(), 1e-300)
        if pivots.min() <= threshold:
            bad = int(np.argmin(pivots))
            raise SingularMatrixError(
                f"singular pivot {pivots.min():.3e} at position {bad}"
            )
        self.shape = M.shape

    def solve(self, b):
        # SciPy's getrs wrapper shifts the pivot array to 1-based indices in
        # place for the duration of the call, so calls that may run
        # concurrently on one factorization each pass their own copy.
        return scipy.linalg.lu_solve((self._lu, self._piv.copy()), b,
                                     check_finite=False)


def dense_lu(M):
    return DenseFactorization(M)


@dataclass
class KrylovReport:
    """Outcome of one FGMRES solve.

    `history` starts at the initial residual norm; within a restart cycle the
    entries are the Givens residual estimates, and `final_residual` is the
    true residual of the returned iterate. `reason` names how the solve
    ended: "converged", "maxiter" (the iteration budget ran out first) or
    "nonfinite" (a residual estimate became NaN or inf).
    """

    iterations: int
    history: np.ndarray
    converged: bool
    final_residual: float
    reason: str
    precond_times: list = field(default_factory=list)


def fgmres(apply_K, apply_P, b, rtol=1e-10, restart=30, maxiter=500,
           x0=None, project=None):
    """Flexible right-preconditioned GMRES with restarts.

    `project`, when given, removes a known operator nullspace component from
    the initial residual and every preconditioned direction (used for the
    constant-pressure mode of enclosed flows). Non-convergence is reported,
    not raised. A non-finite residual estimate (a preconditioner or operator
    that produced NaN or inf) ends the solve at once, unconverged, with the
    last finite iterate.

    `restart` (Krylov directions per cycle) must be >= 1, and `maxiter`
    and `rtol` >= 0; anything else raises a ValueError.
    """
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    if maxiter < 0:
        raise ValueError(f"maxiter must be >= 0, got {maxiter}")
    if not rtol >= 0:
        raise ValueError(f"rtol must be >= 0, got {rtol}")
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)

    r = b - apply_K(x)
    if project is not None:
        r = project(r)
    beta0 = float(np.linalg.norm(r))
    bnorm = float(np.linalg.norm(b))
    tol = rtol * min(bnorm if bnorm > 0 else beta0, beta0)

    history = [beta0]
    precond_times = []
    iterations = 0
    converged = beta0 <= tol
    final_residual = beta0
    nonfinite = False

    while not converged and not nonfinite and iterations < maxiter:
        beta = float(np.linalg.norm(r))
        if beta <= tol:
            converged = True
            final_residual = beta
            break
        V = np.empty((restart + 1, n))
        Z = np.empty((restart, n))
        V[0] = r / beta
        H = np.zeros((restart + 1, restart))
        cs = np.zeros(restart)
        sn = np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta

        j = -1
        while j + 1 < restart and iterations < maxiter:
            j += 1
            t0 = time.perf_counter()
            z = apply_P(V[j])
            precond_times.append(time.perf_counter() - t0)
            if project is not None:
                z = project(z)
            Z[j] = z
            w = apply_K(z)
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            breakdown = H[j + 1, j] == 0.0
            if not breakdown:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                hi, hj = H[i, j], H[i + 1, j]
                H[i, j] = cs[i] * hi + sn[i] * hj
                H[i + 1, j] = -sn[i] * hi + cs[i] * hj
            denom = np.hypot(H[j, j], H[j + 1, j])
            cs[j], sn[j] = (1.0, 0.0) if denom == 0 else \
                (H[j, j] / denom, H[j + 1, j] / denom)
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            iterations += 1
            estimate = abs(g[j + 1])
            history.append(estimate)
            # A non-finite H[j+1, j] reaches the estimate through sn[j].
            if not np.isfinite(estimate):
                nonfinite = True
                break
            if estimate <= tol or breakdown or j + 1 == restart \
                    or iterations >= maxiter:
                y = scipy.linalg.solve_triangular(
                    H[: j + 1, : j + 1], g[: j + 1], check_finite=False
                )
                x = x + Z[: j + 1].T @ y
                r = b - apply_K(x)
                if project is not None:
                    r = project(r)
                final_residual = float(np.linalg.norm(r))
                if final_residual <= tol:
                    converged = True
                break
        # next restart cycle continues from the recomputed true residual

    report = KrylovReport(
        iterations=iterations,
        history=np.array(history),
        converged=converged,
        final_residual=final_residual,
        reason=("converged" if converged
                else "nonfinite" if nonfinite else "maxiter"),
        precond_times=precond_times,
    )
    return x, report


def estimate_lambda_max(apply_MK, n, iters=10):
    """Power iteration estimate of the dominant eigenvalue magnitude.

    Fixed seed, so benchmark runs are reproducible.
    """
    if n < 1:
        raise ValueError("operator dimension must be >= 1")
    rng = np.random.default_rng(POWER_ITERATION_SEED)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply_MK(v)
        lam = float(v @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            warnings.warn("power iteration hit the zero operator", stacklevel=2)
            return 0.0
        v = w / norm
    return abs(lam)


CHEBYSHEV_LOWER = 0.3
CHEBYSHEV_UPPER = 1.1
FALLBACK_WEIGHT = 2.0 / 3.0


def chebyshev(apply_MK, apply_Minv, r, nu, lambda_max):
    """nu Chebyshev steps for K e = r from e = 0, preconditioned by M.

    Smooths a guess x of K x = b as x += e with r = b - K x. Calls
    `apply_Minv(r)` = M^{-1} r once and `apply_MK(v)` = M^{-1} K v once per
    further step. The interval is [0.3, 1.1] * lambda_max; nu = 1 is one
    Richardson step with weight 2 / (1.4 lambda_max), and a non-positive
    lambda_max falls back to fixed-weight (2/3) Richardson.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    rbar = apply_Minv(r)
    if lambda_max <= 0.0:
        e = FALLBACK_WEIGHT * rbar
        for _ in range(nu - 1):
            e = e + FALLBACK_WEIGHT * (rbar - apply_MK(e))
        return e
    low = CHEBYSHEV_LOWER * lambda_max
    high = CHEBYSHEV_UPPER * lambda_max
    theta = 0.5 * (high + low)
    delta = 0.5 * (high - low)
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    e = d = rbar / theta
    for _ in range(nu - 1):
        rbar = rbar - apply_MK(d)
        rho_new = 1.0 / (2.0 * sigma1 - rho)
        d = rho_new * rho * d + (2.0 * rho_new / delta) * rbar
        e = e + d
        rho = rho_new
    return e
