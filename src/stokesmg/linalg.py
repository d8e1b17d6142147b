"""Krylov, Chebyshev, and sparse direct-factorization kernels.

The sparse matrix type is CSR (scipy); `spmv` multiplies it into a vector
or, one column at a time, into a block of columns. FGMRES is flexible and
right-preconditioned, and the true residual is recomputed at every restart
boundary before a new cycle starts. The multigrid cycles built here are
fixed linear operators (the Chebyshev interval, the sweep counts and the
chunk order are set at build), so plain GMRES would do for them; the
flexible variant stays because `solve_stokes` accepts any preconditioner
callable, which may change between iterations. FGMRES and the eigenvalue
estimate share one Arnoldi step: two passes of classical Gram-Schmidt.

The Chebyshev smoother damps the interval [0.5, 1.15] * lambda_hat of the
preconditioned operator M^{-1} K, with lambda_hat a 10-step Arnoldi
estimate of its spectral radius; lambda_hat <= 0 raises a ValueError. The
lower end leaves the bottom half of the spectrum to the coarse grid; the
upper factor covers the few percent by which the estimate can fall short
of the true radius.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

__all__ = [
    "SingularMatrixError",
    "KrylovReport",
    "spmv",
    "sparse_lu",
    "fgmres",
    "estimate_lambda_max",
    "chebyshev",
]

ARNOLDI_SEED = 0x5EED
ARNOLDI_STEPS = 10
#: Arnoldi stops when orthogonalization leaves this fraction of a step's
#: image or less: the Krylov space is then invariant.
INVARIANT_TOL = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot collapsed during factorization."""


def spmv(A, X):
    """A @ X for a sparse A and an (n,) vector or an (n, c) block.

    A block is multiplied one column at a time: SciPy's multi-vector CSR
    kernel costs more than c one-vector products (on ldc-th4-fbf's finest
    velocity level, 277 us for c = 2 against 126 us on a 2-core host with
    BLAS at 1 thread). Both kernels sum each output entry in the same
    order, so the result equals A @ X bitwise.
    """
    if X.ndim == 1:
        return A @ X
    out = np.empty((A.shape[0], X.shape[1]))
    for j in range(X.shape[1]):
        out[:, j] = A @ X[:, j]
    return out


def sparse_lu(A):
    """SuperLU factorization of the square sparse matrix `A`.

    Returns the `scipy.sparse.linalg.SuperLU` object, whose `solve` takes
    an (n,) vector or an (n, c) block. SuperLU does not reliably report a
    numerically singular matrix (the unpinned saddle operator of an
    enclosed flow factors with pivots near 1e-17 of its scale), so a pivot
    of U at or below 1e-14 max|A| raises, as an exactly zero pivot does.
    """
    A = A.tocsc()
    try:
        lu = scipy.sparse.linalg.splu(A)
    except RuntimeError as err:
        raise SingularMatrixError(str(err)) from None
    # Partial pivoting (SuperLU's default threshold 1) keeps |L| <= 1, so a
    # pivot this far below the magnitude of A flags numerical singularity.
    pivots = np.abs(lu.U.diagonal())
    bad = int(np.argmin(pivots))
    if pivots[bad] <= 1e-14 * abs(A).max():
        raise SingularMatrixError(
            f"singular pivot {pivots[bad]:.3e} in column {lu.perm_c[bad]}"
        )
    return lu


@dataclass
class KrylovReport:
    """Outcome of one FGMRES solve.

    `history` starts at the initial residual norm; within a restart cycle the
    entries are the Givens residual estimates, and `final_residual` is the
    true residual of the returned iterate. `reason` names how the solve
    ended: "converged", "maxiter" (the iteration budget ran out first),
    "nonfinite" (a residual estimate became NaN or inf) or "breakdown" (a
    step added no new direction to the range of the preconditioned
    operator, as a zero preconditioner or one with a nullspace does, so
    the least-squares problem turned singular; the iterate is the one of
    the steps before).
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

    Each iteration keeps its preconditioned direction, so `apply_P` may be
    any callable, also one that changes between iterations. Each step
    orthogonalizes with `_orthogonalize`, as `estimate_lambda_max` does.

    `project`, when given, removes a known operator nullspace component from
    every residual and every preconditioned direction (used for the
    constant-pressure mode of enclosed flows). Non-convergence is reported,
    not raised. A non-finite residual estimate (a preconditioner or operator
    that produced NaN or inf) ends the solve at once, unconverged, with the
    last finite iterate. So does a zero diagonal of the rotated Hessenberg
    matrix ("breakdown"): the solve keeps the iterate of the nonsingular
    leading block, and the step's history entry repeats its estimate. When
    instead the Krylov space turns invariant with a nonzero diagonal, the
    estimate is 0 and the solve has converged.

    `restart` (Krylov directions per cycle) must be >= 1, and `maxiter`
    and `rtol` >= 0; anything else raises a ValueError.
    """
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    if maxiter < 0:
        raise ValueError(f"maxiter must be >= 0, got {maxiter}")
    if not rtol >= 0:
        raise ValueError(f"rtol must be >= 0, got {rtol}")
    project = project or (lambda v: v)
    b = np.asarray(b, dtype=np.float64)
    n = len(b)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    bnorm = float(np.linalg.norm(b))
    history, precond_times = [], []
    iterations, nonfinite, breakdown = 0, False, False

    while True:
        # The true residual, up front and at the end of every cycle.
        r = project(b - apply_K(x))
        beta = float(np.linalg.norm(r))
        if not history:
            history.append(beta)
            tol = rtol * min(bnorm if bnorm > 0 else beta, beta)
        if beta <= tol or iterations >= maxiter or breakdown:
            break
        V, Z = np.empty((restart + 1, n)), np.empty((restart, n))
        V[0] = r / beta
        H = np.zeros((restart + 1, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        for j in range(min(restart, maxiter - iterations)):
            t0 = time.perf_counter()
            z = apply_P(V[j])
            precond_times.append(time.perf_counter() - t0)
            Z[j] = project(z)
            w = _orthogonalize(V, H, j, apply_K(Z[j]))
            # A zero H[j+1, j] means an invariant Krylov space: sn[j] = 0
            # below makes the estimate 0, which ends the cycle.
            if H[j + 1, j] != 0.0:
                V[j + 1] = w / H[j + 1, j]
            for i in range(j):
                hi, hj = H[i, j], H[i + 1, j]
                H[i, j] = cs[i] * hi + sn[i] * hj
                H[i + 1, j] = -sn[i] * hi + cs[i] * hj
            denom = np.hypot(H[j, j], H[j + 1, j])
            iterations += 1
            if denom == 0.0:
                # K z_j lies in the span of the earlier K z_i: the rotated
                # H is singular, and its leading j columns hold the iterate.
                breakdown = True
                history.append(abs(g[j]))
                break
            cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = denom
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            estimate = abs(g[j + 1])
            history.append(estimate)
            # A non-finite H[j+1, j] reaches the estimate through sn[j].
            nonfinite = not np.isfinite(estimate)
            if nonfinite or estimate <= tol:
                break
        if nonfinite:
            break
        m = j if breakdown else j + 1
        y = scipy.linalg.solve_triangular(H[:m, :m], g[:m],
                                          check_finite=False)
        x = x + Z[:m].T @ y

    converged = beta <= tol
    reason = ("converged" if converged
              else "nonfinite" if nonfinite
              else "breakdown" if breakdown else "maxiter")
    return x, KrylovReport(iterations, np.array(history), converged, beta,
                           reason, precond_times)


def _orthogonalize(V, H, j, w):
    """Orthogonalize `w` against the rows of V[: j + 1] and return the rest.

    Two passes of classical Gram-Schmidt (as orthogonal as modified
    Gram-Schmidt, and vectorized) add the coefficients into H[: j + 1, j];
    H[j + 1, j] gets the norm of the remainder.
    """
    for _ in range(2):
        h = V[: j + 1] @ w
        w = w - h @ V[: j + 1]
        H[: j + 1, j] += h
    H[j + 1, j] = np.linalg.norm(w)
    return w


def estimate_lambda_max(apply_MK, n):
    """Arnoldi estimate of the spectral radius of the n x n operator
    `apply_MK`.

    ARNOLDI_STEPS Arnoldi steps (one `apply_MK` call each) from a fixed
    seed, so benchmark runs are reproducible, with the two-pass classical
    Gram-Schmidt step that `fgmres` uses. The estimate is the largest
    |Ritz value| of the Hessenberg matrix; the process stops early on an
    invariant subspace, and the zero operator raises a ValueError.
    The smoothed operator M^{-1} K is not symmetric, and its Ritz values
    can be complex. `chebyshev` nevertheless treats the spectrum as real
    and inside [0, lambda_max], so the modulus is the one figure used.
    """
    if n < 1:
        raise ValueError("operator dimension must be >= 1")
    rng = np.random.default_rng(ARNOLDI_SEED)
    steps = min(ARNOLDI_STEPS, n)
    V = np.empty((steps + 1, n))
    H = np.zeros((steps + 1, steps))
    V[0] = rng.standard_normal(n)
    V[0] /= np.linalg.norm(V[0])
    m = steps
    for j in range(steps):
        w = apply_MK(V[j])
        scale = np.linalg.norm(w)
        w = _orthogonalize(V, H, j, w)
        if H[j + 1, j] <= INVARIANT_TOL * scale:
            m = j + 1
            break
        V[j + 1] = w / H[j + 1, j]
    lam = float(np.abs(np.linalg.eigvals(H[:m, :m])).max())
    if lam == 0.0:
        raise ValueError("Arnoldi hit the zero operator")
    return lam


CHEBYSHEV_LOWER = 0.5
CHEBYSHEV_UPPER = 1.15


def chebyshev(apply_MK, apply_Minv, r, nu, lambda_max):
    """nu Chebyshev steps for K e = r from e = 0, preconditioned by M.

    Smooths a guess x of K x = b as x += e with r = b - K x. Calls
    `apply_Minv(r)` = M^{-1} r once and `apply_MK(v)` = M^{-1} K v once per
    further step. The interval is [CHEBYSHEV_LOWER, CHEBYSHEV_UPPER] *
    lambda_max = [0.5, 1.15] * lambda_max, which assumes a real spectrum
    (see `estimate_lambda_max`); nu = 1 is one Richardson step with weight
    2 / (1.65 lambda_max). nu < 1, and a lambda_max that is not > 0 (NaN
    included), raise a ValueError.
    """
    if nu < 1:
        raise ValueError("nu must be >= 1")
    if not lambda_max > 0.0:
        raise ValueError(f"lambda_max must be > 0, got {lambda_max}")
    rbar = apply_Minv(r)
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
