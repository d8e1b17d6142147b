"""Dense reference evaluations of the multigrid and block preconditioners.

Everything here is built from explicit dense linear algebra — matrix
inverses, matrix Chebyshev recurrences, and the displayed propagator
formulas — independently of the sparse/iterative implementations, so the
tests can compare the two sides at tight tolerances.
"""

import numpy as np

CHEB_LOWER, CHEB_UPPER = 0.3, 1.1


def dense_asm(K, indices):
    """The additive Schwarz approximate inverse as a dense matrix.

    sum_i I_i^T W_i inv(K[idx_i, idx_i]) I_i, with W_i the inverse number of
    patches each DoF lies in, built from the dense operator and the patch
    index lists alone. DoFs in no patch get zero rows and columns.
    """
    multiplicity = np.zeros(K.shape[0])
    for idx in indices:
        multiplicity[idx] += 1.0
    M = np.zeros(K.shape)
    for idx in indices:
        local_inv = np.linalg.inv(K[np.ix_(idx, idx)])
        M[np.ix_(idx, idx)] += local_inv / multiplicity[idx][:, None]
    return M


def dense_cheb_error(T, nu, lam):
    """Error propagator of nu Chebyshev steps on the interval
    [0.3, 1.1]*lam applied to the preconditioned operator T."""
    theta = 0.5 * (CHEB_UPPER + CHEB_LOWER) * lam
    delta = 0.5 * (CHEB_UPPER - CHEB_LOWER) * lam
    n = T.shape[0]
    W = (theta * np.eye(n) - T) / delta
    w = theta / delta
    C_prev, C_cur = np.eye(n), W
    c_prev, c_cur = 1.0, w
    for _ in range(nu - 1):
        C_prev, C_cur = C_cur, 2.0 * W @ C_cur - C_prev
        c_prev, c_cur = c_cur, 2.0 * w * c_cur - c_prev
    return C_cur / c_cur


def level_smoother(level):
    """(S, Q): error propagator and from-zero solution matrix of the
    level's Chebyshev-wrapped patch relaxation."""
    K = level.K.toarray()
    Minv = dense_asm(K, level.patches.indices)
    S = dense_cheb_error(Minv @ K, level.nu, level.lambda_max)
    Q = (np.eye(level.n) - S) @ np.linalg.inv(K)
    return S, Q


def eq_two_level(S, P, Kc, K):
    """Two-level error propagator: post-relax, coarse correction with an
    exact next-level solve and transposed restriction, pre-relax."""
    n = K.shape[0]
    CGC = np.eye(n) - P @ np.linalg.inv(Kc) @ P.T @ K
    return S @ CGC @ S


def eq_defect_correction(S, P, K_low, G_inner, n_v, K):
    """Defect-correction propagator: the next-level solve is replaced by
    n_v applications of an inner cycle with propagator G_inner."""
    n = K.shape[0]
    approx_inv = (np.eye(K_low.shape[0]) - np.linalg.matrix_power(G_inner, n_v)
                  ) @ np.linalg.inv(K_low)
    return S @ (np.eye(n) - P @ approx_inv @ P.T @ K) @ S


def dense_cycle_matrix(hierarchy, l=0):
    """The V-cycle as a dense solution operator M (x = M b from x0 = 0),
    built recursively from the formula pieces."""
    levels = hierarchy.levels
    if l == len(levels) - 1:
        return np.linalg.inv(levels[l].K.toarray())
    level = levels[l]
    K = level.K.toarray()
    S, Q = level_smoother(level)
    P = level.P.toarray()
    M_next = dense_cycle_matrix(hierarchy, l + 1)
    K_next = levels[l + 1].K.toarray()
    inner = hierarchy.n_V if (level.kind == "p"
                              and levels[l + 1].kind == "h") else 1
    E = np.zeros_like(M_next)
    for _ in range(inner):
        E = E + M_next @ (np.eye(K_next.shape[0]) - K_next @ E)
    X2 = Q + P @ E @ P.T @ (np.eye(level.n) - K @ Q)
    return S @ X2 + Q


def dense_fbf(A_inv, S_inv, B):
    """Block-factorized approximate inverse
    [[I, -A_inv B^T], [0, I]] diag(A_inv, S_inv) [[I, 0], [-B A_inv, I]]."""
    n_u, n_p = A_inv.shape[0], S_inv.shape[0]
    n = n_u + n_p
    upper = np.eye(n)
    upper[:n_u, n_u:] = -A_inv @ B.T
    lower = np.eye(n)
    lower[n_u:, :n_u] = -B @ A_inv
    mid = np.zeros((n, n))
    mid[:n_u, :n_u] = A_inv
    mid[n_u:, n_u:] = S_inv
    return upper @ mid @ lower


def probe_columns(apply_fn, n):
    """Assemble a linear operator column by column."""
    M = np.zeros((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        M[:, j] = apply_fn(e)
        e[j] = 0.0
    return M
