"""Dense reference evaluations of the multigrid and block preconditioners.

Everything here is built from explicit dense linear algebra — matrix
inverses, matrix Chebyshev recurrences, and the displayed propagator
formulas — independently of the sparse/iterative implementations, so the
tests can compare the two sides at tight tolerances.

`reference_vcycle` is the exception: the sparse V-cycle in the form in
which every smoother and sub-cycle carries its guess, built on the
library's patch application, for comparison with the residual form of
`solvers.vcycle`.

The setup references at the end build patches, boundary DoFs, load
vectors and transfers the direct way, one vertex, edge, cell or point at a
time, for comparison with the batched library versions. Their topology
(vertex stars, closures) and DoF numbering are set-based and written out
here, apart from the DoF maps the library builds.
"""

import numpy as np
import scipy.sparse as sp

from stokesmg.linalg import CHEBYSHEV_LOWER as CHEB_LOWER
from stokesmg.linalg import CHEBYSHEV_UPPER as CHEB_UPPER
from stokesmg.relaxation import asm_apply


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
    [CHEB_LOWER, CHEB_UPPER]*lam applied to the preconditioned operator T."""
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


def reference_restarted_gmres(K, P, b, restart, cycles):
    """Restarted right-preconditioned GMRES for K x = b, by dense QR and
    least squares.

    Each cycle builds an orthonormal basis Q of the Krylov space of K P
    from the current residual r, one column at a time by QR, and adds the
    update P Q c that minimises |r - K P Q c|. Returns the iterate and the
    true residual norm after each of `cycles` full cycles.
    """
    x = np.zeros(len(b))
    iterates, residuals = [], []
    for _ in range(cycles):
        r = b - K @ x
        Q = (r / np.linalg.norm(r))[:, None]
        for _ in range(restart - 1):
            Q = np.linalg.qr(np.column_stack([Q, K @ (P @ Q[:, -1])]))[0]
        D = P @ Q
        x = x + D @ np.linalg.lstsq(K @ D, r, rcond=None)[0]
        iterates.append(x)
        residuals.append(np.linalg.norm(b - K @ x))
    return iterates, residuals


# -- the V-cycle in guess-carrying form ---------------------------------------

def reference_chebyshev(apply_MK, apply_Minv, b, x0, nu, lam):
    """nu Chebyshev steps for K x = b from the guess x0: M^{-1} b is applied
    afresh on every call and M^{-1} K x0 is swept even when x0 = 0."""
    x = np.array(x0, dtype=np.float64)
    zb = apply_Minv(b)
    theta = 0.5 * (CHEB_UPPER + CHEB_LOWER) * lam
    delta = 0.5 * (CHEB_UPPER - CHEB_LOWER) * lam
    sigma1 = theta / delta
    rho = 1.0 / sigma1
    rbar = zb - apply_MK(x)
    d = rbar / theta
    x = x + d
    for _ in range(nu - 1):
        rbar = rbar - apply_MK(d)
        rho_new = 1.0 / (2.0 * sigma1 - rho)
        d = rho_new * rho * d + (2.0 * rho_new / delta) * rbar
        x = x + d
        rho = rho_new
    return x


def reference_vcycle(hierarchy, b, x0=None, l=0):
    """The V-cycle with every smoother and sub-cycle carrying its guess:
    pre- and post-smoothing on b from the current x, and each of the n_V
    passes of the sub-cycle continuing from the last correction. Equal to
    `solvers.vcycle` in exact arithmetic."""
    levels = hierarchy.levels
    level = levels[l]
    if level.patches is None:
        return hierarchy.coarse_solve(b)
    x = np.zeros(level.n) if x0 is None else np.array(x0, dtype=np.float64)

    def apply_MK(v):
        return asm_apply(level.patches, level.K @ v)

    def apply_Minv(r):
        return asm_apply(level.patches, r)

    x = reference_chebyshev(apply_MK, apply_Minv, b, x, level.nu,
                            level.lambda_max)
    rc = level.P.T @ (b - level.K @ x)
    inner = hierarchy.n_V if (level.kind == "p"
                              and levels[l + 1].kind == "h") else 1
    e = np.zeros(levels[l + 1].n)
    for _ in range(inner):
        e = reference_vcycle(hierarchy, rc, e, l + 1)
    x = x + level.P @ e
    return reference_chebyshev(apply_MK, apply_Minv, b, x, level.nu,
                               level.lambda_max)


# -- per-entity setup references ----------------------------------------------

def entity_dofs(space, kind, index):
    """Scalar DoFs of one mesh entity ("vertex", "edge" or "cell"), from
    the documented numbering: vertices, then k - 1 per edge, then the cell
    interiors; a discontinuous space numbers every node cell by cell."""
    mesh, k = space.mesh, space.k
    if space.continuity == "discontinuous":
        n = space.element.num_nodes
        return list(range(index * n, (index + 1) * n)) if kind == "cell" \
            else []
    if kind == "vertex":
        return [index]
    if kind == "edge":
        base = mesh.num_vertices + index * (k - 1)
        return list(range(base, base + k - 1))
    n_int = (k - 1) * (k - 2) // 2
    base = mesh.num_vertices + mesh.num_edges * (k - 1) + index * n_int
    return list(range(base, base + n_int))


def entity_set_dofs(space, vertices, edges, cells):
    """Sorted scalar DoFs of a set of mesh entities."""
    return np.array(sorted(
        {d for v in vertices for d in entity_dofs(space, "vertex", v)}
        | {d for e in edges for d in entity_dofs(space, "edge", e)}
        | {d for c in cells for d in entity_dofs(space, "cell", c)}),
        dtype=np.int64)


def vertex_stars(mesh):
    """Per vertex v: (v's incident edges, v's incident cells), as sets."""
    edges = [set() for _ in range(mesh.num_vertices)]
    cells = [set() for _ in range(mesh.num_vertices)]
    for e, pair in enumerate(mesh.edges.tolist()):
        for v in pair:
            edges[v].add(e)
    for c, tri in enumerate(mesh.cells.tolist()):
        for v in tri:
            cells[v].add(c)
    return list(zip(edges, cells))


def closure(mesh, vertices, edges, cells):
    """The entity sets plus every vertex and edge of their cells and every
    vertex of their edges."""
    vertices, edges = set(vertices), set(edges)
    for c in cells:
        vertices.update(mesh.cells[c].tolist())
        edges.update(mesh.cell_edges[c].tolist())
    for e in edges:
        vertices.update(mesh.edges[e].tolist())
    return vertices, edges, set(cells)


def loop_boundary_dofs(space, markers=None):
    """Sorted scalar DoFs on the boundary edges with a marker in `markers`
    (any if None), one edge at a time."""
    dofs = set()
    for e, marker in space.mesh.boundary_edge_markers.items():
        if markers is None or marker in markers:
            dofs.update(entity_set_dofs(space, space.mesh.edges[e].tolist(),
                                        [e], []).tolist())
    return np.array(sorted(dofs), dtype=np.int64)


def loop_vanka_patches(mesh, velocity_space, pressure_space,
                       dirichlet_dofs=()):
    """(vertices, indices): velocity DoFs on the closure of star(v) and
    pressure DoFs on star(v), per vertex."""
    n_u = velocity_space.num_dofs
    return _loop_patches(
        mesh, n_u + pressure_space.num_dofs, dirichlet_dofs,
        lambda star: np.concatenate([
            velocity_space.expand_components(
                entity_set_dofs(velocity_space, *closure(mesh, *star))),
            n_u + entity_set_dofs(pressure_space, *star),
        ]))


def loop_star_patches(mesh, velocity_space, dirichlet_dofs=()):
    """(vertices, indices): velocity DoFs on star(v), per vertex."""
    return _loop_patches(
        mesh, velocity_space.num_dofs, dirichlet_dofs,
        lambda star: velocity_space.expand_components(
            entity_set_dofs(velocity_space, *star)))


def _loop_patches(mesh, n, dirichlet_dofs, dofs_of_star):
    excluded = np.zeros(n, dtype=bool)
    excluded[np.asarray(dirichlet_dofs, dtype=np.int64)] = True
    vertices, indices = [], []
    for v, (edges, cells) in enumerate(vertex_stars(mesh)):
        idx = dofs_of_star(({v}, edges, cells))
        idx = idx[~excluded[idx]]
        if len(idx):
            vertices.append(v)
            indices.append(np.sort(idx))
    return vertices, indices


def loop_forcing(space, forcing, rule):
    """Load vector of a two-component body force, one cell and one
    (scalar) callback per quadrature point at a time."""
    b = np.zeros(space.num_dofs)
    values, _ = space.element.tabulate(rule.xy)
    for t in range(space.mesh.num_cells):
        tri = space.mesh.vertices[space.mesh.cells[t]]
        e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
        detJ = e1[0] * e2[1] - e1[1] * e2[0]
        f = np.array([forcing(x, y) for x, y in rule.points @ tri])
        local = np.einsum("q,qn,qc->nc", rule.weights * detJ, values, f)
        np.add.at(b, space.cell_dofs[t].reshape(-1, 2), local)
    return b


def loop_h_prolongation(coarse, fine, drop_tol):
    """Nodal h-transfer, one fine cell at a time: each fine node is
    evaluated in the parent of the first fine cell holding it."""
    rows, cols, vals = [], [], []
    visited = np.zeros(fine.num_scalar_dofs, dtype=bool)
    for t in range(fine.mesh.num_cells):
        fdofs = fine.cell_scalar_dofs[t]
        todo = fdofs[~visited[fdofs]]
        visited[todo] = True
        parent = int(fine.mesh.parent_cell[t])
        tri = coarse.mesh.vertices[coarse.mesh.cells[parent]]
        J = np.column_stack([tri[1] - tri[0], tri[2] - tri[0]])
        for g in todo:
            ref = np.linalg.solve(J, fine.dof_coords[g] - tri[0])
            values, _ = coarse.element.tabulate(ref[None, :])
            _add_row(rows, cols, vals, g, values[0],
                     coarse.cell_scalar_dofs[parent], drop_tol)
    return _scalar_transfer(rows, cols, vals, fine, coarse)


def loop_p_prolongation(low, high, drop_tol):
    """Nodal p-transfer, one cell at a time."""
    values, _ = low.element.tabulate(high.element.nodes)
    rows, cols, vals = [], [], []
    visited = np.zeros(high.num_scalar_dofs, dtype=bool)
    for t in range(high.mesh.num_cells):
        for local, g in enumerate(high.cell_scalar_dofs[t]):
            if not visited[g]:
                visited[g] = True
                _add_row(rows, cols, vals, g, values[local],
                         low.cell_scalar_dofs[t], drop_tol)
    return _scalar_transfer(rows, cols, vals, high, low)


def _add_row(rows, cols, vals, g, values, dofs, drop_tol):
    keep = np.abs(values) > drop_tol
    rows.extend([g] * int(keep.sum()))
    cols.extend(dofs[keep])
    vals.extend(values[keep])


def _scalar_transfer(rows, cols, vals, fine, coarse):
    P = sp.coo_matrix((vals, (rows, cols)),
                      shape=(fine.num_scalar_dofs, coarse.num_scalar_dofs))
    return sp.kron(P.tocsr(), sp.eye(fine.components), format="csr")
