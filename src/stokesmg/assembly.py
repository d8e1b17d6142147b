"""Assembly of the Stokes saddle-point system and related operators.

The monolithic matrix is

    K = [ A   B^T ]      A = integral of grad(u) : grad(v),
        [ B   0   ]      B = -integral of p div(v),

with velocity DoFs first and pressure DoFs after. Dirichlet conditions are
imposed by symmetric elimination that only zeroes stored values (rows and
columns set to 0, unit diagonal, right-hand side lifted), so the sparsity
pattern of the assembled operator is preserved for nnz accounting.

Memory: assembling a block peaks at its COO triplets (the cell matrices
and two 32-bit index arrays) plus the CSR they sum into. K is then joined
row by row from the CSR blocks and eliminated in place, so the saddle
system peaks at its blocks plus K: on the SV k4 finest level of
ldc-sv4-phmg (a 25 MB K) `assemble_stokes` traces a 59 MB peak above its
start, below the 78 MB the built solver traces during its solve (91 MB
when the blocks were joined through COO and the elimination copied K).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .mesh import _marked_slots
from .quadrature import quadrature_rule
from .reference import LOCAL_EDGES
from .spaces import build_space, evaluate

__all__ = [
    "ProblemInstance",
    "SaddleSystem",
    "assemble_stokes",
    "assemble_pressure_mass",
    "eliminate_dirichlet",
    "compute_divergence_norm",
    "cellwise_divergence",
    "compute_errors",
]

TAYLOR_HOOD = "th"
SCOTT_VOGELIUS = "sv"


@dataclass(frozen=True)
class ProblemInstance:
    """A Stokes problem: geometry seed, boundary data, forcing, and spaces.

    `dirichlet` and `neumann` map boundary markers to functions of (x, y)
    returning two components; `forcing` and `exact_u` return two
    components and `exact_p` one. Every callback is called once per use
    with arrays of x and y coordinates, and returns one array per
    component (a tuple, or an array with components along its first axis);
    a scalar in place of an array is broadcast over the points.

    Every marker present on the mesh must appear in exactly one of
    `dirichlet` and `neumann`. A problem with no Neumann part is enclosed
    flow and carries the constant-pressure nullspace. `refinements` records
    how many uniform refinements separate the base mesh from the intended
    finest solve mesh (factories set it; solver builders may override).
    """

    name: str
    base_mesh: object
    family: str
    k: int
    dirichlet: dict
    neumann: dict = field(default_factory=dict)
    forcing: object = None
    exact_u: object = None
    exact_p: object = None
    refinements: int = 0

    def __post_init__(self):
        if self.family not in (TAYLOR_HOOD, SCOTT_VOGELIUS):
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("k", "refinements"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value,
                                                         numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.k < 2:
            raise ValueError("inf-sup stable discretizations need k >= 2")
        if self.refinements < 0:
            raise ValueError(
                f"refinements must be >= 0, got {self.refinements}")
        both = set(self.dirichlet) & set(self.neumann)
        if both:
            raise ValueError(f"markers {sorted(both)} have two conditions")
        mesh_markers = set(self.base_mesh.boundary_edge_markers.values())
        covered = set(self.dirichlet) | set(self.neumann)
        if mesh_markers - covered:
            raise ValueError(
                f"markers {sorted(mesh_markers - covered)} have no condition"
            )

    @property
    def has_pressure_nullspace(self):
        return len(self.neumann) == 0


class SaddleSystem:
    """Assembled Stokes system on one mesh/degree pair.

    `K` and `b` have the Dirichlet elimination applied; the blocks before
    elimination are `assemble_vector_laplacian` and `assemble_divergence`
    of the two spaces. `dirichlet_dofs` are monolithic indices (velocity
    block) with `dirichlet_values` aligned.
    """

    def __init__(self, velocity_space, pressure_space, K, b,
                 dirichlet_dofs, dirichlet_values, has_pressure_nullspace):
        self.velocity_space = velocity_space
        self.pressure_space = pressure_space
        self.K = K
        self.b = b
        self.dirichlet_dofs = dirichlet_dofs
        self.dirichlet_values = dirichlet_values
        self.has_pressure_nullspace = has_pressure_nullspace
        self.n_u = velocity_space.num_dofs
        self.n_p = pressure_space.num_dofs
        self.n = self.n_u + self.n_p

    def split(self, x):
        return x[: self.n_u], x[self.n_u:]

    def lifted_guess(self):
        """Zero initial guess with Dirichlet values filled in, so the
        initial residual vanishes on eliminated rows."""
        x0 = np.zeros(self.n)
        x0[self.dirichlet_dofs] = self.dirichlet_values
        return x0

    def pressure_nullvector(self):
        """Constant-pressure mode (zero velocity part), unit norm."""
        c = np.zeros(self.n)
        c[self.n_u:] = 1.0
        return c / np.linalg.norm(c)


def _geometry(mesh):
    """Per-cell Jacobians: returns (detJ, JinvT) with shapes (T,), (T,2,2)."""
    v0 = mesh.vertices[mesh.cells[:, 0]]
    v1 = mesh.vertices[mesh.cells[:, 1]]
    v2 = mesh.vertices[mesh.cells[:, 2]]
    J = np.stack([v1 - v0, v2 - v0], axis=-1)  # columns are edge vectors
    detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= detJ[:, None, None]
    JinvT = np.swapaxes(inv, 1, 2)
    return detJ, JinvT


def _physical_grads(space, rule):
    """Gradients of all basis functions at quadrature points, per cell.

    Returns (values (q, n), grads (T, q, n, 2), detJ (T,)).
    """
    detJ, JinvT = _geometry(space.mesh)
    values, ref_grads = space.element.tabulate(rule.xy)
    grads = ref_grads @ np.swapaxes(JinvT, 1, 2)[:, None]  # ref_grads inv(J)
    return values, grads, detJ


def _assemble(local, rows, cols, shape):
    """CSR sum of the cell matrices local[t] placed at rows[t] x cols[t].

    `local` is (T, m, n), `rows` (T, m) and `cols` (T, n); entries that
    cells share are summed. The COO triplets take 32-bit indices, which
    SciPy keeps as given, instead of 64-bit ones it would copy down.
    """
    index = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows = np.broadcast_to(rows.astype(index)[:, :, None], local.shape)
    cols = np.broadcast_to(cols.astype(index)[:, None, :], local.shape)
    M = sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                      shape=shape).tocsr()
    M.sum_duplicates()
    return M


def assemble_vector_laplacian(space):
    """A = integral grad(u):grad(v) on a space of any component count, CSR.

    On one component this is the scalar Laplacian. The operator does not
    couple components, but the cross-component zeros are stored anyway:
    per node pair the matrix holds a dense components x components entry
    set, matching how block-structured solver backends preallocate, so
    stored-entry counts are comparable.
    """
    rule = quadrature_rule(max(2 * space.k, 1))
    _, grads, detJ = _physical_grads(space, rule)
    # local[t] = G_t G_t^T, G_t[n] = grads[t, :, n, :] * sqrt(w) (w > 0)
    T, _, n, _ = grads.shape
    G = np.moveaxis(grads * np.sqrt(rule.weights)[:, None, None], 2, 1)
    G = G.reshape(T, n, -1)
    local = G @ np.swapaxes(G, 1, 2)
    local *= detJ[:, None, None]
    local = np.kron(local, np.eye(space.components))
    return _assemble(local, space.cell_dofs, space.cell_dofs,
                     (space.num_dofs, space.num_dofs))


def assemble_divergence(velocity_space, pressure_space):
    """B = -integral p div(v); shape n_p x n_u, CSR."""
    rule = quadrature_rule(max(2 * velocity_space.k, 1))
    _, grads, detJ = _physical_grads(velocity_space, rule)
    p_values, _ = pressure_space.element.tabulate(rule.xy)
    # local[t, i, 2 j + c] = -sum_q w_q psi_i dphi_j/dx_c, scaled by detJ
    T, q, n, _ = grads.shape
    local = -(p_values * rule.weights[:, None]).T @ grads.reshape(T, q, 2 * n)
    local *= detJ[:, None, None]
    return _assemble(local, pressure_space.cell_scalar_dofs,
                     velocity_space.cell_dofs,
                     (pressure_space.num_dofs, velocity_space.num_dofs))


def assemble_pressure_mass(pressure_space):
    """Pressure mass matrix, CSR. Block-diagonal for discontinuous spaces."""
    rule = quadrature_rule(max(2 * pressure_space.k, 1))
    detJ, _ = _geometry(pressure_space.mesh)
    values, _ = pressure_space.element.tabulate(rule.xy)
    local = np.einsum("qi,qj,q->ij", values, values, rule.weights)
    scal = pressure_space.cell_scalar_dofs
    n = pressure_space.num_dofs
    return _assemble(local[None, :, :] * detJ[:, None, None], scal, scal,
                     (n, n))


def _quadrature_points(mesh, rule):
    """Physical quadrature points, (T, q, 2)."""
    return np.einsum("qb,tbd->tqd", rule.points, mesh.vertices[mesh.cells])


def _assemble_forcing(space, forcing, rule):
    """Load vector of the body force: one callback on all quadrature
    points of the mesh, one scatter-add."""
    if forcing is None:
        return np.zeros(space.num_dofs)
    values, _ = space.element.tabulate(rule.xy)
    detJ, _ = _geometry(space.mesh)
    f = evaluate(forcing, _quadrature_points(space.mesh, rule), 2)
    local = np.einsum("tq,qn,tqc->tnc", rule.weights * detJ[:, None], values,
                      f)
    return np.bincount(space.cell_dofs.ravel(), local.ravel(),
                       minlength=space.num_dofs)


def _edge_quadrature(n):
    gx, gw = np.polynomial.legendre.leggauss(n)
    return 0.5 * (gx + 1.0), 0.5 * gw


def _assemble_neumann(space, neumann, b):
    """Add the boundary flux term: integral over Neumann edges of g_N . v."""
    if not neumann:
        return
    mesh = space.mesh
    s, w = _edge_quadrature(space.k + 1)
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for marker in sorted(neumann):
        # (cell, local edge) slots holding an edge with this marker
        slot_cells, slot_edge = _marked_slots(mesh, {marker})
        for local, (i, j) in enumerate(LOCAL_EDGES):
            cells = slot_cells[slot_edge == local]
            if not len(cells):
                continue
            values, _ = space.element.tabulate(
                ref[i] + np.outer(s, ref[j] - ref[i]))
            pa = mesh.vertices[mesh.cells[cells, i]]
            pb = mesh.vertices[mesh.cells[cells, j]]
            length = np.linalg.norm(pb - pa, axis=1)
            g = evaluate(neumann[marker],
                         pa[:, None] + s[:, None] * (pb - pa)[:, None], 2)
            loc = np.einsum("q,e,qn,eqc->enc", w, length, values, g)
            b += np.bincount(space.cell_dofs[cells].ravel(), loc.ravel(),
                             minlength=len(b))


def collect_dirichlet(space, dirichlet):
    """Monolithic Dirichlet DoF indices and values for a velocity space.

    Markers are visited in sorted order; boundary data is expected to agree
    where markers meet.
    """
    values = np.zeros((space.num_scalar_dofs, space.components))
    seen = np.zeros(space.num_scalar_dofs, dtype=bool)
    for marker in sorted(dirichlet):
        sdofs = space.boundary_scalar_dofs(markers={marker})
        values[sdofs] = evaluate(dirichlet[marker], space.dof_coords[sdofs],
                                 space.components)
        seen[sdofs] = True
    sdofs = np.flatnonzero(seen)
    return space.expand_components(sdofs), values[sdofs].ravel()


def eliminate_dirichlet(K, dofs, values, b=None):
    """Symmetric elimination preserving the sparsity pattern, in place.

    Overwrites its input: the stored values of K's rows and columns in
    `dofs` are zeroed in place of being removed and the diagonal is set to
    1, so a CSR K comes back as the same object with its pattern kept.
    `b` (if given) is copied and receives the lifting
    b <- b - K[:, dofs] @ values, then b[dofs] = values. Returns (K', b').
    A Dirichlet DoF without a stored diagonal raises a ValueError before
    anything is overwritten.
    """
    K = K.tocsr()
    K.sum_duplicates()
    dofs = np.asarray(dofs, dtype=np.intp)
    # the stored entries of the rows in `dofs`, and which are diagonal
    starts = K.indptr[dofs]
    counts = K.indptr[dofs + 1] - starts
    entries = (np.arange(counts.sum())
               + np.repeat(starts - np.cumsum(counts) + counts, counts))
    diagonal = entries[K.indices[entries] == np.repeat(dofs, counts)]
    stored = np.zeros(K.shape[0], dtype=bool)
    stored[K.indices[diagonal]] = True
    if not stored[dofs].all():
        missing = dofs[~stored[dofs]][0]
        raise ValueError(f"no stored diagonal for Dirichlet DoF {missing}")
    if b is not None:
        b = b.copy()
        lift = np.zeros(K.shape[1])
        lift[dofs] = values
        b -= K @ lift
    on = np.zeros(K.shape[1], dtype=bool)
    on[dofs] = True
    K.data[on[K.indices]] = 0.0
    K.data[entries] = 0.0
    K.data[diagonal] = 1.0
    if b is not None:
        b[dofs] = values
    return K, b


def _saddle(A, B):
    """[[A, B^T], [B, 0]] in CSR, joined row by row from the CSR blocks:
    row i < n_u holds row i of A, then row i of B^T shifted past A's
    columns, and the rows of B follow. The join holds the blocks, B^T, the
    result and one byte per entry of the first n_u rows."""
    n_u, n_p = A.shape[0], B.shape[0]
    BT = B.T.tocsr()
    BT.indices += n_u
    counts = np.column_stack([np.diff(A.indptr), np.diff(BT.indptr)])
    from_A = np.repeat(np.tile([True, False], n_u), counts.ravel())
    upper = len(from_A)
    indptr = np.concatenate([A.indptr + BT.indptr, upper + B.indptr[1:]])
    K = sp.csr_matrix((np.empty(upper + B.nnz),
                       np.empty(upper + B.nnz, dtype=indptr.dtype), indptr),
                      shape=(n_u + n_p, n_u + n_p))
    for out, a, bt, b in ((K.data, A.data, BT.data, B.data),
                          (K.indices, A.indices, BT.indices, B.indices)):
        out[:upper][from_A] = a
        out[:upper][~from_A] = bt
        out[upper:] = b
    return K


def stokes_spaces(mesh, family, k):
    """Velocity/pressure space pair for a discretization family."""
    continuity = "continuous" if family == TAYLOR_HOOD else "discontinuous"
    return (build_space(mesh, k, "continuous", components=2),
            build_space(mesh, k - 1, continuity))


def assemble_stokes(problem, mesh, k=None, family=None):
    """Assemble the saddle system for `problem` on `mesh`.

    `k` and `family` override the problem's values; multilevel solvers use
    this to rediscretize on coarser meshes and degrees.
    """
    k = problem.k if k is None else k
    family = problem.family if family is None else family
    if family == SCOTT_VOGELIUS:
        if k < 2:
            raise ValueError("Scott-Vogelius needs k >= 2 in 2D")
        if getattr(mesh, "refinement_kind", None) != "barycentric":
            raise ValueError(
                "Scott-Vogelius requires a barycentrically refined mesh"
            )
    rule = quadrature_rule(2 * k)
    velocity, pressure = stokes_spaces(mesh, family, k)
    dofs, values = collect_dirichlet(velocity, problem.dirichlet)
    b_u = _assemble_forcing(velocity, problem.forcing, rule)
    _assemble_neumann(velocity, problem.neumann, b_u)
    b = np.concatenate([b_u, np.zeros(pressure.num_dofs)])

    K, b = eliminate_dirichlet(_saddle(assemble_vector_laplacian(velocity),
                                       assemble_divergence(velocity,
                                                           pressure)),
                               dofs, values, b)
    return SaddleSystem(velocity, pressure, K, b, dofs, values,
                        problem.has_pressure_nullspace)


# -- solution quality ------------------------------------------------------

def cellwise_divergence(u, space, rule):
    """div(u_h) at every quadrature point; shape (T, q)."""
    _, grads, _ = _physical_grads(space, rule)
    T = space.mesh.num_cells
    coeffs = u[space.cell_dofs].reshape(T, -1, 2)  # (T, n, 2)
    return np.einsum("tnc,tqnc->tq", coeffs, grads)


def compute_divergence_norm(u, space):
    """L2 norm of div(u_h), by quadrature of degree 2k."""
    rule = quadrature_rule(2 * space.k)
    div = cellwise_divergence(u, space, rule)
    detJ, _ = _geometry(space.mesh)
    val = np.einsum("tq,q,t->", div**2, rule.weights, detJ)
    return float(np.sqrt(max(val, 0.0)))


def _values_at_quad(vec, space, rule):
    values, _ = space.element.tabulate(rule.xy)
    T = space.mesh.num_cells
    coeffs = vec[space.cell_dofs].reshape(T, -1, space.components)
    return np.einsum("qn,tnc->tqc", values, coeffs)


def compute_errors(u, p, velocity_space, pressure_space, exact_u, exact_p,
                   subtract_pressure_mean=False):
    """L2 errors against an exact solution, by quadrature of degree 2k+2."""
    mesh = velocity_space.mesh
    rule = quadrature_rule(2 * velocity_space.k + 2)
    detJ, _ = _geometry(mesh)
    scale = rule.weights[None, :] * detJ[:, None]

    phys = _quadrature_points(mesh, rule)
    uh = _values_at_quad(u, velocity_space, rule)
    uex = evaluate(exact_u, phys, 2)
    err_u = float(np.sqrt(np.sum(scale[..., None] * (uh - uex) ** 2)))

    ph = _values_at_quad(p, pressure_space, rule)[:, :, 0]
    pex = evaluate(exact_p, phys, 1)[:, :, 0]
    diff = ph - pex
    if subtract_pressure_mean:
        area = float(scale.sum())
        diff = diff - np.sum(scale * diff) / area
    err_p = float(np.sqrt(np.sum(scale * diff**2)))
    return err_u, err_p
