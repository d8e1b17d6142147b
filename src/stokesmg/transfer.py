"""Prolongation operators between multigrid levels.

All transfers are nodal: the entry (fine node i, coarse basis j) is the
coarse basis function evaluated at the fine node's location. Because every
coarse space here is a subspace of its fine partner (nested meshes, nested
degrees, continuous inside discontinuous), this evaluation is an exact
injection and no mass-matrix solves are needed. Restriction is the
transpose.

Each fine node is evaluated in the first cell (in cell order) that holds
it, and all nodes of one transfer are mapped, tabulated and assembled in
one batch.

Dirichlet filtering is deliberately a separate step from construction: the
raw operators satisfy the partition-of-unity row-sum property, and the
multigrid hierarchy zeroes eliminated rows/columns afterwards.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "build_h_prolongation",
    "build_p_prolongation",
    "build_monolithic_transfer",
    "filter_dirichlet",
]

# Tabulated basis values at most DROP_TOL are roundoff zeros. On the bfs2d
# base mesh's uniform and barycentric h-transfers and every p-transfer for
# k = 1-10, genuine entries are >= 4.65e-5 and roundoff reaches 8.0e-13,
# so the sparsity of P does not depend on how the tabulation rounds.
DROP_TOL = 1e-10


def _expand_components(P, components):
    """Scalar transfer -> per-node block transfer with interleaved
    components."""
    if components == 1:
        return P
    return sp.kron(P, sp.eye(components), format="csr")


def _first_owners(space):
    """(scalar DoF ids, first cell holding each, its local node there)."""
    n_local = space.cell_scalar_dofs.shape[1]
    dofs, first = np.unique(space.cell_scalar_dofs, return_index=True)
    return dofs, first // n_local, first % n_local


def _nodal_matrix(rows, values, cols, shape, components):
    """Row rows[i] takes values[i] at columns cols[i]; entries at most
    DROP_TOL in magnitude are dropped, then components are interleaved."""
    keep = np.abs(values) > DROP_TOL
    rows = np.broadcast_to(rows[:, None], values.shape)
    P = sp.coo_matrix((values[keep], (rows[keep], cols[keep])),
                      shape=shape).tocsr()
    return _expand_components(P, components)


def build_h_prolongation(coarse, fine):
    """Transfer between the same space family on a mesh and its refinement.

    Requires fine.mesh to be the direct refinement (quadrisection or
    barycentric) of coarse.mesh, with matching degree/continuity/components.
    """
    if fine.mesh.parent is not coarse.mesh:
        raise ValueError("meshes are not nested (fine is not a refinement "
                         "of coarse)")
    if (coarse.k, coarse.continuity, coarse.components) != \
            (fine.k, fine.continuity, fine.components):
        raise ValueError("h-transfer requires matching degree, continuity, "
                         "and components")
    dofs, cells, _ = _first_owners(fine)
    parents = fine.mesh.parent_cell[cells]
    tri = coarse.mesh.vertices[coarse.mesh.cells[parents]]  # (N, 3, 2)
    J = np.stack([tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0]], axis=-1)
    offset = fine.dof_coords[dofs] - tri[:, 0]
    ref = np.linalg.solve(J, offset[..., None])[..., 0]
    values, _ = coarse.element.tabulate(ref)
    return _nodal_matrix(dofs, values, coarse.cell_scalar_dofs[parents],
                         (fine.num_scalar_dofs, coarse.num_scalar_dofs),
                         fine.components)


def build_p_prolongation(low, high):
    """Transfer between degrees on one mesh.

    `low` must be continuous with smaller degree; `high` is either continuous
    or discontinuous (the latter embeds the continuous coarse pressure into a
    discontinuous fine pressure, and is the one case where equal degrees are
    meaningful).
    """
    if low.mesh is not high.mesh:
        raise ValueError("p-transfer requires a shared mesh")
    if low.k > high.k or (low.k == high.k
                          and low.continuity == high.continuity):
        raise ValueError(f"p-transfer needs low degree < high degree "
                         f"(got {low.k} >= {high.k})")
    if low.continuity != "continuous":
        raise ValueError("p-transfer source space must be continuous")
    if low.components != high.components:
        raise ValueError("component mismatch")
    values, _ = low.element.tabulate(high.element.nodes)
    dofs, cells, nodes = _first_owners(high)
    return _nodal_matrix(dofs, values[nodes], low.cell_scalar_dofs[cells],
                         (high.num_scalar_dofs, low.num_scalar_dofs),
                         high.components)


def build_monolithic_transfer(P_vel, P_pres):
    """Block-diagonal arrangement matching [velocity; pressure] ordering."""
    return sp.block_diag([P_vel, P_pres], format="csr")


def filter_dirichlet(P, fine_dirichlet, coarse_dirichlet):
    """Zero rows of eliminated fine DoFs and columns of eliminated coarse
    DoFs.

    Row zeroing keeps prolonged corrections inside the homogeneous space;
    column zeroing keeps restricted residuals from exciting coarse DoFs whose
    equations were replaced by the identity.
    """
    P = P.tocsr(copy=True)
    fine = np.zeros(P.shape[0], dtype=bool)
    fine[np.asarray(fine_dirichlet, dtype=np.int64)] = True
    coarse = np.zeros(P.shape[1], dtype=bool)
    coarse[np.asarray(coarse_dirichlet, dtype=np.int64)] = True
    rows = np.repeat(fine, np.diff(P.indptr))
    P.data[rows | coarse[P.indices]] = 0.0
    P.eliminate_zeros()
    return P
