"""Scalar and vector function spaces: global DoF numbering and boundary DoFs.

Numbering is deterministic: vertex DoFs first (in vertex-id order), then edge
DoFs (edge-id order, nodes ordered along the edge from the lower global
vertex id to the higher), then cell-interior DoFs. Vector components are
interleaved per node, so velocity DoFs for scalar node g are (2g, 2g+1).
Discontinuous spaces number all nodes cell by cell.
"""

from __future__ import annotations

import numpy as np

from .mesh import _marked_slots
from .reference import LOCAL_EDGES, _element_any_degree

__all__ = ["FunctionSpace", "build_space", "evaluate"]

CONTINUOUS = "continuous"
DISCONTINUOUS = "discontinuous"


class FunctionSpace:
    """Finite element space on a mesh; see :func:`build_space`."""

    def __init__(self, mesh, k, continuity, components, element,
                 cell_scalar_dofs, num_scalar_dofs, dof_coords):
        self.mesh = mesh
        self.k = k
        self.continuity = continuity
        self.components = components
        self.element = element
        self.cell_scalar_dofs = cell_scalar_dofs
        self.num_scalar_dofs = num_scalar_dofs
        self.num_dofs = components * num_scalar_dofs
        self.dof_coords = dof_coords
        self.cell_dofs = self.expand_components(cell_scalar_dofs)
        for arr in (self.cell_scalar_dofs, self.cell_dofs, self.dof_coords):
            arr.flags.writeable = False

    def expand_components(self, scalar_ids):
        """Interleave components: scalar id g -> components*g + c."""
        scalar_ids = np.asarray(scalar_ids, dtype=np.int64)
        out = (
            scalar_ids[..., None] * self.components
            + np.arange(self.components, dtype=np.int64)
        )
        return out.reshape(*scalar_ids.shape[:-1], -1) if scalar_ids.ndim > 1 \
            else out.ravel()

    def boundary_scalar_dofs(self, markers=None):
        """Scalar DoFs on boundary edges (optionally restricted by marker):
        the vertex and edge nodes of each marked edge's cell slot. A
        discontinuous space has none."""
        if self.continuity == DISCONTINUOUS:
            return np.empty(0, dtype=np.int64)
        cells, local = _marked_slots(self.mesh, markers)
        elem = self.element
        edge_nodes = np.column_stack([elem.vertex_nodes[np.array(LOCAL_EDGES)],
                                      elem.edge_nodes])
        return np.unique(self.cell_scalar_dofs[cells[:, None],
                                               edge_nodes[local]])

    def interpolate(self, f):
        """Nodal interpolation of f (see :func:`evaluate`)."""
        return evaluate(f, self.dof_coords, self.components).ravel()


def evaluate(f, points, components):
    """Values of the callback f at `points` (..., 2), as (..., components).

    f is called once, on the x and y coordinate arrays. It returns one value
    per component: a tuple or list, or an array with the components along
    its first axis; a one-component f may return the bare value. Scalar
    values broadcast over the points.
    """
    shape = points.shape[:-1]
    out = f(points[..., 0], points[..., 1])
    parts = (list(out) if isinstance(out, (tuple, list))
             or np.ndim(out) > len(shape) else [out])
    if len(parts) != components:
        raise ValueError(
            f"function returned {len(parts)} components, expected "
            f"{components}"
        )
    return np.stack([np.broadcast_to(np.asarray(v, dtype=np.float64), shape)
                     for v in parts], axis=-1)


def build_space(mesh, k, continuity, components=1):
    """Lagrange space of degree k; continuity is "continuous" or
    "discontinuous"."""
    if continuity not in (CONTINUOUS, DISCONTINUOUS):
        raise ValueError(f"unknown continuity {continuity!r}")
    if continuity == CONTINUOUS and k < 1:
        raise ValueError("continuous spaces need k >= 1")
    if k < 0:
        raise ValueError("k must be non-negative")
    elem = _element_any_degree(k)
    n_local = elem.num_nodes
    T = mesh.num_cells
    # physical node coordinates, cell by cell: (T, n_local, 2)
    nodes = np.einsum("nb,tbd->tnd", elem.nodes_bary,
                      mesh.vertices[mesh.cells])

    if continuity == DISCONTINUOUS:
        cell_scalar = np.arange(T * n_local, dtype=np.int64).reshape(T, n_local)
        return FunctionSpace(mesh, k, continuity, components, elem,
                             cell_scalar, T * n_local,
                             nodes.reshape(-1, 2))

    V, E = mesh.num_vertices, mesh.num_edges
    n_edge = k - 1
    n_int = (k - 1) * (k - 2) // 2
    num_scalar = V + E * n_edge + T * n_int

    cell_scalar = np.empty((T, n_local), dtype=np.int64)
    cell_scalar[:, elem.vertex_nodes] = mesh.cells
    slots = np.arange(n_edge, dtype=np.int64)
    for le, (i, j) in enumerate(LOCAL_EDGES):
        # edge nodes run from the lower global vertex id to the higher
        flip = mesh.cells[:, i] > mesh.cells[:, j]
        local = np.where(flip[:, None], slots[::-1], slots)
        cell_scalar[:, elem.edge_nodes[le]] = (
            V + mesh.cell_edges[:, le, None] * n_edge + local)
    cell_scalar[:, elem.interior_nodes] = (
        V + E * n_edge + np.arange(T)[:, None] * n_int + np.arange(n_int))

    coords = np.empty((num_scalar, 2))
    coords[cell_scalar.ravel()] = nodes.reshape(-1, 2)
    return FunctionSpace(mesh, k, continuity, components, elem,
                         cell_scalar, num_scalar, coords)
