"""2D simplicial meshes: construction, refinement, and topology queries.

Meshes are immutable after construction (coordinate and connectivity arrays
are marked read-only), so they can be shared freely between solver levels.
Edges are derived from cells: each edge is a sorted pair of vertex ids and
edge ids follow the lexicographic order of those pairs, which keeps DoF
numbering stable across runs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .reference import LOCAL_EDGES

__all__ = [
    "Mesh",
    "EntitySet",
    "MeshError",
    "generate_structured_grid",
    "refine_uniform",
    "refine_barycentric",
    "vertex_star",
    "closure",
    "load_mesh",
    "save_mesh",
]


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


@dataclass(frozen=True)
class EntitySet:
    """Disjoint lists of vertex/edge/cell ids, kept sorted and duplicate-free."""

    vertices: np.ndarray
    edges: np.ndarray
    cells: np.ndarray

    def __post_init__(self):
        for name in ("vertices", "edges", "cells"):
            ids = np.unique(np.asarray(getattr(self, name), dtype=np.int64))
            object.__setattr__(self, name, ids)

    def __eq__(self, other):
        if not isinstance(other, EntitySet):
            return NotImplemented
        return (
            np.array_equal(self.vertices, other.vertices)
            and np.array_equal(self.edges, other.edges)
            and np.array_equal(self.cells, other.cells)
        )


class Mesh:
    """Triangulation of a planar domain.

    Parameters
    ----------
    vertices : (V, 2) float array
        Vertex coordinates.
    cells : (T, 3) int array
        Vertex ids per triangle, counterclockwise.
    boundary_edge_markers : dict
        Maps edge id -> integer marker. Only boundary edges may carry markers.
    parent : Mesh, optional
        The mesh this one refines.
    parent_cell : (T,) int array, optional
        Child cell -> parent cell map; required with ``parent``.
    """

    def __init__(self, vertices, cells, boundary_edge_markers=None,
                 parent=None, parent_cell=None):
        vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be a (V, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise MeshError("cells must be a (T, 3) array")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshError("cell references an unknown vertex id")
        repeated = ((cells[:, 0] == cells[:, 1]) | (cells[:, 0] == cells[:, 2])
                    | (cells[:, 1] == cells[:, 2]))
        if repeated.any():
            raise MeshError(f"cell {cells[np.argmax(repeated)].tolist()} has "
                            f"repeated vertices")

        areas = _signed_areas(vertices, cells)
        if np.any(areas <= 0):
            bad = int(np.argmin(areas))
            raise MeshError(
                f"cell {bad} is not counterclockwise (signed area {areas[bad]:g})"
            )

        used = np.zeros(len(vertices), dtype=bool)
        used[cells.ravel()] = True
        if not used.all():
            raise MeshError(f"dangling vertex ids: {np.flatnonzero(~used).tolist()}")

        edges, cell_edges = _derive_edges(cells)
        edge_cells = _grouped(cell_edges.ravel(),
                              np.repeat(np.arange(len(cells)), 3), len(edges))

        markers = dict(boundary_edge_markers or {})
        boundary = frozenset(  # edges of one cell
            np.flatnonzero(np.diff(edge_cells[0]) == 1).tolist())
        for eid in markers:
            if eid not in boundary:
                raise MeshError(f"marker assigned to non-boundary edge {eid}")

        if (parent is None) != (parent_cell is None):
            raise MeshError("parent and parent_cell must be given together")
        if parent_cell is not None:
            parent_cell = np.ascontiguousarray(parent_cell, dtype=np.int64)
            if parent_cell.shape != (len(cells),):
                raise MeshError("parent_cell must have one entry per cell")

        self.vertices = vertices
        self.cells = cells
        self.refinement_kind = None
        self.edges = edges
        self.cell_edges = cell_edges
        self.boundary_edge_markers = markers
        self.parent = parent
        self.parent_cell = parent_cell
        self._edge_cells = edge_cells
        self._boundary_edges = boundary
        self._vertex_edges = _grouped(edges.ravel(),
                                      np.repeat(np.arange(len(edges)), 2),
                                      len(vertices))
        self._vertex_cells = _grouped(cells.ravel(),
                                      np.repeat(np.arange(len(cells)), 3),
                                      len(vertices))
        for arr in (self.vertices, self.cells, self.edges, self.cell_edges):
            arr.flags.writeable = False
        if parent_cell is not None:
            self.parent_cell.flags.writeable = False

    # -- basic counts ------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def boundary_edges(self):
        """Ids of edges incident to exactly one cell."""
        return self._boundary_edges

    def edge_id(self, a, b):
        """Edge id of the (unordered) vertex pair, or raise KeyError."""
        e = int(_edge_ids(self.edges, a, b))
        if e == self.num_edges or self.edges[e].tolist() != sorted((a, b)):
            raise KeyError((min(a, b), max(a, b)))
        return e

    def cells_of_edge(self, e):
        offsets, cells = self._edge_cells
        return tuple(cells[offsets[e]:offsets[e + 1]].tolist())

    def signed_areas(self):
        return _signed_areas(self.vertices, self.cells)

    def total_area(self):
        return float(self.signed_areas().sum())


def _signed_areas(vertices, cells):
    p0 = vertices[cells[:, 0]]
    p1 = vertices[cells[:, 1]]
    p2 = vertices[cells[:, 2]]
    return 0.5 * (
        (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
        - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
    )


def _derive_edges(cells):
    """Deduplicated edge table in lexicographic (sorted-pair) order, and the
    edge id of every local edge of every cell."""
    pairs = np.sort(cells[:, LOCAL_EDGES], axis=2).reshape(-1, 2)
    n = int(cells.max()) + 1 if cells.size else 1
    keys, cell_edges = np.unique(pairs[:, 0] * n + pairs[:, 1],
                                 return_inverse=True)
    edges = np.stack(np.divmod(keys, n), axis=1)
    return edges, cell_edges.reshape(len(cells), 3)


def _grouped(owners, members, n):
    """(offsets, members sorted by owner then value): the members of owner
    i are members[offsets[i]:offsets[i + 1]]."""
    order = np.lexsort((members, owners))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owners,
                                                         minlength=n))])
    return offsets, members[order]


def _edge_ids(edges, a, b):
    """Ids of the edges {a, b} in a lexicographically sorted edge table."""
    n = int(edges.max()) + 1
    keys = edges[:, 0] * n + edges[:, 1]
    return np.searchsorted(keys, np.minimum(a, b) * n + np.maximum(a, b))


# -- constructors ----------------------------------------------------------

BOTTOM, RIGHT, TOP, LEFT = 1, 2, 3, 4


def generate_structured_grid(n, domain=((0.0, 0.0), (1.0, 1.0))):
    """Uniform n-by-n grid of squares, each split by its lower-left diagonal.

    Boundary edges are marked by side: bottom=1, right=2, top=3, left=4.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    (x0, y0), (x1, y1) = domain
    xs = np.linspace(x0, x1, n + 1)
    ys = np.linspace(y0, y1, n + 1)
    X, Y = np.meshgrid(xs, ys)
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(ix, iy):
        return iy * (n + 1) + ix

    cells = []
    for iy in range(n):
        for ix in range(n):
            ll, lr = vid(ix, iy), vid(ix + 1, iy)
            ul, ur = vid(ix, iy + 1), vid(ix + 1, iy + 1)
            cells.append((ll, lr, ur))
            cells.append((ll, ur, ul))
    cells = np.array(cells, dtype=np.int64)

    markers = {}
    mesh = Mesh(vertices, cells)
    for e in mesh.boundary_edges:
        a, b = mesh.edges[e]
        pa, pb = vertices[a], vertices[b]
        if pa[1] == y0 and pb[1] == y0:
            markers[e] = BOTTOM
        elif pa[0] == x1 and pb[0] == x1:
            markers[e] = RIGHT
        elif pa[1] == y1 and pb[1] == y1:
            markers[e] = TOP
        elif pa[0] == x0 and pb[0] == x0:
            markers[e] = LEFT
        else:  # pragma: no cover - structured grid always matches a side
            raise MeshError("boundary edge not on a domain side")
    return Mesh(vertices, cells, markers)


def _child_mesh(parent, vertices, cells, kind, marked_pairs):
    """The refinement of `parent` with the given cells, built once; each
    parent boundary marker goes to the child edges listed for it in
    `marked_pairs` ((a, b) vertex-id arrays, one column per marked parent
    edge, in marker order)."""
    per_parent = len(cells) // parent.num_cells
    child = Mesh(vertices, cells, parent=parent,
                 parent_cell=np.repeat(np.arange(parent.num_cells,
                                                 dtype=np.int64), per_parent))
    a, b = marked_pairs
    ids = _edge_ids(child.edges, a, b)
    marks = np.array(list(parent.boundary_edge_markers.values()))
    # markers only ever land on boundary edges, which Mesh would check
    child.boundary_edge_markers = dict(
        zip(ids.T.ravel().tolist(), np.repeat(marks, len(ids)).tolist()))
    child.refinement_kind = kind
    return child


def refine_uniform(mesh):
    """Quadrisect every cell through its edge midpoints.

    Parent vertices keep their ids and exact coordinates; the midpoint of
    edge e becomes vertex V + e. Boundary markers are inherited by the two
    child edges of each marked parent edge.
    """
    V = mesh.num_vertices
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])
    a, b, c = mesh.cells.T
    mab, mac, mbc = (V + mesh.cell_edges).T
    # children 4t .. 4t + 3 of cell t, row by row
    cells = np.stack([a, mab, mac, b, mbc, mab, c, mac, mbc, mab, mbc, mac],
                     axis=1).reshape(-1, 3)
    marked = np.array(list(mesh.boundary_edge_markers), dtype=np.int64)
    ea, eb = mesh.edges[marked].T
    m = V + marked
    return _child_mesh(mesh, vertices, cells, "uniform",
                       (np.stack([ea, m]), np.stack([m, eb])))


def refine_barycentric(mesh):
    """Alfeld split: connect each cell's vertices to its barycenter.

    Boundary edges are untouched, so their markers carry over unchanged
    (edge ids are renumbered in the child).
    """
    V = mesh.num_vertices
    bary = mesh.vertices[mesh.cells].mean(axis=1)
    vertices = np.vstack([mesh.vertices, bary])
    a, b, c = mesh.cells.T
    z = V + np.arange(mesh.num_cells, dtype=np.int64)
    cells = np.stack([a, b, z, b, c, z, c, a, z], axis=1).reshape(-1, 3)
    marked = np.array(list(mesh.boundary_edge_markers), dtype=np.int64)
    return _child_mesh(mesh, vertices, cells, "barycentric",
                       mesh.edges[marked].T[:, None])


# -- topology queries ------------------------------------------------------

def vertex_star(mesh, v):
    """The vertex itself plus every incident edge and cell."""
    if not 0 <= v < mesh.num_vertices:
        raise MeshError(f"invalid vertex id {v}")
    (edge_offsets, edges), (cell_offsets, cells) = (mesh._vertex_edges,
                                                    mesh._vertex_cells)
    return EntitySet(
        vertices=np.array([v], dtype=np.int64),
        edges=edges[edge_offsets[v]:edge_offsets[v + 1]],
        cells=cells[cell_offsets[v]:cell_offsets[v + 1]],
    )


def closure(mesh, s):
    """Add every vertex and edge of the cells in s, and every vertex of its
    edges. Idempotent."""
    vertices = set(int(v) for v in s.vertices)
    edges = set(int(e) for e in s.edges)
    cells = set(int(c) for c in s.cells)
    for c in cells:
        vertices.update(int(v) for v in mesh.cells[c])
        edges.update(int(e) for e in mesh.cell_edges[c])
    for e in edges:
        vertices.update(int(v) for v in mesh.edges[e])
    return EntitySet(
        vertices=np.array(sorted(vertices), dtype=np.int64),
        edges=np.array(sorted(edges), dtype=np.int64),
        cells=np.array(sorted(cells), dtype=np.int64),
    )


# -- text format -----------------------------------------------------------

def save_mesh(mesh, path):
    """Write the mesh in the plain-text format read by :func:`load_mesh`."""
    lines = [f"{mesh.num_vertices} {len(mesh.boundary_edge_markers)} {mesh.num_cells}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for a, b, c in mesh.cells:
        lines.append(f"{a} {b} {c}")
    for e in sorted(mesh.boundary_edge_markers):
        a, b = mesh.edges[e]
        lines.append(f"{a} {b} {mesh.boundary_edge_markers[e]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_mesh(path):
    """Read a mesh from the plain-text format.

    Line 1 holds ``V E_b T``; then V vertex lines ``x y``; then T cell lines
    ``v0 v1 v2``; then E_b boundary-edge lines ``v_a v_b marker``. Cells with
    negative orientation are repaired by swapping two vertices (a warning is
    emitted); dangling vertices are rejected.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise MeshError(f"{path}: truncated header")
    it = iter(tokens)
    try:
        V, Eb, T = int(next(it)), int(next(it)), int(next(it))
        vertices = np.array(
            [[float(next(it)), float(next(it))] for _ in range(V)], dtype=np.float64
        )
        cells = np.array(
            [[int(next(it)), int(next(it)), int(next(it))] for _ in range(T)],
            dtype=np.int64,
        )
        bedges = [
            (int(next(it)), int(next(it)), int(next(it))) for _ in range(Eb)
        ]
    except (StopIteration, ValueError) as exc:
        raise MeshError(f"{path}: malformed mesh file") from exc

    flipped = np.flatnonzero(_signed_areas(vertices, cells) < 0)
    if flipped.size:
        warnings.warn(
            f"{path}: repaired orientation of {flipped.size} cell(s)",
            stacklevel=2,
        )
        cells = cells.copy()
        cells[flipped, 1], cells[flipped, 2] = (
            cells[flipped, 2].copy(),
            cells[flipped, 1].copy(),
        )

    mesh = Mesh(vertices, cells)
    markers = {}
    for a, b, marker in bedges:
        markers[mesh.edge_id(a, b)] = marker
    return Mesh(vertices, cells, markers)
