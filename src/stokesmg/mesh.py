"""2D simplicial meshes: construction, refinement, and the text format.

Meshes are immutable after construction (coordinate and connectivity arrays
are marked read-only), so they can be shared freely between solver levels.
Edges are derived from cells: each edge is a sorted pair of vertex ids and
edge ids follow the lexicographic order of those pairs, which keeps DoF
numbering stable across runs. The constructors attach boundary markers as
(a, b, marker) vertex-pair arrays, checked to name boundary edges.
"""

from __future__ import annotations

import warnings

import numpy as np

from .reference import LOCAL_EDGES

__all__ = [
    "Mesh",
    "MeshError",
    "generate_structured_grid",
    "refine_uniform",
    "refine_barycentric",
    "load_mesh",
    "save_mesh",
]


class MeshError(ValueError):
    """Invalid mesh topology or geometry."""


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
        _check_finite(vertices)
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
        boundary = np.flatnonzero(  # edges of one cell
            np.bincount(cell_edges.ravel(), minlength=len(edges)) == 1)

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
        self.parent = parent
        self.parent_cell = parent_cell
        self._boundary_edges = frozenset(boundary.tolist())
        markers = dict(boundary_edge_markers or {})
        _set_markers(self, np.fromiter(markers, np.int64, len(markers)),
                     list(markers.values()))
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

    def signed_areas(self):
        return _signed_areas(self.vertices, self.cells)

    def total_area(self):
        return float(self.signed_areas().sum())


def _check_finite(vertices, where=""):
    """Reject NaN and infinite coordinates, on which every signed-area test
    of the orientation checks is false."""
    finite = np.isfinite(vertices).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise MeshError(f"{where}vertex {bad} has non-finite coordinates "
                        f"{vertices[bad].tolist()}")


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


def _edge_ids(mesh, pairs):
    """Positions of the sorted vertex pairs (P, 2) in the mesh's
    lexicographic edge table; a pair that is no edge gets the position
    where it would be inserted."""
    n = mesh.num_vertices
    keys = mesh.edges[:, 0] * n + mesh.edges[:, 1]
    return np.searchsorted(keys, pairs[:, 0] * n + pairs[:, 1])


def _set_markers(mesh, ids, marks, where=""):
    """Give edge ids[i] the boundary marker marks[i]; every id must be a
    boundary edge of the mesh."""
    interior = np.isin(ids, list(mesh.boundary_edges), invert=True)
    if interior.any():
        raise MeshError(f"{where}marker assigned to non-boundary edge "
                        f"{ids[np.argmax(interior)]}")
    mesh.boundary_edge_markers = dict(zip(ids.tolist(), marks))


def _attach_markers(mesh, a, b, marks, where=""):
    """Give the edge {a[i], b[i]} the boundary marker marks[i] (arrays of
    one shape); every pair must be a boundary edge of the mesh, named once."""
    pairs = np.sort(np.stack([np.ravel(a), np.ravel(b)], axis=1), axis=1)
    ids = _edge_ids(mesh, pairs)
    missing = (np.vstack([mesh.edges, [[-1, -1]]])[ids] != pairs).any(axis=1)
    if missing.any():
        p, q = pairs[np.argmax(missing)]
        raise MeshError(f"{where}vertex pair ({p}, {q}) is not an edge of "
                        f"the mesh")
    _, first, counts = np.unique(ids, return_index=True, return_counts=True)
    if (counts > 1).any():
        p, q = pairs[first[np.argmax(counts > 1)]]
        raise MeshError(f"{where}edge ({p}, {q}) is marked more than once")
    _set_markers(mesh, ids, np.ravel(marks).tolist(), where)


def _marked_slots(mesh, markers=None):
    """(cells, local edges): the (cell, local edge) slot of every boundary
    edge whose marker is in `markers` (any marker if None), in cell order."""
    ids = np.fromiter(mesh.boundary_edge_markers, np.int64,
                      len(mesh.boundary_edge_markers))
    if markers is not None:
        marks = np.array(list(mesh.boundary_edge_markers.values()))
        ids = ids[np.isin(marks, list(markers))]
    return np.divmod(np.flatnonzero(np.isin(mesh.cell_edges, ids)), 3)


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
    # vertex (ix, iy) is iy * (n + 1) + ix; squares row by row
    ll = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    lr, ul, ur = ll + 1, ll + n + 1, ll + n + 2
    cells = np.stack([ll, lr, ur, ll, ur, ul], axis=1).reshape(-1, 3)
    mesh = Mesh(vertices, cells)
    # bottom, right, top and left sides, n edges (a, b) each
    i = np.arange(n)
    a = np.concatenate([i, i * (n + 1) + n, n * (n + 1) + i, i * (n + 1)])
    b = a + np.repeat([1, n + 1, 1, n + 1], n)
    _attach_markers(mesh, a, b, np.repeat([BOTTOM, RIGHT, TOP, LEFT], n))
    return mesh


def _child_mesh(parent, vertices, cells, kind, a, b):
    """The refinement of `parent` with the given cells; the child edges
    {a[:, j], b[:, j]} inherit the marker of the j-th marked parent edge
    (in the order of `parent.boundary_edge_markers`)."""
    per_parent = len(cells) // parent.num_cells
    child = Mesh(vertices, cells, parent=parent,
                 parent_cell=np.repeat(np.arange(parent.num_cells,
                                                 dtype=np.int64), per_parent))
    marks = np.array(list(parent.boundary_edge_markers.values()))
    _attach_markers(child, a, b, np.broadcast_to(marks, a.shape))
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
                       np.stack([ea, m]), np.stack([m, eb]))


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
    ea, eb = mesh.edges[marked].T
    return _child_mesh(mesh, vertices, cells, "barycentric",
                       ea[None], eb[None])


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
    ``v0 v1 v2``; then E_b lines ``v_a v_b marker``, one per boundary edge
    (E_b = 0: an unmarked mesh). Negatively oriented cells are repaired by
    swapping two vertices, with a warning; negative counts, a mesh with no
    cells, non-finite coordinates, dangling vertices and tokens after the
    boundary lines are rejected.
    """
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise MeshError(f"{path}: truncated header")
    malformed = f"{path}: malformed mesh file"
    try:
        V, Eb, T = (int(t) for t in tokens[:3])
    except ValueError as exc:
        raise MeshError(malformed) from exc
    if min(V, Eb, T) < 0:
        raise MeshError(f"{path}: negative count in header '{V} {Eb} {T}'")
    if T == 0:
        raise MeshError(f"{path}: mesh has no cells")
    cells_at = 3 + 2 * V
    edges_at = cells_at + 3 * T
    end = edges_at + 3 * Eb
    try:
        vertices = np.array(tokens[3:cells_at], np.float64).reshape(V, 2)
        cells = np.array(tokens[cells_at:edges_at], np.int64).reshape(T, 3)
        bedges = np.array(tokens[edges_at:end], np.int64).reshape(Eb, 3)
    except ValueError as exc:
        raise MeshError(malformed) from exc
    if len(tokens) > end:
        raise MeshError(f"{path}: {len(tokens) - end} trailing token(s) "
                        f"after the boundary lines")
    _check_finite(vertices, where=f"{path}: ")

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
    _attach_markers(mesh, *bedges.T, where=f"{path}: ")
    unmarked = mesh.boundary_edges - mesh.boundary_edge_markers.keys()
    if Eb and unmarked:
        p, q = mesh.edges[min(unmarked)]
        raise MeshError(f"{path}: boundary edge ({p}, {q}) has no marker line")
    return mesh
