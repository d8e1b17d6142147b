"""Vertex-patch additive Schwarz relaxation.

One sweep applies

    z = sum_i I(i)^T W_i inv(K(i)) I(i) r

with one patch per mesh vertex. Vanka patches (monolithic relaxation) take
velocity DoFs on the closure of the vertex star and pressure DoFs on the
star itself; star patches (the scalar Laplacian relaxation inside the
block preconditioner) take the DoFs on the star only. W_i is the inverse
patch-multiplicity of each DoF, so the weights of a DoF across patches sum
to one.

All patches of a level come from one pass over (cell, local vertex, local
node) triples: a static per-element mask says which nodes lie in the star
of each local vertex, and one sort of the (vertex, DoF) pairs groups them
into sorted index lists. One ranking of the level's DoFs gives each list
its canonical order: by field, component and the node's offset from the
vertex, so that patches that are translates of each other list their
DoFs alike.

The operator must be symmetric, as every operator assembled here is:
each patch matrix is inverted through its Bunch-Kaufman LDL^T
factorization (LAPACK dsytrf + dsytri), half the work of LU + inversion,
and a K that is not symmetric, in its stored pattern or its values, is
rejected with a ValueError.

Patches of one size whose weights W_i are identical and whose matrices
agree entrywise within SHARE_TOL max|K|, in canonical order, share one
inverse, so each distinct weighted matrix is inverted and stored once: on
a uniformly refined mesh most vertex patches are translates of each other
(the SV k4 finest level of ldc-sv4-phmg keeps 35 inverses for 801
patches, and the count no longer grows with refinement).
Patch matrices are gathered, compared, inverted and stored in canonical
order. Factoring stores the smoother as `blocks`, a flat list of `(I, X)`
pairs in order of patch size m, then member count k: `I` (q, m, k) holds
the canonical-order index lists of q classes of k patches and `X`
(q, m, m) their shared weighted inverses W_i inv(K(i)), split evenly into
chunks of at most about CHUNK_BYTES of `X`. With k = 1 everywhere this is
the layout of one inverse per patch. A sweep acts on an (n, c) block of c
columns (c = 1 for a vector): one product X @ r[I].reshape(q, m, k c) per
chunk serves all members and columns, and one scatter-add per column sums
the chunk contributions in chunk order, through an index built once at
factoring, of which every `I` is a view, with no per-patch Python work.

Chunks are the unit of parallel work. A level whose stored inverses, the
X of all its chunks, fill at least CHUNK_BYTES inverts its chunks, and
forms their products in a sweep, on a shared pool of threads, one per CPU
the process may run on (LAPACK and NumPy's products release the
interpreter lock); the sum in chunk order makes a sweep bitwise the same
for any number of workers. Smaller levels, where a thread handoff costs
more than it saves, run on the calling thread.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.linalg.lapack import dsytrf, dsytrf_lwork, dsytri

from .linalg import SingularMatrixError
from .reference import LOCAL_EDGES

__all__ = [
    "PatchSet",
    "build_vanka_star_patches",
    "build_star_patches",
    "factor_patches",
    "asm_apply",
]

#: Largest |K - K^T| entry, relative to max|K|, that `factor_patches`
#: accepts; LDL^T reads only one triangle of each patch matrix.
SYMMETRY_TOL = 1e-12

#: Largest entrywise difference, relative to max|K|, between the matrices
#: of two patches with equal weights that share one inverse, in canonical
#: order. It sits below the roundoff of the LDL^T inverse: on the SV k4
#: finest level (ldc-sv4-phmg) members differ from their representative by
#: at most 2.7e-15 max|K|, and a shared inverse is within 4.5e-15
#: (max-entry relative) of the dense inverse of a member's own matrix,
#: against 4.2e-15 for the member's own LDL^T inverse. 1e-13 merges the
#: same patches there; 1e-15 keeps 70 of the 801 inverses instead of 35.
SHARE_TOL = 1e-14

#: Grid spacing, relative to the mesh's largest extent, to which
#: `_patch_set` rounds node and cell-centroid positions for the canonical
#: DoF order. It sits far below the node spacing (at least 8.5e-4 of the
#: extent on the benchmark and bfs2d k4/k7 meshes) and far above the
#: roundoff of the coordinates (about 1e-16), so translated patches round
#: alike unless a position falls on a half-grid point; such a flip, like a
#: tie, only loses sharing, since every merge is still checked entrywise.
KEY_GRID = 1e-9

#: Chunk bounds of the patch-matrix gather, which the class search works
#: through one chunk at a time: patch rows per chunk (one patch where m is
#: larger), and entries of the int32 (patch, DoF) -> local column table.
#: A chunk holds its matrices, at most 8 m GATHER_ROWS bytes, and its row
#: gather, about 32 bytes per stored entry, so the search holds about
#: GATHER_ROWS (8 m + 32 nnz / n) bytes beyond its class matrices: less
#: than the symmetry check's transposed K (12 nnz bytes) for GATHER_ROWS
#: below about 2560 on ldc-th4-phmg's finest level (m up to 141, 59 entries
#: per row) and 5500 on ldc-sv4-phmg's (362, 52). At 1536 it holds 0.57
#: and 0.28 of K there (0.80 and 0.36 at 2048, no faster: 63 and 270 ms
#: against 63 and 275, interleaved medians of 20, 2-core host, BLAS at 1
#: thread). The table, at most 4 GATHER_TABLE bytes, binds only where n
#: exceeds GATHER_TABLE m / GATHER_ROWS, on no benchmark level.
GATHER_ROWS = 1536
GATHER_TABLE = 1 << 20

#: Bytes of patch inverses per chunk, the unit of parallel work: 13 chunks
#: on the finest SV k4 level (12 MB of shared inverses), few enough that
#: the per-chunk overhead stays small. Also the pool boundary: a level
#: that stores at least this much runs on the pool (see `_run`), so
#: changing it also moves levels between the pool and the calling thread.
#: A pooled sweep (2-core host, BLAS at 1 thread, interleaved medians of
#: 40) took 0.52-0.70 of the serial time on the bfs sv4 and th7 r1 finest
#: levels (290-355 MB stored) and 1.29-1.89 of it on the TH k4 finest
#: (ldc-th4-phmg, 1.4 MB), which stays serial. The cut at one chunk is not
#: shown to pay: levels of 11-38 MB lost or swung on the pool. In whole
#: solves against a copy without the pool (medians of 6 alternating
#: pairs), ldc-sv4-phmg, whose only pooled level is the SV k4 finest (11.6
#: MB), took 1.12 of the serial time, and phmg-direct on bfs sv4 and th7
#: r1 took 0.72-0.75 of it. Moving the cut waits for bfs workloads in the
#: benchmark.
CHUNK_BYTES = 8 << 20

_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    """Drop the pool in a forked child, where its threads do not exist."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    """The shared thread pool, started on first use with one worker per CPU
    the process may run on; None when there is only one."""
    global _pool
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        workers = os.cpu_count() or 1
    if workers < 2:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(workers,
                                       thread_name_prefix="stokesmg")
        return _pool


def _run(fn, chunks):
    """[fn(chunk) for chunk in chunks], on the shared pool when the level
    stores at least CHUNK_BYTES of inverses.

    Every chunk is a tuple whose last element is its X (q, m, m): the
    (representatives, I, X) of `_chunks` when factoring, the (I, X) of
    `blocks` in a sweep. What the level stores is the sum of their bytes.
    Results keep the order of `chunks`. A failing call does not stop the
    others: every call finishes, then the first failure in chunk order is
    raised, as a loop would raise it.
    """
    stored = sum(chunk[-1].nbytes for chunk in chunks)
    pool = _executor() if stored >= CHUNK_BYTES and len(chunks) > 1 else None
    if pool is None:
        return [fn(chunk) for chunk in chunks]
    futures = [pool.submit(fn, chunk) for chunk in chunks]
    wait(futures)
    return [future.result() for future in futures]


class PatchSet:
    """Per-vertex sorted DoF index lists and the level's DoF ranking, plus,
    once factored, the shared weighted patch inverses in chunks (`blocks`)
    and the sweep's scatter index (`scatter`).

    `rank`, a permutation of range(n), sorts a patch's DoFs into canonical
    order (see `_patch_set`), in which `factor_patches` compares, inverts
    and stores patch matrices. The builders set it; None, as in a PatchSet
    built by hand, means the identity ranking, the sorted order.

    Each block is an (I, X) pair for q classes of patches with m DoFs and
    k members each: I (q, m, k), a view of `scatter` in chunk order, holds
    the members' index lists in canonical order, one member per column, and
    X (q, m, m) the weighted inverse W inv(K(i)) they share, in that order.
    """

    def __init__(self, n, vertices, indices, blocks=None, rank=None):
        self.n = n
        self.vertices = vertices
        self.indices = indices
        self.rank = np.arange(n) if rank is None else np.asarray(rank)
        self.blocks = self.scatter = None
        if blocks is not None:
            self.scatter = np.concatenate(
                [np.empty(0, dtype=np.intp)] + [I.ravel() for I, _ in blocks])
            views = np.split(self.scatter,
                             np.cumsum([I.size for I, _ in blocks])[:-1])
            self.blocks = [(view.reshape(I.shape), X)
                           for view, (I, X) in zip(views, blocks)]

    def __len__(self):
        return len(self.indices)

    def _factored(self):
        if self.blocks is None:
            raise ValueError("patches must be factored first")
        return self.blocks

    @property
    def inverses(self):
        """Number of distinct patch inverses stored."""
        return sum(len(X) for _, X in self._factored())

    @property
    def nbytes(self):
        """Bytes that factoring stores for the sweep: every X and the
        scatter index, of which every I is a view. The builders' `indices`
        and `rank`, also kept, are not counted (1.4 MB beside 13.2 MB on
        ldc-sv4-phmg's finest)."""
        return (sum(X.nbytes for _, X in self._factored())
                + self.scatter.nbytes)


def _star_nodes(element, closed):
    """(3, n) mask: element node j lies in the vertex star of local vertex i.

    The open star holds the vertex, its two incident edges and the cell
    interior; the closed star (`closed`) holds every node of the cell, as
    does any discontinuous element, whose nodes all belong to the cell.
    """
    mask = np.ones((3, element.num_nodes), dtype=bool)
    if closed:
        return mask
    for node, (kind, local) in enumerate(element.node_entity):
        if kind == "vertex":
            mask[:, node] = np.arange(3) == local
        elif kind == "edge":
            mask[:, node] = np.isin(np.arange(3), LOCAL_EDGES[local])
    return mask


def _vertex_dof_pairs(mesh, space, closed, offset=0):
    """(vertex, DoF) for every DoF in the star of every mesh vertex, from
    cells x local vertex x local node; a DoF repeats once per cell it
    shares with the vertex."""
    mask = _star_nodes(space.element,
                       closed or space.continuity == "discontinuous")
    local, node = np.nonzero(mask)
    dofs = space.expand_components(space.cell_scalar_dofs[:, node])
    vertices = np.repeat(mesh.cells[:, local], space.components, axis=1)
    return vertices.ravel(), offset + dofs.ravel()


def _patch_set(mesh, fields, dirichlet_dofs):
    """One sorted, duplicate-free index list per vertex, and the DoF rank
    of their canonical order, over the DoFs of `fields`, (space, closed)
    pairs numbered one after another, without `dirichlet_dofs`; vertices
    left empty get no patch.

    The rank sorts a patch's DoFs by field, component, the node's offset
    from the patch vertex and, in a discontinuous space, the offset of the
    node's cell centroid (nodes of several cells share a point), with every
    position rounded to a grid of KEY_GRID times the mesh's extent; ties
    keep DoF order. Patches that are translates of each other list their
    DoFs alike in this order.
    """
    starts = np.cumsum([0] + [space.num_dofs for space, _ in fields])
    n = int(starts[-1])
    pairs = [_vertex_dof_pairs(mesh, space, closed, start)
             for (space, closed), start in zip(fields, starts)]
    vertices = np.concatenate([v for v, _ in pairs])
    dofs = np.concatenate([d for _, d in pairs])
    excluded = np.zeros(n, dtype=bool)
    excluded[np.asarray(dirichlet_dofs, dtype=np.int64)] = True
    keep = ~excluded[dofs]
    keys = np.sort(vertices[keep] * n + dofs[keep])
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    vertices, dofs = np.divmod(keys, n)

    # Within one patch, rounded positions sort as their offsets from the
    # vertex, so every DoF is ranked by its key once.
    corner = mesh.vertices.min(axis=0)
    grid = KEY_GRID * np.ptp(mesh.vertices, axis=0).max()
    rank = np.empty(n, dtype=np.int64)
    for (space, _), start in zip(fields, starts):
        points = space.dof_coords
        if space.continuity == "discontinuous":  # numbered cell by cell
            points = np.hstack([points, np.repeat(
                mesh.vertices[mesh.cells].mean(axis=1),
                space.element.num_nodes, axis=0)])
        rounded = np.rint((points - np.tile(corner, points.shape[1] // 2))
                          / grid)
        node = np.empty(space.num_scalar_dofs, dtype=np.int64)
        node[np.lexsort(rounded.T[::-1])] = np.arange(len(node))
        # component c of node g is DoF start + components g + c
        rank[start:start + space.num_dofs] = (
            start + node[:, None]
            + len(node) * np.arange(space.components)).ravel()

    owners, first = np.unique(vertices, return_index=True)
    indices = np.split(dofs, first[1:]) if len(dofs) else []
    return PatchSet(n, owners.tolist(), indices, rank=rank)


def build_vanka_star_patches(mesh, velocity_space, pressure_space,
                             dirichlet_dofs=()):
    """Monolithic patches: velocity on the closure of star(v), pressure on
    star(v).

    Indices are monolithic (velocity block first). `dirichlet_dofs` are
    monolithic indices to exclude; empty patches are dropped.
    """
    return _patch_set(mesh, [(velocity_space, True), (pressure_space, False)],
                      dirichlet_dofs)


def build_star_patches(mesh, velocity_space, dirichlet_dofs=()):
    """Velocity-only patches on the vertex star (no closure ring)."""
    return _patch_set(mesh, [(velocity_space, False)], dirichlet_dofs)


def _ldl_invert(M, lwork):
    """Overwrite the lower triangle of the symmetric, Fortran-ordered M
    with that of its inverse, from the Bunch-Kaufman LDL^T factors (LAPACK
    dsytrf, with workspace `lwork`, + dsytri).

    Raises SingularMatrixError when a 1x1 or 2x2 block of D has an
    eigenvalue of magnitude at most 1e-14 max|M|.
    """
    threshold = 1e-14 * max(np.abs(M).max(), 1e-300)
    ldl, piv, _ = dsytrf(M, lower=1, lwork=lwork, overwrite_a=1)
    d = np.diagonal(ldl)
    pairs = np.flatnonzero(piv < 0)[::2]
    a, c, b = d[pairs], d[pairs + 1], ldl[pairs + 1, pairs]
    radius = np.hypot(0.5 * (a - c), b)
    # the smaller eigenvalue magnitude of each 2x2 block, |det| / |larger|
    small = np.abs(a * c - b * b) / np.maximum(np.abs(0.5 * (a + c)) + radius,
                                               1e-300)
    pivots = np.concatenate([np.abs(d[piv > 0]), small])
    if pivots.min() <= threshold:
        position = np.concatenate([np.flatnonzero(piv > 0), pairs])
        raise SingularMatrixError(
            f"singular pivot {pivots.min():.3e} at position "
            f"{position[np.argmin(pivots)]}"
        )
    inv, _ = dsytri(ldl, piv, lower=1, overwrite_a=1)
    if inv is not M:  # the wrapper worked on a copy
        M[...] = inv


def _gather(K, I):
    """Dense patch matrices K[idx][:, idx] for the rows idx of I, in order,
    as (q, m, m) pieces of the q consecutive rows of one chunk.

    Works through chunks of patches (see GATHER_ROWS): one row gather from
    the CSR operator, then each entry's column is looked up in a flat
    (patch, DoF) -> local column table, so no per-patch sparse indexing
    is needed. Every piece is a view of one buffer that the next piece
    overwrites, so a caller keeps what it needs of a piece by copying it.
    """
    p, m = I.shape
    n = K.shape[0]
    chunk = max(1, min(p, GATHER_ROWS // m, GATHER_TABLE // n))
    local = np.full(chunk * n, -1, dtype=np.int32)
    # the last entry of flat takes the row entries outside their patch
    flat = np.zeros(chunk * m * m + 1)
    X = flat[:-1].reshape(chunk, m, m)
    for start in range(0, p, chunk):
        idx = I[start:start + chunk].ravel()
        q = len(idx) // m
        # each row's patch table in local: (patch, DoF) -> local column
        table = np.repeat(np.arange(0, q * n, n, dtype=np.int32), m)
        local[table + idx] = np.tile(np.arange(m, dtype=np.int32), q)
        rows = K[idx]
        counts = np.diff(rows.indptr)
        cols = local[np.repeat(table, counts) + rows.indices]
        local[table + idx] = -1
        # each entry's flat position in X[:q]: row * m + col
        position = np.repeat(np.arange(0, q * m * m, m), counts)
        position += cols
        position[cols < 0] = len(flat) - 1
        flat[position] = rows.data
        del rows, counts, cols, position  # the caller's work holds only X
        yield X[:q]
        X[:q] = 0.0


def factor_patches(K, patches):
    """Invert every distinct weighted patch submatrix of K once.

    K must be symmetric: it must store the pattern of K^T, and its values
    must match K^T's to SYMMETRY_TOL relative to its largest entry;
    otherwise a ValueError is raised. The check compares K's stored values
    with those of K^T's CSR form in place, so it holds one transposed copy
    of K at a time; the class search that follows holds one gather chunk
    beyond the matrices it keeps (see GATHER_ROWS). Returns a new PatchSet
    holding `blocks`, where patches that repeat a matrix and its weights
    share one inverse (see `_chunks`). A singular patch matrix raises an
    error naming the offending vertex, the first in (size, patch) order (a
    sign the decomposition kept constrained DoFs it should have excluded).
    """
    K = K.tocsr()
    K.sum_duplicates()
    if K.shape != (patches.n, patches.n):
        raise ValueError(
            f"operator shape {K.shape} does not match patch dimension "
            f"{patches.n}"
        )
    scale = np.abs(K.data).max(initial=0.0)
    # K^T's CSR form stores K's pattern transposed, sorted like K's
    KT = K.T.tocsr()
    if not (np.array_equal(K.indptr, KT.indptr)
            and np.array_equal(K.indices, KT.indices)):
        raise ValueError("patch relaxation needs a symmetric operator; "
                         "K and K^T store different patterns")
    KT.data -= K.data
    asymmetry = np.abs(KT.data, out=KT.data).max(initial=0.0)
    del KT
    if asymmetry > SYMMETRY_TOL * scale:
        raise ValueError("patch relaxation needs a symmetric operator; "
                         f"K - K^T reaches {asymmetry:.3e}")
    multiplicity = np.bincount(
        np.concatenate([np.empty(0, dtype=np.intp), *patches.indices]),
        minlength=patches.n,
    )
    sizes = np.array([len(idx) for idx in patches.indices], dtype=np.intp)
    failures = []  # (size, patch, error), appended from pool threads

    def invert(chunk):
        representatives, I, X = chunk
        m = X.shape[1]
        lower = np.tri(m, k=-1, dtype=bool)
        lwork = max(int(dsytrf_lwork(m, lower=1)[0]), 1)  # blocked dsytrf
        for i, x in zip(representatives, X):
            try:
                # x.T is the Fortran-ordered view of the slot: its lower
                # triangle, inverted in place, is the upper one of x
                _ldl_invert(x.T, lwork)
            except SingularMatrixError as exc:
                failures.append((sizes[i], i, exc))
                break
            np.copyto(x, x.T, where=lower)
        X *= (1.0 / multiplicity[I[:, :, 0]])[:, :, None]
        return I, X

    blocks = _run(invert, _chunks(K, patches, sizes, multiplicity, scale))
    if failures:
        # chunks hold their representatives in patch order, so the first
        # failure of each chunk is that chunk's earliest
        _, i, exc = min(failures, key=lambda failure: failure[:2])
        raise SingularMatrixError(
            f"singular patch matrix at vertex {patches.vertices[i]}: {exc}"
        ) from exc
    return PatchSet(patches.n, list(patches.vertices),
                    list(patches.indices), blocks, patches.rank)


def _chunks(K, patches, sizes, multiplicity, scale):
    """(representative patch numbers, I, X) of every chunk, in order of
    patch size m, then member count k, then representative.

    The classes of one (m, k) (see `_classes`) are split evenly into the
    fewest chunks of at most CHUNK_BYTES of X (one class per chunk where a
    single X is larger): X (q, m, m) holds the representatives' matrices
    and I (q, m, k) the members' index lists, column j the j-th member in
    patch order, both in canonical DoF order (one argsort of the ranks, all
    distinct, per size). Each matrix leaves the dict of `_classes` as its
    chunk takes it, so the matrices are held once. X comes last, as in
    `blocks`, because `_run` reads it there.
    """
    chunks = []
    for m in np.unique(sizes):
        members = np.flatnonzero(sizes == m)
        I = np.stack([patches.indices[i] for i in members])
        I = np.take_along_axis(I, np.argsort(patches.rank[I], axis=1), axis=1)
        classes, matrices = _classes(K, I, multiplicity[I], scale)
        count = np.array(list(map(len, classes)))
        for k in np.unique(count):
            alike = np.flatnonzero(count == k)
            pieces = min(-(-len(alike) * 8 * m * m // CHUNK_BYTES), len(alike))
            for part in np.array_split(alike, pieces):
                held = np.array([classes[c] for c in part])
                chunks.append((members[held[:, 0]],
                               I[held].transpose(0, 2, 1),
                               np.stack([matrices.pop(c) for c in part])))
    return chunks


def _fingerprint_vectors(m):
    """The fixed g, h > 0 of the fingerprint h^T X g of (m, m) matrices."""
    return np.random.default_rng(0).uniform(1.0, 2.0, (2, m))


def _classes(K, I, weights, scale):
    """(members of each class, {class: its matrix}) for the equal-size
    patches with index lists I (p, m) and DoF multiplicities `weights`
    (p, m), both in canonical order, the order of the returned matrices.
    A class lists its members' rows of I in increasing order.

    A patch joins the class of the first earlier patch (its
    representative) with equal weights whose matrix agrees with its own
    entrywise within SHARE_TOL * scale, or starts a class. Candidates come
    from the fingerprint h^T X g (g, h fixed, > 0): two matrices within
    SHARE_TOL * scale have fingerprints within `window`, which also covers
    the roundoff of both products, so the fingerprint never rejects a true
    match, and the entrywise check admits no false one.

    The matrices are gathered in patch order, one `_gather` chunk (at most
    GATHER_ROWS patch rows) at a time, keeping copies of only the
    representatives', which become the stored inverses, so the search
    holds one chunk's piece and row gather beyond them (see GATHER_ROWS).
    Gathering on the pool's workers was faster (SV k4 finest level, one
    inverse per patch: 0.26 s against 0.38 s) but the arrays it left in
    their malloc heaps raised the peak RSS by 20-100 MB.
    """
    p, m = I.shape
    tol = SHARE_TOL * scale
    g, h = _fingerprint_vectors(m)
    # |h^T (A - B) g| <= sum(h) sum(g) max|A - B|, and each product rounds
    # by at most 2 gamma_m sum(h) sum(g) max|A|
    window = h.sum() * g.sum() * (tol + 4 * m * np.finfo(float).eps * scale)
    keys = np.empty(p)
    classes, matrices = [], {}
    j = 0
    for X in _gather(K, I):
        for x, key in zip(X, (X @ g) @ h):
            near = np.flatnonzero(np.abs(keys[:len(classes)] - key) <= window)
            c = next((c for c in near
                      if np.array_equal(weights[classes[c][0]], weights[j])
                      and np.abs(matrices[c] - x).max() <= tol), len(classes))
            if c == len(classes):
                keys[c] = key
                classes.append([])
                matrices[c] = x.copy()
            classes[c].append(j)
            j += 1
    return classes, matrices


def asm_apply(patches, r):
    """One additive Schwarz sweep: z = sum_i I^T W inv(K_i) I r.

    `r` is an (n,) vector or an (n, c) block of c columns, each swept alike
    with the same patch inverses. The sweep works on the (n, c) view of
    `r`, with c = 1 for a vector: one stacked product per chunk serves all
    columns, and one scatter-add per column sums the chunk contributions
    in chunk order through `patches.scatter`.
    """
    blocks = patches._factored()
    if r.shape[:1] != (patches.n,):
        raise ValueError(f"r has shape {r.shape}; the patches need "
                         f"{patches.n} rows")
    if not blocks:
        return np.zeros_like(r)
    R = r.reshape(r.shape[0], -1)
    c = R.shape[1]

    # take: on the TH k4 scalar finest level (c = 2), fancy indexing R[I]
    # took about 200 us against 20 us
    def product(block):
        I, X = block
        q, m, k = I.shape
        return X @ R.take(I, axis=0).reshape(q, m, k * c)

    products = _run(product, blocks)
    Y = np.concatenate([y.ravel() for y in products]).reshape(-1, c)
    z = np.empty(R.shape)
    for j in range(c):
        z[:, j] = np.bincount(patches.scatter, Y[:, j], minlength=len(R))
    return z.reshape(r.shape)
