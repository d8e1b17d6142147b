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
into index lists.

The operator must be symmetric, as every operator assembled here is:
each patch matrix is inverted through its Bunch-Kaufman LDL^T
factorization (LAPACK dsytrf + dsytri), half the work of LU + inversion,
and a nonsymmetric K is rejected with a ValueError. Factoring stores the
smoother as `blocks`, a flat list of `(I, X)` pairs, one per chunk of
equal-size patches, in order of patch size: `I` (p, m) stacks the index
lists of the chunk's p patches of size m and `X` (p, m, m) their weighted
inverses W_i inv(K(i)). Each size group is split evenly into chunks of at
most about CHUNK_BYTES of `X`; the cut depends on the patch sizes alone. A
sweep is one stacked product per chunk and one scatter-add that sums the
chunk contributions in chunk order, through an index built once at
factoring, with no per-patch Python work. A sweep of an (n, c) block of
columns does the same, with c columns per product.

Chunks are the unit of parallel work. A level whose patch inverses hold at
least PARALLEL_BYTES inverts its gathered chunks, and forms their products
in a sweep, on a shared pool of threads, one per CPU the process may run
on (LAPACK and NumPy's products release the interpreter lock); the sum in
chunk order makes a sweep bitwise the same for any number of workers.
Smaller levels, where a thread handoff costs more than it saves, run on
the calling thread.
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

# Chunk bounds of the patch-matrix gather: patch rows per chunk, and entries
# of the int32 (patch, DoF) -> position table.
GATHER_ROWS = 4096
GATHER_TABLE = 1 << 20

#: Bytes of patch inverses per chunk, the unit of parallel work: 44 chunks
#: on the finest SV k4 level (283 MB), enough to balance two or more
#: workers, and few enough that the per-chunk overhead stays small.
CHUNK_BYTES = 8 << 20

#: Levels whose patch inverses hold fewer bytes run on the calling thread. A
#: thread handoff costs about 0.1-0.15 ms; interleaved serial and 2-thread
#: sweeps (medians of 60, 2-core host) ran 1.40-1.64x faster at 270 MB (SV
#: k4 finest level) and 1.43-1.59x at 35 MB (TH k4 finest), but
#: 0.90-1.17x at 9.8 MB (TH k4 two-component velocity Laplacian, finest
#: level) and 0.27-0.82x at 2.5 MB and below.
PARALLEL_BYTES = 16 << 20

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


def _run(fn, items, nbytes):
    """[fn(item) for item in items], on the shared pool when the work spans
    at least PARALLEL_BYTES.

    Results keep the order of `items`. A failing call does not stop the
    others: every call finishes, then the first failure in item order is
    raised, as a loop would raise it.
    """
    pool = _executor() if nbytes >= PARALLEL_BYTES and len(items) > 1 \
        else None
    if pool is None:
        return [fn(item) for item in items]
    futures = [pool.submit(fn, item) for item in items]
    wait(futures)
    return [future.result() for future in futures]


class PatchSet:
    """Per-vertex DoF index lists, plus, once factored, the weighted patch
    inverses in chunks of equal-size patches (`blocks`) and the sweep's
    scatter index (`scatter`), the rows of every `I` in chunk order."""

    def __init__(self, n, vertices, indices, blocks=None):
        self.n = n
        self.vertices = vertices
        self.indices = indices
        self.blocks = blocks
        self.scatter = None if blocks is None else np.concatenate(
            [np.empty(0, dtype=np.intp)] + [I.ravel() for I, _ in blocks])

    def __len__(self):
        return len(self.indices)


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
    cell, local, node = np.nonzero(
        np.broadcast_to(mask, (mesh.num_cells,) + mask.shape))
    dofs = space.expand_components(space.cell_scalar_dofs[cell, node][:, None])
    vertices = np.broadcast_to(mesh.cells[cell, local][:, None], dofs.shape)
    return vertices.ravel(), offset + dofs.ravel()


def _patch_set(n, pairs, dirichlet_dofs):
    """One sorted, duplicate-free index list per vertex from (vertex, DoF)
    pairs, without `dirichlet_dofs`; vertices left empty get no patch."""
    vertices = np.concatenate([v for v, _ in pairs])
    dofs = np.concatenate([d for _, d in pairs])
    excluded = np.zeros(n, dtype=bool)
    excluded[np.asarray(dirichlet_dofs, dtype=np.int64)] = True
    keep = ~excluded[dofs]
    keys = np.sort(vertices[keep] * n + dofs[keep])
    keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
    vertices, dofs = np.divmod(keys, n)
    owners, starts = np.unique(vertices, return_index=True)
    indices = np.split(dofs, starts[1:]) if len(dofs) else []
    return PatchSet(n, owners.tolist(), indices)


def build_vanka_star_patches(mesh, velocity_space, pressure_space,
                             dirichlet_dofs=()):
    """Monolithic patches: velocity on the closure of star(v), pressure on
    star(v).

    Indices are monolithic (velocity block first). `dirichlet_dofs` are
    monolithic indices to exclude; empty patches are dropped.
    """
    n_u = velocity_space.num_dofs
    pairs = [_vertex_dof_pairs(mesh, velocity_space, closed=True),
             _vertex_dof_pairs(mesh, pressure_space, closed=False,
                               offset=n_u)]
    return _patch_set(n_u + pressure_space.num_dofs, pairs, dirichlet_dofs)


def build_star_patches(mesh, velocity_space, dirichlet_dofs=()):
    """Velocity-only patches on the vertex star (no closure ring)."""
    return _patch_set(velocity_space.num_dofs,
                      [_vertex_dof_pairs(mesh, velocity_space, closed=False)],
                      dirichlet_dofs)


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
    """Dense patch matrices K[idx][:, idx] for the rows idx of I, (p, m, m).

    Works through chunks of patches: one row gather from the CSR operator,
    then each entry's column is looked up in a (patch, DoF) -> local
    position table, so no per-patch sparse indexing is needed.
    """
    p, m = I.shape
    n = K.shape[0]
    X = np.zeros((p, m, m))
    chunk = max(1, min(p, GATHER_ROWS // m, GATHER_TABLE // n))
    local = np.full((chunk, n), -1, dtype=np.int32)
    for start in range(0, p, chunk):
        idx = I[start:start + chunk]
        slots = np.arange(len(idx))[:, None]
        rows = K[idx.ravel()]
        row_of = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
        local[slots, idx] = np.arange(m)
        cols = local[row_of // m, rows.indices]
        local[slots, idx] = -1
        keep = cols >= 0
        X[start:start + len(idx)].reshape(-1, m)[row_of[keep], cols[keep]] = \
            rows.data[keep]
    return X


def factor_patches(K, patches):
    """Invert every patch submatrix of K and fold in the patch weights.

    K must be symmetric (to SYMMETRY_TOL relative to its largest entry);
    otherwise a ValueError is raised. Returns a new PatchSet holding
    `blocks`. A singular patch matrix raises an error naming the offending
    vertex (a sign the decomposition kept constrained DoFs it should have
    excluded).
    """
    K = K.tocsr()
    K.sum_duplicates()
    if K.shape != (patches.n, patches.n):
        raise ValueError(
            f"operator shape {K.shape} does not match patch dimension "
            f"{patches.n}"
        )
    asymmetry = abs(K - K.T).max()
    if asymmetry > SYMMETRY_TOL * abs(K).max():
        raise ValueError("patch relaxation needs a symmetric operator; "
                         f"K - K^T reaches {asymmetry:.3e}")
    multiplicity = np.bincount(
        np.concatenate([np.empty(0, dtype=np.intp), *patches.indices]),
        minlength=patches.n,
    )
    sizes = np.array([len(idx) for idx in patches.indices], dtype=np.intp)

    def invert(chunk):
        members, I, X = chunk
        m = I.shape[1]
        lower = np.tri(m, k=-1, dtype=bool)
        lwork = max(int(dsytrf_lwork(m, lower=1)[0]), 1)  # blocked dsytrf
        for i, x in zip(members, X):
            try:
                # x.T is the Fortran-ordered view of the slot: its lower
                # triangle, inverted in place, is the upper one of x
                _ldl_invert(x.T, lwork)
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"singular patch matrix at vertex "
                    f"{patches.vertices[i]}: {exc}"
                ) from exc
            np.copyto(x, x.T, where=lower)
        X *= (1.0 / multiplicity[I])[:, :, None]
        return I, X

    blocks = _run(invert, _chunks(K, patches, sizes),
                  8 * int(np.sum(sizes**2)))
    return PatchSet(patches.n, list(patches.vertices),
                    list(patches.indices), blocks)


def _chunks(K, patches, sizes):
    """(patch numbers, index lists I, patch matrices X) of every chunk, in
    size order.

    Each group of equal-size patches is gathered here, on the calling
    thread, and split evenly into the fewest chunks of at most CHUNK_BYTES
    of X (one patch per chunk where a single patch is larger); the chunks
    are views of the group's arrays. On the workers, the mostly
    interpreter-bound gather of the SV k4 finest level took 0.26 s instead
    of 0.38 s, but the arrays and temporaries it left in the workers' own
    malloc heaps raised the peak RSS of repeated setups and solves from
    about 440 MB to 460-540 MB.
    """
    chunks = []
    for m in np.unique(sizes):
        members = np.flatnonzero(sizes == m)
        I = np.stack([patches.indices[i] for i in members])
        X = _gather(K, I)
        pieces = min(-(-X.nbytes // CHUNK_BYTES), len(members))
        chunks += zip(*(np.array_split(a, pieces) for a in (members, I, X)))
    return chunks


def asm_apply(patches, r):
    """One additive Schwarz sweep: z = sum_i I^T W inv(K_i) I r.

    `r` is an (n,) vector or an (n, c) block of c columns, each swept alike
    with the same patch inverses: one stacked product per chunk serves all
    columns, and the scatter adds entry (g, j) at flat position g c + j.
    """
    if patches.blocks is None:
        raise ValueError("patches must be factored first")
    blocks = patches.blocks
    if not blocks:
        return np.zeros_like(r)
    if r.ndim == 1:
        def product(block):
            return block[1] @ r[block[0]][..., None]
        scatter = patches.scatter
    else:
        # take, and the index built one column at a time: on the TH k4
        # scalar finest level (c = 2), fancy indexing r[I] took about
        # 200 us against 20 us, and broadcasting over the trailing axis of
        # length c about 170 us against 40 us
        def product(block):
            return block[1] @ r.take(block[0], axis=0)
        c = r.shape[1]
        scatter = np.stack([patches.scatter * c + j for j in range(c)],
                           axis=1).ravel()
    products = _run(product, blocks, sum(X.nbytes for _, X in blocks))
    z = np.bincount(scatter, np.concatenate([y.ravel() for y in products]),
                    minlength=r.size)
    return z.reshape(r.shape)
