"""Vertex-patch additive Schwarz relaxation.

One sweep applies

    z = sum_i I(i)^T W_i inv(K(i)) I(i) r

with one patch per mesh vertex. Vanka patches (monolithic relaxation) take
velocity DoFs on the closure of the vertex star and pressure DoFs on the
star itself; star patches (velocity-only relaxation inside the block
preconditioner) take velocity DoFs on the star only. W_i is the inverse
patch-multiplicity of each DoF, so the weights of a DoF across patches sum
to one.

Factoring stores the smoother as `blocks`, one `(I, X)` pair per distinct
patch size m: `I` (p, m) stacks the index lists of the p patches of that
size and `X` (p, m, m) their weighted inverses W_i inv(K(i)). A sweep is
then one stacked product and one scatter-add per size, with no per-patch
Python work.
"""

from __future__ import annotations

import numpy as np

from .linalg import SingularMatrixError, dense_lu
from .mesh import closure, vertex_star

__all__ = [
    "PatchSet",
    "build_vanka_star_patches",
    "build_star_patches",
    "factor_patches",
    "asm_apply",
]


class PatchSet:
    """Per-vertex DoF index lists, plus the size-grouped weighted patch
    inverses (`blocks`) once factored."""

    def __init__(self, n, vertices, indices, blocks=None):
        self.n = n
        self.vertices = vertices
        self.indices = indices
        self.blocks = blocks

    def __len__(self):
        return len(self.indices)


def build_vanka_star_patches(mesh, velocity_space, pressure_space,
                             dirichlet_dofs=()):
    """Monolithic patches: velocity on closure(star(v)), pressure on star(v).

    Indices are monolithic (velocity block first). `dirichlet_dofs` are
    monolithic indices to exclude; empty patches are dropped.
    """
    n_u = velocity_space.num_dofs
    n = n_u + pressure_space.num_dofs
    excluded = np.zeros(n, dtype=bool)
    excluded[np.asarray(dirichlet_dofs, dtype=np.int64)] = True

    vertices, indices = [], []
    for v in range(mesh.num_vertices):
        star = vertex_star(mesh, v)
        cl = closure(mesh, star)
        vel = velocity_space.expand_components(
            velocity_space.entity_set_scalar_dofs(cl))
        pres = n_u + pressure_space.entity_set_scalar_dofs(star)
        idx = np.concatenate([vel, pres])
        idx = idx[~excluded[idx]]
        if len(idx) == 0:
            continue
        vertices.append(v)
        indices.append(np.sort(idx))
    return PatchSet(n, vertices, indices)


def build_star_patches(mesh, velocity_space, dirichlet_dofs=()):
    """Velocity-only patches on the vertex star (no closure ring)."""
    n = velocity_space.num_dofs
    excluded = np.zeros(n, dtype=bool)
    excluded[np.asarray(dirichlet_dofs, dtype=np.int64)] = True

    vertices, indices = [], []
    for v in range(mesh.num_vertices):
        star = vertex_star(mesh, v)
        idx = velocity_space.expand_components(
            velocity_space.entity_set_scalar_dofs(star)
        )
        idx = idx[~excluded[idx]]
        if len(idx) == 0:
            continue
        vertices.append(v)
        indices.append(np.sort(idx))
    return PatchSet(n, vertices, indices)


def factor_patches(K, patches):
    """Invert every patch submatrix of K and fold in the patch weights.

    Returns a new PatchSet holding `blocks`. A singular patch matrix raises
    an error naming the offending vertex (a sign the decomposition kept
    constrained DoFs it should have excluded).
    """
    K = K.tocsr()
    K.sum_duplicates()
    if K.shape != (patches.n, patches.n):
        raise ValueError(
            f"operator shape {K.shape} does not match patch dimension "
            f"{patches.n}"
        )
    multiplicity = np.bincount(
        np.concatenate([np.empty(0, dtype=np.intp), *patches.indices]),
        minlength=patches.n,
    )
    sizes = np.array([len(idx) for idx in patches.indices], dtype=np.intp)
    blocks = []
    for m in np.unique(sizes):
        members = np.flatnonzero(sizes == m)
        I = np.stack([patches.indices[i] for i in members])
        X = np.empty((len(members), m, m))
        for slot, (i, idx) in enumerate(zip(members, I)):
            try:
                lu = dense_lu(K[idx][:, idx].toarray())
            except SingularMatrixError as exc:
                raise SingularMatrixError(
                    f"singular patch matrix at vertex "
                    f"{patches.vertices[i]}: {exc}"
                ) from exc
            X[slot] = lu.inverse()
            X[slot] *= (1.0 / multiplicity[idx])[:, None]
        blocks.append((I, X))
    return PatchSet(patches.n, list(patches.vertices),
                    list(patches.indices), blocks)


def asm_apply(patches, r):
    """One additive Schwarz sweep: z = sum_i I^T W inv(K_i) I r."""
    if patches.blocks is None:
        raise ValueError("patches must be factored first")
    z = np.zeros_like(r)
    for I, X in patches.blocks:
        z += np.bincount(I.ravel(), (X @ r[I][..., None]).ravel(),
                         minlength=len(r))
    return z
