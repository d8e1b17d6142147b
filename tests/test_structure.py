"""Pinned integer structure of five reference hierarchies.

Three are monolithic and two are the scalar (velocity-only) hierarchies of
the block preconditioner. One SHA-256 digest per configuration covers every level's mesh topology
(edges, cell edges, sorted boundary markers), the DoF maps of its spaces,
the boundary DoFs per marker, the Dirichlet DoFs, the sparsity of K and
the patch index lists. Rewrites of the mesh, space and patch layers must
leave all of it unchanged. Floating-point data (K's values, P, the patch
inverses) is left to the oracle tests.
"""

import hashlib

import numpy as np
import pytest

from stokesmg.problems import backward_facing_step, lid_driven_cavity
from stokesmg.solvers import build_hierarchy

DIGESTS = {
    ("ldc2d", "th", "phmg-direct"):
        "d1403df763575e94b74fc1d339d9a9128a6713e837ff3b4cbe0051646a0a7462",
    ("ldc2d", "sv", "phmg-direct"):
        "05e19ebba9e56a12ea09fb8682bad2adc4efa007484aabac693c96f0dbd64e78",
    ("bfs2d", "th", "hmg"):
        "19cee32d1034778063907d14f75ded1bac85469a03df529aff8660707d822f18",
}

#: Velocity-only hierarchies (`monolithic=False`), ldc2d Taylor-Hood k3.
SCALAR_DIGESTS = {
    "phmg-direct":
        "8a31dcf8c2cfc446f7d60147d1c00a4d2f81bbcc2f63728c25eaf11069eaeeaf",
    "hmg":
        "af2d34be6820497531dffab5caa804e0d71a62a7c16aad5a0969f3b9168f7dba",
}

FACTORIES = {"ldc2d": lid_driven_cavity, "bfs2d": backward_facing_step}


def structure_digest(hierarchy):
    h = hashlib.sha256()

    def add(*arrays):
        for a in arrays:
            a = np.ascontiguousarray(a, dtype="<i8")
            h.update(np.array(a.shape, dtype="<i8").tobytes())
            h.update(a.tobytes())

    for level in hierarchy.levels:
        mesh = level.mesh
        add(mesh.edges, mesh.cell_edges,
            np.array(sorted(mesh.boundary_edge_markers.items()),
                     dtype=np.int64).reshape(-1, 2))
        spaces = ([level.system.velocity_space, level.system.pressure_space]
                  if level.system is not None else [level.space])
        markers = sorted(set(mesh.boundary_edge_markers.values()))
        for space in spaces:
            add(space.cell_scalar_dofs)
            add(*(space.boundary_scalar_dofs(markers={m}) for m in markers))
        add(level.dirichlet_dofs, level.K.indptr, level.K.indices)
        if level.patches is not None:
            add(*level.patches.indices)
    return h.hexdigest()


@pytest.mark.parametrize("name,family,cycle", list(DIGESTS))
def test_structure_digest(name, family, cycle):
    problem = FACTORIES[name](1, 3, family)
    hierarchy = build_hierarchy(problem, 1, cycle)
    assert structure_digest(hierarchy) == DIGESTS[name, family, cycle]


@pytest.mark.parametrize("cycle", list(SCALAR_DIGESTS))
def test_scalar_structure_digest(cycle):
    problem = lid_driven_cavity(1, 3, "th")
    hierarchy = build_hierarchy(problem, 1, cycle, monolithic=False)
    assert structure_digest(hierarchy) == SCALAR_DIGESTS[cycle]
