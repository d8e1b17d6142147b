import os

import numpy as np
import pytest

from dense_oracles import (
    closure,
    entity_dofs,
    entity_set_dofs,
    loop_boundary_dofs,
    vertex_stars,
)
from stokesmg.mesh import (
    generate_structured_grid,
    load_mesh,
    refine_barycentric,
    refine_uniform,
)
from stokesmg.problems import DATA_DIR
from stokesmg.reference import LOCAL_EDGES
from stokesmg.spaces import build_space

BIUNIT = ((-1.0, -1.0), (1.0, 1.0))
MESHES = {
    "grid": lambda: generate_structured_grid(3, domain=BIUNIT),
    "uniform": lambda: refine_uniform(generate_structured_grid(3, BIUNIT)),
    "barycentric": lambda: refine_barycentric(
        generate_structured_grid(3, BIUNIT)),
    "bfs2d": lambda: load_mesh(os.path.join(DATA_DIR, "bfs2d_base.mesh")),
}


class TestDofCounts:
    def test_continuous_p2_on_n2(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous")
        assert space.num_dofs == 9 + 16 == 25

    def test_discontinuous_p1_on_n2(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 1, "discontinuous")
        assert space.num_dofs == 8 * 3 == 24

    def test_velocity_doubles_scalar(self):
        mesh = generate_structured_grid(3)
        scalar = build_space(mesh, 3, "continuous")
        vector = build_space(mesh, 3, "continuous", components=2)
        assert vector.num_dofs == 2 * scalar.num_dofs

    @pytest.mark.parametrize("k", range(1, 7))
    def test_continuous_closed_form(self, k):
        mesh = generate_structured_grid(3)
        space = build_space(mesh, k, "continuous")
        V, E, T = mesh.num_vertices, mesh.num_edges, mesh.num_cells
        assert space.num_scalar_dofs == V + (k - 1) * E + (k - 1) * (k - 2) // 2 * T

    @pytest.mark.parametrize("k", range(0, 5))
    def test_discontinuous_closed_form(self, k):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, k, "discontinuous")
        assert space.num_scalar_dofs == mesh.num_cells * (k + 1) * (k + 2) // 2

    def test_rejects_bad_continuity(self):
        mesh = generate_structured_grid(1)
        with pytest.raises(ValueError):
            build_space(mesh, 2, "broken")
        with pytest.raises(ValueError):
            build_space(mesh, 0, "continuous")


class TestSharedEntityConsistency:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_neighbor_cells_agree_on_shared_dofs(self, k):
        # The same global DoF must have the same physical coordinates no
        # matter which incident cell computes them.
        mesh = generate_structured_grid(2)
        space = build_space(mesh, k, "continuous")
        elem = space.element
        seen = {}
        for t in range(mesh.num_cells):
            tri = mesh.vertices[mesh.cells[t]]
            phys = elem.nodes_bary @ tri
            for local, g in enumerate(space.cell_scalar_dofs[t]):
                key = int(g)
                if key in seen:
                    assert np.allclose(seen[key], phys[local], atol=1e-14)
                else:
                    seen[key] = phys[local]
        assert len(seen) == space.num_scalar_dofs

    def test_dof_coords_match_cellwise_coords(self):
        mesh = generate_structured_grid(3)
        space = build_space(mesh, 4, "continuous")
        elem = space.element
        for t in range(mesh.num_cells):
            tri = mesh.vertices[mesh.cells[t]]
            phys = elem.nodes_bary @ tri
            assert np.allclose(space.dof_coords[space.cell_scalar_dofs[t]], phys)


class TestComponentInterleaving:
    def test_velocity_dofs_adjacent(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous", components=2)
        scalar = space.cell_scalar_dofs[0]
        vector = space.cell_dofs[0]
        for i, g in enumerate(scalar):
            assert vector[2 * i] == 2 * g
            assert vector[2 * i + 1] == 2 * g + 1

    def test_expand_components_flat(self):
        mesh = generate_structured_grid(1)
        space = build_space(mesh, 1, "continuous", components=2)
        assert space.expand_components(np.array([0, 3])).tolist() == [0, 1, 6, 7]


class TestEntityQueries:
    """The DoF maps and boundary DoFs against the per-entity numbering of
    `dense_oracles`."""

    def test_vertex_edge_cell_partition(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 4, "continuous")
        elem, dofs = space.element, space.cell_scalar_dofs
        assert np.array_equal(dofs[:, elem.vertex_nodes], mesh.cells)
        for c in range(mesh.num_cells):
            for le, (i, j) in enumerate(LOCAL_EDGES):
                # edge nodes run from the lower global vertex to the higher
                expected = entity_dofs(space, "edge", mesh.cell_edges[c, le])
                if mesh.cells[c, i] > mesh.cells[c, j]:
                    expected = expected[::-1]
                assert dofs[c, elem.edge_nodes[le]].tolist() == expected
            assert (dofs[c, elem.interior_nodes].tolist()
                    == entity_dofs(space, "cell", c))
        blocks = ([entity_dofs(space, "vertex", v)
                   for v in range(mesh.num_vertices)]
                  + [entity_dofs(space, "edge", e)
                     for e in range(mesh.num_edges)]
                  + [entity_dofs(space, "cell", c)
                     for c in range(mesh.num_cells)])
        cat = np.concatenate(blocks)
        assert np.array_equal(np.sort(cat), np.arange(space.num_scalar_dofs))

    def test_discontinuous_only_cells(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 1, "discontinuous")
        assert space.boundary_scalar_dofs().dtype == np.int64
        assert len(space.boundary_scalar_dofs()) == 0
        assert len(space.boundary_scalar_dofs(markers={1})) == 0
        for c in range(mesh.num_cells):
            assert (space.cell_scalar_dofs[c].tolist()
                    == entity_dofs(space, "cell", c))

    def test_entity_set_dofs_match_closure_cells(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous")
        center = int(np.argmin(np.abs(mesh.vertices - 0.5).sum(axis=1)))
        edges, cells = vertex_stars(mesh)[center]
        dofs = entity_set_dofs(space, *closure(mesh, {center}, edges, cells))
        # P2 on the closure of a valence-6 star: 7 vertices + 12 edges
        assert len(dofs) == 19
        from_cells = np.unique(space.cell_scalar_dofs[sorted(cells)].ravel())
        assert np.array_equal(dofs, from_cells)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("mesh_name", list(MESHES))
    def test_boundary_dofs_match_per_edge_loop(self, mesh_name, k):
        mesh = MESHES[mesh_name]()
        space = build_space(mesh, k, "continuous")
        markers = sorted(set(mesh.boundary_edge_markers.values()))
        assert len(markers) >= 3
        for selection in [None] + [{m} for m in markers]:
            got = space.boundary_scalar_dofs(markers=selection)
            assert got.dtype == np.int64
            assert np.array_equal(got, loop_boundary_dofs(space, selection))

    def test_boundary_dofs(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous")
        bdofs = space.boundary_scalar_dofs()
        # 8 boundary vertices + 8 boundary edge midpoints
        assert len(bdofs) == 16
        coords = space.dof_coords[bdofs]
        on_edge = (
            (coords[:, 0] == 0) | (coords[:, 0] == 1)
            | (coords[:, 1] == 0) | (coords[:, 1] == 1)
        )
        assert on_edge.all()

    def test_boundary_dofs_by_marker(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous")
        bottom = space.boundary_scalar_dofs(markers={1})
        assert np.allclose(space.dof_coords[bottom][:, 1], 0.0)
        assert len(bottom) == 5


class TestInterpolation:
    def test_scalar_linear_exact(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 1, "continuous")
        vec = space.interpolate(lambda x, y: 2 * x - y)
        assert np.allclose(vec, 2 * space.dof_coords[:, 0] - space.dof_coords[:, 1])

    def test_vector_interpolation(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous", components=2)
        vec = space.interpolate(lambda x, y: (y, -x))
        assert np.allclose(vec[0::2], space.dof_coords[:, 1])
        assert np.allclose(vec[1::2], -space.dof_coords[:, 0])

    def test_component_mismatch_raises(self):
        mesh = generate_structured_grid(1)
        space = build_space(mesh, 1, "continuous", components=2)
        with pytest.raises(ValueError, match="components"):
            space.interpolate(lambda x, y: x)


class TestDeterminism:
    def test_two_builds_identical(self):
        mesh = generate_structured_grid(3)
        a = build_space(mesh, 3, "continuous", components=2)
        b = build_space(mesh, 3, "continuous", components=2)
        assert np.array_equal(a.cell_dofs, b.cell_dofs)
        assert np.array_equal(a.dof_coords, b.dof_coords)
