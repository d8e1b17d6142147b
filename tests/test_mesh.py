import os
import warnings

import numpy as np
import pytest

from stokesmg.mesh import (
    Mesh,
    MeshError,
    generate_structured_grid,
    load_mesh,
    refine_barycentric,
    refine_uniform,
    save_mesh,
)
from stokesmg.problems import DATA_DIR


def coord_set(mesh):
    return {(round(x, 12), round(y, 12)) for x, y in mesh.vertices}


class TestStructuredGrid:
    def test_unit_n1_counts(self):
        mesh = generate_structured_grid(1)
        assert mesh.num_vertices == 4
        assert mesh.num_cells == 2
        assert mesh.num_edges == 5

    def test_n2_biunit_counts(self):
        mesh = generate_structured_grid(2, domain=((-1.0, -1.0), (1.0, 1.0)))
        assert mesh.num_vertices == 9
        assert mesh.num_cells == 8
        assert mesh.num_edges == 16

    def test_euler_characteristic_disk(self):
        mesh = generate_structured_grid(4)
        assert mesh.num_vertices == 25
        assert mesh.num_edges == 56
        assert mesh.num_cells == 32
        assert mesh.num_vertices - mesh.num_edges + mesh.num_cells == 1

    def test_all_cells_ccw(self):
        mesh = generate_structured_grid(3, domain=((-2.0, 0.5), (4.0, 3.0)))
        assert np.all(mesh.signed_areas() > 0)

    def test_total_area(self):
        mesh = generate_structured_grid(5, domain=((-1.0, -1.0), (1.0, 1.0)))
        assert mesh.total_area() == pytest.approx(4.0, rel=1e-14)

    def test_boundary_markers_by_side(self):
        mesh = generate_structured_grid(3, domain=((-1.0, -1.0), (1.0, 1.0)))
        assert set(mesh.boundary_edge_markers) == mesh.boundary_edges
        for e, marker in mesh.boundary_edge_markers.items():
            a, b = mesh.edges[e]
            pa, pb = mesh.vertices[a], mesh.vertices[b]
            side = {1: pa[1] == pb[1] == -1.0, 2: pa[0] == pb[0] == 1.0,
                    3: pa[1] == pb[1] == 1.0, 4: pa[0] == pb[0] == -1.0}
            assert side[marker]

    def test_rejects_n0(self):
        with pytest.raises(MeshError):
            generate_structured_grid(0)


class TestMeshValidation:
    def test_rejects_clockwise_cell(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(MeshError, match="counterclockwise"):
            Mesh(np.array(verts), np.array([[0, 2, 1]]))

    def test_rejects_repeated_vertex(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]
        with pytest.raises(MeshError, match=r"cell \[1, 2, 1\] has repeated"):
            Mesh(np.array(verts), np.array([[0, 1, 2], [1, 2, 1]]))

    def test_rejects_dangling_vertex(self):
        verts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (5.0, 5.0)]
        with pytest.raises(MeshError, match="dangling"):
            Mesh(np.array(verts), np.array([[0, 1, 2]]))

    def test_rejects_marker_on_interior_edge(self):
        mesh = generate_structured_grid(2)
        interior = [e for e in range(mesh.num_edges) if e not in mesh.boundary_edges]
        with pytest.raises(MeshError, match="non-boundary"):
            Mesh(mesh.vertices, mesh.cells, {interior[0]: 1})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_vertex(self, bad):
        verts = [(0.0, 0.0), (1.0, 0.0), (bad, 1.0)]
        with pytest.raises(MeshError, match="vertex 2 has non-finite"):
            Mesh(np.array(verts), np.array([[0, 1, 2]]))

    def test_arrays_read_only(self):
        mesh = generate_structured_grid(2)
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 99.0
        with pytest.raises(ValueError):
            mesh.cells[0, 0] = 0

    def test_edges_lexicographic(self):
        mesh = generate_structured_grid(3)
        pairs = [tuple(e) for e in mesh.edges.tolist()]
        assert all(a < b for a, b in pairs)
        assert pairs == sorted(pairs)


class TestUniformRefinement:
    def test_counts(self):
        mesh = generate_structured_grid(1)
        fine = refine_uniform(mesh)
        assert fine.num_cells == 8
        assert fine.num_vertices == 9

    def test_vertex_numbering(self):
        mesh = generate_structured_grid(2)
        fine = refine_uniform(mesh)
        V = mesh.num_vertices
        assert np.array_equal(fine.vertices[:V], mesh.vertices)
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        assert np.array_equal(fine.vertices[V:], mids)

    def test_double_refine_matches_n4_grid(self):
        twice = refine_uniform(refine_uniform(generate_structured_grid(1)))
        direct = generate_structured_grid(4)
        assert twice.num_cells == direct.num_cells
        assert twice.num_vertices == direct.num_vertices
        assert coord_set(twice) == coord_set(direct)

    def test_parent_links(self):
        mesh = generate_structured_grid(2)
        fine = refine_uniform(mesh)
        assert fine.parent is mesh
        assert np.array_equal(np.bincount(fine.parent_cell), 4 * np.ones(mesh.num_cells))
        # Each child lies inside its parent.
        for t, p in enumerate(fine.parent_cell):
            centroid = fine.vertices[fine.cells[t]].mean(axis=0)
            tri = mesh.vertices[mesh.cells[p]]
            lam = np.linalg.solve(
                np.column_stack([tri[1] - tri[0], tri[2] - tri[0]]),
                centroid - tri[0],
            )
            assert lam[0] >= -1e-14 and lam[1] >= -1e-14 and lam.sum() <= 1 + 1e-14

    def test_markers_inherited(self):
        mesh = generate_structured_grid(2, domain=((-1.0, -1.0), (1.0, 1.0)))
        fine = refine_uniform(mesh)
        assert len(fine.boundary_edge_markers) == 2 * len(mesh.boundary_edge_markers)
        assert sorted(set(fine.boundary_edge_markers.values())) == [1, 2, 3, 4]

    def test_area_preserved(self):
        mesh = generate_structured_grid(3, domain=((0.0, 0.0), (2.0, 1.0)))
        fine = refine_uniform(mesh)
        assert fine.total_area() == pytest.approx(mesh.total_area(), rel=1e-14)


class TestBarycentricRefinement:
    def test_counts(self):
        mesh = generate_structured_grid(1)
        fine = refine_barycentric(mesh)
        assert fine.num_cells == 6
        assert fine.num_vertices == 6

    def test_barycenter_ids(self):
        mesh = generate_structured_grid(2)
        fine = refine_barycentric(mesh)
        V = mesh.num_vertices
        assert np.array_equal(fine.vertices[:V], mesh.vertices)
        bary = mesh.vertices[mesh.cells].mean(axis=1)
        assert np.allclose(fine.vertices[V:], bary)

    def test_boundary_unchanged(self):
        mesh = generate_structured_grid(2, domain=((-1.0, -1.0), (1.0, 1.0)))
        fine = refine_barycentric(mesh)
        assert len(fine.boundary_edge_markers) == len(mesh.boundary_edge_markers)
        parent_marked = {
            (min(int(a), int(b)), max(int(a), int(b))): m
            for e, m in mesh.boundary_edge_markers.items()
            for a, b in [mesh.edges[e]]
        }
        child_marked = {
            (min(int(a), int(b)), max(int(a), int(b))): m
            for e, m in fine.boundary_edge_markers.items()
            for a, b in [fine.edges[e]]
        }
        assert parent_marked == child_marked

    def test_area_preserved(self):
        mesh = generate_structured_grid(3)
        fine = refine_barycentric(mesh)
        assert fine.total_area() == pytest.approx(mesh.total_area(), rel=1e-14)


class TestMeshIO:
    def test_round_trip(self, tmp_path):
        mesh = generate_structured_grid(3, domain=((-1.0, -1.0), (1.0, 1.0)))
        path = tmp_path / "grid.mesh"
        save_mesh(mesh, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.cells, mesh.cells)
        assert back.boundary_edge_markers == mesh.boundary_edge_markers

    def test_repairs_orientation_with_warning(self, tmp_path):
        path = tmp_path / "flipped.mesh"
        path.write_text("3 0 1\n0 0\n1 0\n0 1\n0 2 1\n")
        with pytest.warns(UserWarning, match="orientation"):
            mesh = load_mesh(path)
        assert np.all(mesh.signed_areas() > 0)

    def test_rejects_dangling(self, tmp_path):
        path = tmp_path / "dangling.mesh"
        path.write_text("4 0 1\n0 0\n1 0\n0 1\n9 9\n0 1 2\n")
        with pytest.raises(MeshError, match="dangling"):
            load_mesh(path)

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.mesh"
        path.write_text("5 0 3\n0 0\n1 0\n")
        with pytest.raises(MeshError):
            load_mesh(path)

    def test_rejects_boundary_line_naming_no_edge(self, tmp_path):
        path = tmp_path / "no_edge.mesh"
        path.write_text("4 1 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
                        "1 3 2\n")
        with pytest.raises(MeshError, match=r"no_edge\.mesh: vertex pair "
                                            r"\(1, 3\) is not an edge"):
            load_mesh(path)

    def test_rejects_boundary_line_on_interior_edge(self, tmp_path):
        path = tmp_path / "interior.mesh"
        path.write_text("4 1 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
                        "2 0 1\n")
        with pytest.raises(MeshError, match=r"interior\.mesh: marker "
                                            r"assigned to non-boundary edge"):
            load_mesh(path)


    SQUARE = "0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"

    def test_rejects_edge_named_twice(self, tmp_path):
        path = tmp_path / "twice.mesh"
        path.write_text("4 5 2\n" + self.SQUARE
                        + "0 1 1\n1 2 2\n2 3 3\n3 0 4\n1 0 4\n")
        with pytest.raises(MeshError, match=r"twice\.mesh: edge \(0, 1\) is "
                                            r"marked more than once"):
            load_mesh(path)

    def test_rejects_boundary_edge_without_line(self, tmp_path):
        path = tmp_path / "partial.mesh"
        path.write_text("4 3 2\n" + self.SQUARE + "0 1 1\n1 2 2\n2 3 3\n")
        with pytest.raises(MeshError, match=r"partial\.mesh: boundary edge "
                                            r"\(0, 3\) has no marker line"):
            load_mesh(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_rejects_non_finite_vertex(self, tmp_path, bad):
        # a NaN vertex used to load with a NaN area; an infinite one
        # loaded after "repairing" the orientation of its cells
        with open(os.path.join(DATA_DIR, "bfs2d_base.mesh")) as fh:
            lines = fh.read().splitlines()
        lines[1] = f"{bad} {lines[1].split()[1]}"
        path = tmp_path / "bad.mesh"
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MeshError, match=r"bad\.mesh: vertex 0 has "
                                                r"non-finite coordinates"):
                load_mesh(path)

    def test_rejects_trailing_tokens(self, tmp_path):
        path = tmp_path / "trailing.mesh"
        path.write_text("4 4 2\n" + self.SQUARE
                        + "0 1 1\n1 2 2\n2 3 3\n3 0 4\n1 2 3\n")
        with pytest.raises(MeshError, match=r"trailing\.mesh: 3 trailing "
                                            r"token"):
            load_mesh(path)

    def test_rejects_empty_mesh(self, tmp_path):
        # "0 0 0" used to end in NumPy's AxisError
        path = tmp_path / "empty.mesh"
        path.write_text("0 0 0\n")
        with pytest.raises(MeshError, match=r"empty\.mesh: mesh has no cells"):
            load_mesh(path)

    def test_rejects_negative_count(self, tmp_path):
        # a negative boundary count used to read as an unmarked mesh, and
        # was reported as a boundary edge without its marker line
        path = tmp_path / "negative.mesh"
        path.write_text("3 -2 1\n0 0\n1 0\n0 1\n0 1 2\n")
        with pytest.raises(MeshError, match=r"negative\.mesh: negative count "
                                            r"in header '3 -2 1'"):
            load_mesh(path)

    def test_no_boundary_lines_leave_mesh_unmarked(self, tmp_path):
        path = tmp_path / "bare.mesh"
        path.write_text("4 0 2\n" + self.SQUARE)
        assert load_mesh(path).boundary_edge_markers == {}

class TestNesting:
    def test_parent_vertices_embedded(self):
        mesh = generate_structured_grid(2)
        for refine in (refine_uniform, refine_barycentric):
            fine = refine(mesh)
            assert np.array_equal(fine.vertices[: mesh.num_vertices], mesh.vertices)

    def test_refinement_chain(self):
        mesh = generate_structured_grid(2)
        levels = [mesh]
        for _ in range(3):
            levels.append(refine_uniform(levels[-1]))
        for coarse, fine in zip(levels, levels[1:]):
            assert fine.parent is coarse
            assert fine.num_cells == 4 * coarse.num_cells
