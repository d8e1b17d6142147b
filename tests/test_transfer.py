import os

import numpy as np
import pytest
import scipy.sparse as sp

from dense_oracles import loop_h_prolongation, loop_p_prolongation
from stokesmg.assembly import ProblemInstance, assemble_stokes
from stokesmg.mesh import (
    Mesh,
    generate_structured_grid,
    load_mesh,
    refine_barycentric,
    refine_uniform,
)
from stokesmg.problems import DATA_DIR
from stokesmg.spaces import build_space
from stokesmg.transfer import (
    DROP_TOL,
    build_h_prolongation,
    build_monolithic_transfer,
    build_p_prolongation,
    filter_dirichlet,
)


def two_cell_square():
    return generate_structured_grid(1)


def assert_same_transfer(P, reference):
    P, reference = P.tocsr(), reference.tocsr()
    P.sort_indices()
    reference.sort_indices()
    assert np.array_equal(P.indptr, reference.indptr)
    assert np.array_equal(P.indices, reference.indices)
    assert np.abs(P.data - reference.data).max() <= 1e-14


class TestMatchesPerCellBuild:
    """The batched transfers have the sparsity of the per-cell build and
    its values to 1e-14."""

    @pytest.mark.parametrize("base,refine,k,components", [
        pytest.param("grid", refine_uniform, 3, 2, id="refine_uniform-3-2"),
        pytest.param("grid", refine_uniform, 2, 1, id="refine_uniform-2-1"),
        pytest.param("grid", refine_barycentric, 4, 2,
                     id="refine_barycentric-4-2"),
        pytest.param("grid", refine_barycentric, 3, 1,
                     id="refine_barycentric-3-1"),
        # unstructured: tabulated zeros carry roundoff far above 1e-14
        pytest.param("bfs2d", refine_uniform, 3, 2,
                     id="bfs2d-refine_uniform-3-2"),
    ])
    def test_h(self, base, refine, k, components):
        if base == "bfs2d":
            coarse_mesh = load_mesh(os.path.join(DATA_DIR, "bfs2d_base.mesh"))
        else:
            coarse_mesh = refine_uniform(generate_structured_grid(
                2, domain=((-1.0, -1.0), (1.0, 1.0))))
        coarse = build_space(coarse_mesh, k, "continuous", components)
        fine = build_space(refine(coarse_mesh), k, "continuous", components)
        assert_same_transfer(build_h_prolongation(coarse, fine),
                             loop_h_prolongation(coarse, fine, DROP_TOL))

    @pytest.mark.parametrize("low_k,high_k,continuity,components", [
        (2, 4, "continuous", 2), (2, 7, "continuous", 1),
        (1, 3, "discontinuous", 1), (2, 2, "discontinuous", 1),
    ])
    def test_p(self, low_k, high_k, continuity, components):
        mesh = refine_barycentric(generate_structured_grid(2))
        low = build_space(mesh, low_k, "continuous", components)
        high = build_space(mesh, high_k, continuity, components)
        assert_same_transfer(build_p_prolongation(low, high),
                             loop_p_prolongation(low, high, DROP_TOL))


class TestHProlongation:
    def test_p1_midpoint_rows(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        coarse = build_space(coarse_mesh, 1, "continuous")
        fine = build_space(fine_mesh, 1, "continuous")
        P = build_h_prolongation(coarse, fine)
        assert P.shape == (fine.num_dofs, coarse.num_dofs)
        V = coarse_mesh.num_vertices
        for r in range(fine.num_dofs):
            row = P.getrow(r)
            if r < V:
                assert row.nnz == 1 and row.data[0] == pytest.approx(1.0)
            else:
                assert sorted(row.data.tolist()) == pytest.approx([0.5, 0.5])

    def test_coarse_vertex_rows_unit(self):
        coarse_mesh = generate_structured_grid(2)
        fine_mesh = refine_uniform(coarse_mesh)
        coarse = build_space(coarse_mesh, 3, "continuous")
        fine = build_space(fine_mesh, 3, "continuous")
        P = build_h_prolongation(coarse, fine).tocsr()
        for v in range(coarse_mesh.num_vertices):
            row = P.getrow(v)  # parent vertices keep ids under refinement
            assert row.nnz == 1
            assert row.indices[0] == v
            assert row.data[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_partition_of_unity_rows(self, k):
        coarse_mesh = generate_structured_grid(2)
        fine_mesh = refine_uniform(coarse_mesh)
        P = build_h_prolongation(
            build_space(coarse_mesh, k, "continuous"),
            build_space(fine_mesh, k, "continuous"),
        )
        sums = np.asarray(P.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12

    @pytest.mark.parametrize("refine", [refine_uniform, refine_barycentric])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_polynomial_exactness(self, refine, k):
        coarse_mesh = generate_structured_grid(2, domain=((-1.0, -1.0), (1.0, 1.0)))
        fine_mesh = refine(coarse_mesh)
        coarse = build_space(coarse_mesh, k, "continuous")
        fine = build_space(fine_mesh, k, "continuous")
        P = build_h_prolongation(coarse, fine)

        def poly(x, y):
            return (x + 0.3) ** (k - 1) * (y - 0.2)

        uc = coarse.interpolate(poly)
        uf = fine.interpolate(poly)
        assert np.abs(P @ uc - uf).max() < 1e-12

    def test_vector_components(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        coarse = build_space(coarse_mesh, 2, "continuous", components=2)
        fine = build_space(fine_mesh, 2, "continuous", components=2)
        P = build_h_prolongation(coarse, fine)
        f = lambda x, y: (x - 2 * y, y + 1.0)
        assert np.abs(P @ coarse.interpolate(f) - fine.interpolate(f)).max() < 1e-12

    def test_rejects_non_nested(self):
        a = generate_structured_grid(2)
        b = generate_structured_grid(4)
        with pytest.raises(ValueError, match="not nested"):
            build_h_prolongation(
                build_space(a, 2, "continuous"), build_space(b, 2, "continuous")
            )

    def test_rejects_degree_mismatch(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        with pytest.raises(ValueError, match="matching degree"):
            build_h_prolongation(
                build_space(coarse_mesh, 2, "continuous"),
                build_space(fine_mesh, 3, "continuous"),
            )

    def test_full_column_rank(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        P = build_h_prolongation(
            build_space(coarse_mesh, 2, "continuous"),
            build_space(fine_mesh, 2, "continuous"),
        )
        assert np.linalg.matrix_rank(P.toarray()) == P.shape[1]


class TestPProlongation:
    def test_p1_to_p2_midpoints(self):
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]))
        low = build_space(mesh, 1, "continuous")
        high = build_space(mesh, 2, "continuous")
        P = build_p_prolongation(low, high)
        for r in range(3):
            row = P.getrow(r)
            assert row.nnz == 1 and row.data[0] == pytest.approx(1.0)
        for r in range(3, 6):
            row = P.getrow(r)
            assert sorted(row.data.tolist()) == pytest.approx([0.5, 0.5])

    def test_p2_to_p4_exact_on_quadratics(self):
        mesh = generate_structured_grid(2)
        low = build_space(mesh, 2, "continuous")
        high = build_space(mesh, 4, "continuous")
        P = build_p_prolongation(low, high)
        f = lambda x, y: x**2 - 3 * x * y + 0.5
        assert np.abs(P @ low.interpolate(f) - high.interpolate(f)).max() < 1e-13

    def test_continuous_into_discontinuous(self):
        mesh = generate_structured_grid(2)
        low = build_space(mesh, 1, "continuous")
        high = build_space(mesh, 2, "discontinuous")
        P = build_p_prolongation(low, high)
        f = lambda x, y: 1.0 - x + 2 * y
        assert np.abs(P @ low.interpolate(f) - high.interpolate(f)).max() < 1e-13

    def test_rejects_wrong_order(self):
        mesh = generate_structured_grid(1)
        high = build_space(mesh, 3, "continuous")
        low = build_space(mesh, 2, "continuous")
        with pytest.raises(ValueError, match="low degree < high degree"):
            build_p_prolongation(high, low)

    def test_rejects_different_mesh(self):
        low = build_space(generate_structured_grid(1), 1, "continuous")
        high = build_space(generate_structured_grid(1), 2, "continuous")
        with pytest.raises(ValueError, match="shared mesh"):
            build_p_prolongation(low, high)

    def test_partition_of_unity(self):
        mesh = generate_structured_grid(2)
        P = build_p_prolongation(
            build_space(mesh, 2, "continuous"),
            build_space(mesh, 5, "continuous"),
        )
        sums = np.asarray(P.sum(axis=1)).ravel()
        assert np.abs(sums - 1.0).max() < 1e-12

    def test_full_column_rank(self):
        mesh = generate_structured_grid(1)
        P = build_p_prolongation(
            build_space(mesh, 2, "continuous"),
            build_space(mesh, 3, "continuous"),
        )
        assert np.linalg.matrix_rank(P.toarray()) == P.shape[1]


class TestMonolithicTransfer:
    def _pair(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        cv = build_space(coarse_mesh, 2, "continuous", components=2)
        fv = build_space(fine_mesh, 2, "continuous", components=2)
        cp = build_space(coarse_mesh, 1, "continuous")
        fp = build_space(fine_mesh, 1, "continuous")
        Pv = build_h_prolongation(cv, fv)
        Pp = build_h_prolongation(cp, fp)
        return cv, fv, cp, fp, Pv, Pp

    def test_block_dimensions(self):
        cv, fv, cp, fp, Pv, Pp = self._pair()
        P = build_monolithic_transfer(Pv, Pp)
        assert P.shape == (fv.num_dofs + fp.num_dofs, cv.num_dofs + cp.num_dofs)

    def test_zero_maps_to_zero(self):
        *_, Pv, Pp = self._pair()
        P = build_monolithic_transfer(Pv, Pp)
        assert np.abs(P @ np.zeros(P.shape[1])).max() == 0.0

    def test_blockwise_consistency(self):
        cv, fv, cp, fp, Pv, Pp = self._pair()
        P = build_monolithic_transfer(Pv, Pp)
        rng = np.random.default_rng(33)
        xu = rng.standard_normal(cv.num_dofs)
        xp = rng.standard_normal(cp.num_dofs)
        out = P @ np.concatenate([xu, xp])
        assert np.allclose(out[: fv.num_dofs], Pv @ xu)
        assert np.allclose(out[fv.num_dofs:], Pp @ xp)

    def test_one_block_keeps_its_csr_arrays(self):
        # a velocity-only level's transfer is its one scalar block
        mesh = two_cell_square()
        fine = build_space(refine_uniform(mesh), 3, "continuous")
        high = build_space(mesh, 3, "continuous")
        for block in (build_h_prolongation(build_space(mesh, 3, "continuous"),
                                           fine),
                      build_p_prolongation(build_space(mesh, 2, "continuous"),
                                           high),
                      sp.identity(high.num_dofs, format="csr")):
            P = build_monolithic_transfer(block)
            assert P.format == "csr" and P.shape == block.shape
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(P, attr), getattr(block, attr))


class TestGalerkinConsistency:
    @pytest.mark.parametrize("family,fine_kind", [("th", "uniform")])
    def test_rediscretized_equals_galerkin_h(self, family, fine_kind):
        # With no Dirichlet elimination (all-Neumann data), the coarse
        # rediscretized operator is the Galerkin triple product exactly.
        coarse_mesh = generate_structured_grid(2)
        fine_mesh = refine_uniform(coarse_mesh)
        zero = lambda x, y: (0.0, 0.0)
        prob = ProblemInstance("plain", fine_mesh, family, 2,
                               dirichlet={}, neumann={m: zero for m in (1, 2, 3, 4)})
        fine_sys = assemble_stokes(prob, fine_mesh)
        coarse_sys = assemble_stokes(prob, coarse_mesh)
        Pv = build_h_prolongation(coarse_sys.velocity_space,
                                  fine_sys.velocity_space)
        Pp = build_h_prolongation(coarse_sys.pressure_space,
                                  fine_sys.pressure_space)
        P = build_monolithic_transfer(Pv, Pp)
        galerkin = (P.T @ fine_sys.K @ P).toarray()
        scale = np.abs(fine_sys.K.data).max()
        assert np.abs(galerkin - coarse_sys.K.toarray()).max() < 1e-10 * scale

    def test_rediscretized_equals_galerkin_p(self):
        mesh = generate_structured_grid(2)
        zero = lambda x, y: (0.0, 0.0)
        prob = ProblemInstance("plain", mesh, "th", 4,
                               dirichlet={}, neumann={m: zero for m in (1, 2, 3, 4)})
        fine_sys = assemble_stokes(prob, mesh, k=4)
        coarse_sys = assemble_stokes(prob, mesh, k=2)
        Pv = build_p_prolongation(coarse_sys.velocity_space,
                                  fine_sys.velocity_space)
        Pp = build_p_prolongation(coarse_sys.pressure_space,
                                  fine_sys.pressure_space)
        P = build_monolithic_transfer(Pv, Pp)
        galerkin = (P.T @ fine_sys.K @ P).toarray()
        scale = np.abs(fine_sys.K.data).max()
        assert np.abs(galerkin - coarse_sys.K.toarray()).max() < 1e-10 * scale


class TestDirichletFilter:
    def test_rows_and_columns_zeroed(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        coarse = build_space(coarse_mesh, 2, "continuous")
        fine = build_space(fine_mesh, 2, "continuous")
        P = build_h_prolongation(coarse, fine)
        fine_d = np.array([0, 5])
        coarse_d = np.array([1])
        F = filter_dirichlet(P, fine_d, coarse_d)
        dense = F.toarray()
        assert np.abs(dense[fine_d, :]).max() == 0.0
        assert np.abs(dense[:, coarse_d]).max() == 0.0
        untouched = np.ones(P.shape[0], dtype=bool)
        untouched[fine_d] = False
        ref = P.toarray()
        ref[fine_d, :] = 0.0
        ref[:, coarse_d] = 0.0
        assert np.array_equal(dense, ref)

    def test_original_untouched(self):
        coarse_mesh = two_cell_square()
        fine_mesh = refine_uniform(coarse_mesh)
        P = build_h_prolongation(
            build_space(coarse_mesh, 1, "continuous"),
            build_space(fine_mesh, 1, "continuous"),
        )
        before = P.toarray().copy()
        filter_dirichlet(P, np.array([2]), np.array([0]))
        assert np.array_equal(P.toarray(), before)
