import numpy as np
import pytest
import scipy.sparse as sp

from conftest import cavity_problem
from dense_oracles import loop_star_patches, loop_vanka_patches
from stokesmg.assembly import assemble_stokes, assemble_vector_laplacian
from stokesmg.linalg import SingularMatrixError, estimate_lambda_max
from stokesmg.mesh import (
    generate_structured_grid,
    refine_barycentric,
    refine_uniform,
)
from stokesmg.relaxation import (
    PatchSet,
    asm_apply,
    build_star_patches,
    build_vanka_star_patches,
    factor_patches,
)
from stokesmg.spaces import build_space


def center_vertex(mesh):
    target = mesh.vertices.mean(axis=0)
    return int(np.argmin(np.abs(mesh.vertices - target).sum(axis=1)))


class TestVankaPatches:
    def test_th_p2_p1_interior_patch_39(self):
        mesh = generate_structured_grid(2)
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, "continuous")
        patches = build_vanka_star_patches(mesh, vel, pres)
        v = center_vertex(mesh)
        idx = patches.indices[patches.vertices.index(v)]
        assert len(idx) == 19 * 2 + 1 == 39

    def test_sv_p2_p1disc_interior_patch_56(self):
        mesh = generate_structured_grid(2)
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, "discontinuous")
        patches = build_vanka_star_patches(mesh, vel, pres)
        v = center_vertex(mesh)
        idx = patches.indices[patches.vertices.index(v)]
        assert len(idx) == 38 + 6 * 3 == 56
        # exactly the P1disc DoFs of the 6 incident cells
        pres_part = idx[idx >= vel.num_dofs]
        assert len(pres_part) == 18

    def test_dirichlet_exclusion_shrinks_boundary_patch(self):
        mesh = generate_structured_grid(1)
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, "continuous")
        full = build_vanka_star_patches(mesh, vel, pres)
        dirichlet = vel.expand_components(vel.boundary_scalar_dofs())
        constrained = build_vanka_star_patches(mesh, vel, pres, dirichlet)
        # all four vertices are boundary corners here
        for v in constrained.vertices:
            i_full = full.indices[full.vertices.index(v)]
            i_con = constrained.indices[constrained.vertices.index(v)]
            assert len(i_con) < len(i_full)

    def test_coverage_of_all_unconstrained_dofs(self):
        prob = cavity_problem(k=3)
        mesh = prob.base_mesh
        system = assemble_stokes(prob, mesh)
        patches = build_vanka_star_patches(
            mesh, system.velocity_space, system.pressure_space,
            system.dirichlet_dofs,
        )
        covered = np.zeros(system.n, dtype=bool)
        for idx in patches.indices:
            covered[idx] = True
        free = np.ones(system.n, dtype=bool)
        free[system.dirichlet_dofs] = False
        assert covered[free].all()
        assert not covered[~free].any()


class TestStarPatches:
    def test_p2_interior_star_14(self):
        mesh = generate_structured_grid(2)
        vel = build_space(mesh, 2, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        v = center_vertex(mesh)
        idx = patches.indices[patches.vertices.index(v)]
        assert len(idx) == (1 + 6) * 2 == 14

    def test_p3_interior_star_38(self):
        mesh = generate_structured_grid(2)
        vel = build_space(mesh, 3, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        v = center_vertex(mesh)
        idx = patches.indices[patches.vertices.index(v)]
        assert len(idx) == (1 + 6 * 2 + 6 * 1) * 2 == 38

    def test_star_subset_of_vanka_velocity(self):
        mesh = generate_structured_grid(2)
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, "continuous")
        stars = build_star_patches(mesh, vel)
        vankas = build_vanka_star_patches(mesh, vel, pres)
        for v, idx in zip(stars.vertices, stars.indices):
            vanka_idx = vankas.indices[vankas.vertices.index(v)]
            vanka_vel = vanka_idx[vanka_idx < vel.num_dofs]
            assert np.isin(idx, vanka_vel).all()

    def test_coverage(self):
        mesh = generate_structured_grid(3)
        vel = build_space(mesh, 4, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        covered = np.zeros(vel.num_dofs, dtype=bool)
        for idx in patches.indices:
            covered[idx] = True
        assert covered.all()


def assert_same_patches(patches, reference):
    vertices, indices = reference
    assert patches.vertices == vertices
    assert len(patches.indices) == len(indices)
    for got, expected in zip(patches.indices, indices):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestPatchesMatchPerVertexBuild:
    """The batched builders give exactly the patches of the per-vertex,
    set-based star and closure of `dense_oracles`."""

    def test_taylor_hood_vanka(self):
        prob = cavity_problem(k=3)
        mesh = refine_uniform(prob.base_mesh)
        system = assemble_stokes(prob, mesh)
        args = (mesh, system.velocity_space, system.pressure_space,
                system.dirichlet_dofs)
        assert_same_patches(build_vanka_star_patches(*args),
                            loop_vanka_patches(*args))

    def test_scott_vogelius_vanka(self):
        prob = cavity_problem(k=4, family="sv")
        mesh = refine_barycentric(prob.base_mesh)
        system = assemble_stokes(prob, mesh)
        args = (mesh, system.velocity_space, system.pressure_space,
                system.dirichlet_dofs)
        assert_same_patches(build_vanka_star_patches(*args),
                            loop_vanka_patches(*args))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_star(self, k):
        mesh = refine_uniform(generate_structured_grid(2))
        vel = build_space(mesh, k, "continuous", components=2)
        dirichlet = vel.expand_components(vel.boundary_scalar_dofs())
        for excluded in ((), dirichlet):
            assert_same_patches(build_star_patches(mesh, vel, excluded),
                                loop_star_patches(mesh, vel, excluded))


class TestFactorPatches:
    def test_diagonal_operator(self):
        mesh = generate_structured_grid(1)
        vel = build_space(mesh, 1, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        d = np.arange(1.0, vel.num_dofs + 1)
        K = sp.diags(d).tocsr()
        factored = factor_patches(K, patches)
        r = np.ones(vel.num_dofs)
        z = asm_apply(factored, r)
        # every patch solve is elementwise division; weights sum to 1
        assert np.allclose(z, 1.0 / d, atol=1e-14)

    def test_submatrix_matches_dense_gather(self):
        prob = cavity_problem(k=2)
        system = assemble_stokes(prob, prob.base_mesh)
        patches = build_vanka_star_patches(
            prob.base_mesh, system.velocity_space, system.pressure_space,
            system.dirichlet_dofs,
        )
        factored = factor_patches(system.K, patches)
        dense = system.K.toarray()
        multiplicity = np.zeros(system.n)
        for idx in patches.indices:
            multiplicity[idx] += 1.0
        rows = 0
        for I, X in factored.blocks:
            assert X.shape == I.shape + I.shape[-1:]
            for idx, x in zip(I, X):
                expected = (np.linalg.inv(dense[np.ix_(idx, idx)])
                            / multiplicity[idx][:, None])
                assert np.allclose(x, expected, atol=1e-10)
            rows += len(I)
        assert rows == len(patches)

    def test_weights_sum_to_one(self):
        prob = cavity_problem(k=2)
        system = assemble_stokes(prob, prob.base_mesh)
        patches = build_vanka_star_patches(
            prob.base_mesh, system.velocity_space, system.pressure_space,
            system.dirichlet_dofs,
        )
        # With the identity as operator every patch inverse is the identity,
        # so one sweep on a vector of ones returns each DoF's weight sum.
        factored = factor_patches(sp.identity(system.n, format="csr"),
                                  patches)
        total = asm_apply(factored, np.ones(system.n))
        free = np.ones(system.n, dtype=bool)
        free[system.dirichlet_dofs] = False
        assert np.abs(total[free] - 1.0).max() < 1e-14
        assert np.all(total[~free] == 0.0)

    def test_disjoint_patches_weights_all_one(self):
        K = sp.eye(6, format="csr") * 2.0
        patches = PatchSet(6, [0, 1], [np.array([0, 1, 2]), np.array([3, 4, 5])])
        factored = factor_patches(K, patches)
        r = np.random.default_rng(37).standard_normal(6)
        assert np.array_equal(asm_apply(factored, r), 0.5 * r)

    def test_singular_patch_names_vertex(self):
        mesh = generate_structured_grid(1)
        vel = build_space(mesh, 1, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        dense = np.zeros((vel.num_dofs, vel.num_dofs))
        dense[0, 0] = 1.0  # leave the rest singular
        with pytest.raises(SingularMatrixError, match="vertex"):
            factor_patches(sp.csr_matrix(dense), patches)

    def test_nonsymmetric_operator_rejected(self):
        K = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                    [0.0, 2.0, 0.0],
                                    [0.0, 0.0, 2.0]]))
        patches = PatchSet(3, [0, 1], [np.array([0, 1]), np.array([1, 2])])
        with pytest.raises(ValueError, match="symmetric"):
            factor_patches(K, patches)

    def test_indefinite_patches_use_two_by_two_pivots(self):
        # Saddle-point patches have zero diagonals, so LDL^T must pivot
        # with 2x2 blocks (this one factors as one 2x2 and one 1x1 block);
        # the inverse still matches the dense one.
        K = sp.csr_matrix(np.array([[0.0, 1.0, 0.0],
                                    [1.0, 0.0, 0.0],
                                    [0.0, 0.0, 2.0]]))
        factored = factor_patches(K, PatchSet(3, [0], [np.arange(3)]))
        (_, X), = factored.blocks
        assert np.allclose(X[0], np.linalg.inv(K.toarray()), atol=1e-14)

    def test_shape_mismatch(self):
        mesh = generate_structured_grid(1)
        vel = build_space(mesh, 1, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        with pytest.raises(ValueError, match="does not match"):
            factor_patches(sp.eye(3, format="csr"), patches)


class TestAsmApply:
    def _factored_cavity(self, k=2):
        prob = cavity_problem(k=k)
        system = assemble_stokes(prob, prob.base_mesh)
        patches = build_vanka_star_patches(
            prob.base_mesh, system.velocity_space, system.pressure_space,
            system.dirichlet_dofs,
        )
        return system, factor_patches(system.K, patches)

    def test_zero_residual(self):
        system, factored = self._factored_cavity()
        z = asm_apply(factored, np.zeros(system.n))
        assert np.abs(z).max() == 0.0

    def test_block_jacobi_on_block_diagonal(self):
        rng = np.random.default_rng(41)
        blocks = [g + g.T + 6 * np.eye(3)
                  for g in rng.standard_normal((4, 3, 3))]
        K = sp.block_diag(blocks, format="csr")
        patches = PatchSet(
            12, list(range(4)),
            [np.arange(3 * i, 3 * (i + 1)) for i in range(4)],
        )
        factored = factor_patches(K, patches)
        r = rng.standard_normal(12)
        z = asm_apply(factored, r)
        assert np.allclose(K @ z, r, atol=1e-12)

    def test_matches_dense_formula(self):
        system, factored = self._factored_cavity()
        assert system.n <= 200
        assert len(factored.blocks) >= 2  # more than one patch size
        dense = system.K.toarray()
        multiplicity = np.zeros(system.n)
        for idx in factored.indices:
            multiplicity[idx] += 1.0
        M_inv = np.zeros((system.n, system.n))
        for idx in factored.indices:
            w = 1.0 / multiplicity[idx]
            I = np.zeros((len(idx), system.n))
            I[np.arange(len(idx)), idx] = 1.0
            local = np.linalg.inv(dense[np.ix_(idx, idx)])
            M_inv += I.T @ (np.diag(w) @ local) @ I
        rng = np.random.default_rng(43)
        r = rng.standard_normal(system.n)
        assert np.allclose(asm_apply(factored, r), M_inv @ r, atol=1e-12)

    def test_linearity(self):
        system, factored = self._factored_cavity()
        rng = np.random.default_rng(47)
        r1 = rng.standard_normal(system.n)
        r2 = rng.standard_normal(system.n)
        combo = asm_apply(factored, 2.0 * r1 - 0.5 * r2)
        parts = 2.0 * asm_apply(factored, r1) - 0.5 * asm_apply(factored, r2)
        assert np.allclose(combo, parts, atol=1e-12)

    def test_order_independence(self):
        system, factored = self._factored_cavity()
        rng = np.random.default_rng(53)
        r = rng.standard_normal(system.n)
        order = rng.permutation(len(factored))
        shuffled = factor_patches(system.K, PatchSet(
            system.n, [factored.vertices[i] for i in order],
            [factored.indices[i] for i in order]))
        assert np.allclose(asm_apply(factored, r), asm_apply(shuffled, r),
                           atol=1e-12)

    def test_unfactored_raises(self):
        mesh = generate_structured_grid(1)
        vel = build_space(mesh, 1, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        with pytest.raises(ValueError, match="factored"):
            asm_apply(patches, np.zeros(vel.num_dofs))


class TestSmoothingProperty:
    def test_damped_sweep_reduces_laplacian_error(self):
        # Velocity Laplacian block with eliminated boundary: one weighted
        # ASM sweep with the Chebyshev nu=1 weight contracts the A-norm.
        mesh = generate_structured_grid(3)
        vel = build_space(mesh, 2, "continuous", components=2)
        assert vel.num_dofs <= 500
        A = assemble_vector_laplacian(vel)
        bdofs = vel.expand_components(vel.boundary_scalar_dofs())
        from stokesmg.assembly import eliminate_dirichlet

        A_el, _ = eliminate_dirichlet(A, bdofs, np.zeros(len(bdofs)))
        patches = build_star_patches(mesh, vel, bdofs)
        factored = factor_patches(A_el, patches)
        lam = estimate_lambda_max(
            lambda v: asm_apply(factored, A_el @ v), vel.num_dofs
        )
        omega = 2.0 / (1.4 * lam)
        rng = np.random.default_rng(59)
        e = rng.standard_normal(vel.num_dofs)
        e[bdofs] = 0.0
        e_new = e - omega * asm_apply(factored, A_el @ e)
        a_norm = lambda v: float(v @ (A_el @ v))
        assert a_norm(e_new) < a_norm(e)
