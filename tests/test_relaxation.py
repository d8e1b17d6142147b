import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import cavity_problem
from dense_oracles import dense_asm, loop_star_patches, loop_vanka_patches
from stokesmg import relaxation
from stokesmg.assembly import (assemble_stokes, assemble_vector_laplacian,
                               eliminate_dirichlet)
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

    def test_scatter_index_is_built_once_in_chunk_order(self):
        system, factored = self._factored_cavity()
        assert np.array_equal(
            factored.scatter,
            np.concatenate([I.ravel() for I, _ in factored.blocks]))
        assert PatchSet(3, [0], [np.arange(3)]).scatter is None

    def test_scalar_columns_match_two_component_sweep(self):
        # the vector Laplacian's star smoother on interleaved DoFs 2g + c is
        # the scalar star smoother applied to each component's column
        mesh = refine_uniform(generate_structured_grid(2))
        sweeps = {}
        for components in (1, 2):
            space = build_space(mesh, 3, "continuous", components=components)
            bdofs = space.expand_components(space.boundary_scalar_dofs())
            K, _ = eliminate_dirichlet(assemble_vector_laplacian(space),
                                       bdofs, 0.0)
            sweeps[components] = factor_patches(
                K, build_star_patches(mesh, space, bdofs))
        r = np.random.default_rng(59).standard_normal(sweeps[2].n)
        z = asm_apply(sweeps[2], r)
        Z = asm_apply(sweeps[1], r.reshape(-1, 2))
        assert Z.shape == (sweeps[1].n, 2)
        assert np.abs(Z.ravel() - z).max() <= 1e-14 * np.abs(z).max()

    def test_unfactored_raises(self):
        mesh = generate_structured_grid(1)
        vel = build_space(mesh, 1, "continuous", components=2)
        patches = build_star_patches(mesh, vel)
        with pytest.raises(ValueError, match="factored"):
            asm_apply(patches, np.zeros(vel.num_dofs))


def vanka_level(family):
    """Operator and Vanka patches of a small TH k3 or SV k4 level."""
    if family == "th":
        prob = cavity_problem(k=3)
        mesh = refine_uniform(prob.base_mesh)
    else:
        prob = cavity_problem(k=4, family="sv")
        mesh = refine_barycentric(prob.base_mesh)
    system = assemble_stokes(prob, mesh)
    return system.K, build_vanka_star_patches(
        mesh, system.velocity_space, system.pressure_space,
        system.dirichlet_dofs,
    )


class TestParallelPath:
    """With 32 kB chunks and no size threshold, small levels take the
    multi-chunk path, here on a thread pool of a chosen size."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(relaxation, "CHUNK_BYTES", 1 << 15)
        monkeypatch.setattr(relaxation, "PARALLEL_BYTES", 0)

    @pytest.fixture
    def workers(self, monkeypatch):
        """workers(count) routes the parallel work to a pool of `count`
        threads; count None runs it on the calling thread."""
        pools = []

        def use(count):
            pool = None if count is None else ThreadPoolExecutor(count)
            pools.extend([pool] if pool else [])
            monkeypatch.setattr(relaxation, "_executor", lambda: pool)

        yield use
        for pool in pools:
            pool.shutdown()

    @pytest.mark.parametrize("family", ["th", "sv"])
    def test_matches_dense_oracle(self, family, workers):
        K, patches = vanka_level(family)
        workers(2)
        factored = factor_patches(K, patches)
        sizes = {len(idx) for idx in patches.indices}
        assert len(factored.blocks) > len(sizes)  # groups were split
        r = np.random.default_rng(61).standard_normal(K.shape[0])
        expected = dense_asm(K.toarray(), patches.indices) @ r
        error = np.abs(asm_apply(factored, r) - expected).max()
        assert error <= 1e-13 * np.abs(expected).max()

    @pytest.mark.parametrize("family", ["th", "sv"])
    def test_bitwise_equal_for_any_worker_count(self, family, workers):
        K, patches = vanka_level(family)
        r = np.random.default_rng(67).standard_normal(K.shape[0])
        results = []
        for count in (None, 1, 2):
            workers(count)
            factored = factor_patches(K, patches)
            results.append((factored.blocks, asm_apply(factored, r)))
        (blocks, z), others = results[0], results[1:]
        for other_blocks, other_z in others:
            assert len(other_blocks) == len(blocks)
            for (I, X), (J, Y) in zip(blocks, other_blocks):
                assert np.array_equal(I, J) and np.array_equal(X, Y)
            assert np.array_equal(other_z, z)

    @pytest.mark.parametrize("family", ["th", "sv"])
    def test_column_block_bitwise_equal_for_any_worker_count(self, family,
                                                             workers):
        K, patches = vanka_level(family)
        R = np.random.default_rng(73).standard_normal((K.shape[0], 2))
        sweeps = []
        for count in (None, 1, 2):
            workers(count)
            factored = factor_patches(K, patches)
            sweeps.append(asm_apply(factored, R))
        assert all(np.array_equal(Z, sweeps[0]) for Z in sweeps[1:])
        for c in range(2):
            z = asm_apply(factored, R[:, c])
            assert (np.abs(sweeps[0][:, c] - z).max()
                    <= 1e-14 * np.abs(z).max())

    def test_singular_patch_in_later_chunk_names_its_vertex(self, workers):
        K, patches = vanka_level("th")
        workers(2)
        blocks = factor_patches(K, patches).blocks
        n = K.shape[0]
        # a DoF outside the first chunk, shared by patches of most chunks
        chunks_with = sum(np.bincount(I.ravel(), minlength=n) > 0
                          for I, _ in blocks[1:])
        chunks_with[blocks[0][0].ravel()] = 0
        dof = int(np.argmax(chunks_with))
        assert chunks_with[dof] >= 2
        # the first patch holding it in the serial (size, patch) order
        order = sorted(range(len(patches)),
                       key=lambda i: (len(patches.indices[i]), i))
        vertex = next(patches.vertices[i] for i in order
                      if dof in patches.indices[i])
        K = K.tolil()
        K[dof, :] = 0.0
        K[:, dof] = 0.0
        with pytest.raises(SingularMatrixError,
                           match=f"singular patch matrix at vertex {vertex}:"):
            factor_patches(K.tocsr(), patches)

    def test_concurrent_callers_share_one_pool(self, monkeypatch):
        # More callers than cores start the shared pool at once and sweep
        # on it; a race on its creation would hand out two pools.
        K, patches = vanka_level("sv")
        r = np.random.default_rng(71).standard_normal(K.shape[0])
        monkeypatch.setattr(relaxation, "PARALLEL_BYTES", 1 << 62)
        factored = factor_patches(K, patches)
        expected = asm_apply(factored, r)  # on this thread
        monkeypatch.setattr(relaxation, "PARALLEL_BYTES", 0)
        monkeypatch.setattr(relaxation, "_pool", None)
        callers = 8
        start = threading.Barrier(callers)
        pools, sweeps = [None] * callers, [None] * callers

        def call(i):
            start.wait()
            pools[i] = relaxation._executor()
            sweeps[i] = [asm_apply(factored, r) for _ in range(3)]

        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(callers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        pool = relaxation._pool
        if pool is not None:
            pool.shutdown()
        assert all(p is pool for p in pools)
        assert all(np.array_equal(z, expected) for zs in sweeps for z in zs)


class TestSmoothingProperty:
    def test_damped_sweep_reduces_laplacian_error(self):
        # Velocity Laplacian block with eliminated boundary: one weighted
        # ASM sweep with the Chebyshev nu=1 weight contracts the A-norm.
        mesh = generate_structured_grid(3)
        vel = build_space(mesh, 2, "continuous", components=2)
        assert vel.num_dofs <= 500
        A = assemble_vector_laplacian(vel)
        bdofs = vel.expand_components(vel.boundary_scalar_dofs())
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
