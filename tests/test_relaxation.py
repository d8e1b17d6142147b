import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import cavity_problem
from dense_oracles import dense_asm, loop_star_patches, loop_vanka_patches
from stokesmg import relaxation
from stokesmg.assembly import (assemble_stokes, assemble_vector_laplacian,
                               eliminate_dirichlet)
from stokesmg.linalg import (CHEBYSHEV_LOWER, CHEBYSHEV_UPPER,
                             SingularMatrixError, estimate_lambda_max)
from stokesmg.mesh import (
    generate_structured_grid,
    refine_barycentric,
    refine_uniform,
)
from stokesmg.problems import backward_facing_step, lid_driven_cavity
from stokesmg.relaxation import (
    PatchSet,
    asm_apply,
    build_star_patches,
    build_vanka_star_patches,
    factor_patches,
)
from stokesmg.solvers import (build_hierarchy, build_solver,
                              mesh_hierarchy)
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
            # q classes of m DoFs and k members share their q inverses
            q, m, k = I.shape
            assert X.shape == (q, m, m)
            for members, x in zip(I, X):
                for idx in members.T:
                    expected = (np.linalg.inv(dense[np.ix_(idx, idx)])
                                / multiplicity[idx][:, None])
                    assert np.allclose(x, expected, atol=1e-10)
            rows += q * k
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
        patches = PatchSet(3, [0, 1], [np.array([0, 1]), np.array([1, 2])])
        # 0.0: K and K^T differ in pattern; 0.5: only in value
        for lower in (0.0, 0.5):
            K = sp.csr_matrix(np.array([[2.0, 1.0, 0.0],
                                        [lower, 2.0, 0.0],
                                        [0.0, 0.0, 2.0]]))
            with pytest.raises(ValueError, match="symmetric"):
                factor_patches(K, patches)

    def test_unmirrored_stored_entry_rejected(self):
        # K equals K^T in value, but stores K[1, 0] = 0 and not K[0, 1]
        K = sp.csr_matrix((np.array([2.0, 0.0, 2.0, 2.0]),
                           np.array([0, 0, 1, 2]), np.array([0, 1, 3, 4])),
                          shape=(3, 3))
        assert np.array_equal(K.toarray(), K.toarray().T)
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

    @pytest.mark.parametrize("name", ["inverses", "nbytes"])
    def test_unfactored_properties_raise(self, name):
        with pytest.raises(ValueError, match="factored"):
            getattr(PatchSet(3, [0], [np.arange(3)]), name)

    @pytest.mark.parametrize("rows", [2, 5])
    def test_residual_of_another_length_raises(self, rows):
        # a longer r would come back with zeros past n, a shorter one
        # would fail inside the sweep's gather
        factored = factor_patches(sp.eye(3, format="csr"),
                                  PatchSet(3, [0], [np.arange(3)]))
        for shape in [(rows,), (rows, 2)]:
            with pytest.raises(ValueError, match="3 rows"):
                asm_apply(factored, np.ones(shape))


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
    """With 32 kB chunks, small levels store more than a chunk of inverses
    and take the multi-chunk path, here on a thread pool of a chosen size."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(relaxation, "CHUNK_BYTES", 1 << 15)

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

    @pytest.mark.parametrize("family,columns", [
        pytest.param("th", 2, id="th"), pytest.param("sv", 2, id="sv"),
        pytest.param("th", 1, id="th-1"), pytest.param("sv", 1, id="sv-1"),
        pytest.param("th", 3, id="th-3"), pytest.param("sv", 3, id="sv-3")])
    def test_column_block_bitwise_equal_for_any_worker_count(self, family,
                                                             columns,
                                                             workers):
        # One column of a block sweep equals the vector sweep bitwise. Wider
        # blocks agree with it to roundoff only: NumPy's stacked product
        # rounds an (m, m) times (m, c > 1) product differently from an
        # (m, m) times (m, 1) one.
        K, patches = vanka_level(family)
        R = np.random.default_rng(73).standard_normal((K.shape[0], columns))
        sweeps = []
        for count in (None, 1, 2):
            workers(count)
            factored = factor_patches(K, patches)
            sweeps.append(asm_apply(factored, R))
        assert all(np.array_equal(Z, sweeps[0]) for Z in sweeps[1:])
        for c in range(columns):
            z = asm_apply(factored, R[:, c])
            if columns == 1:
                assert np.array_equal(sweeps[0][:, c], z)
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
        executor = relaxation._executor
        monkeypatch.setattr(relaxation, "_executor", lambda: None)
        factored = factor_patches(K, patches)
        expected = asm_apply(factored, r)  # on this thread
        monkeypatch.setattr(relaxation, "_executor", executor)
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


def test_level_storing_less_than_a_chunk_stays_off_the_pool(monkeypatch):
    # The TH k4 cavity finest level at two refinements (ldc-th4-phmg's)
    # stores 1.4 MB of shared inverses, where the pool's handoffs cost more
    # than they save, so it factors and sweeps on the calling thread
    prob = lid_driven_cavity(2, 4)
    system = assemble_stokes(prob, mesh_hierarchy(prob)[-1])
    patches = build_vanka_star_patches(
        system.velocity_space.mesh, system.velocity_space,
        system.pressure_space, system.dirichlet_dofs)

    def no_pool():
        raise AssertionError("the level went to the thread pool")

    monkeypatch.setattr(relaxation, "_executor", no_pool)
    factored = factor_patches(system.K, patches)
    assert len(factored.blocks) > 1  # only its stored bytes keep it serial
    assert (sum(X.nbytes for _, X in factored.blocks)
            < relaxation.CHUNK_BYTES)
    R = np.random.default_rng(83).standard_normal((system.n, 2))
    asm_apply(factored, R[:, 0])
    asm_apply(factored, R)


def cavity_finest(family):
    """Operator and Vanka patches of the k4 cavity finest level at two
    refinements."""
    prob = lid_driven_cavity(2, 4, family=family)
    system = assemble_stokes(prob, mesh_hierarchy(prob)[-1])
    return system.K, build_vanka_star_patches(
        system.velocity_space.mesh, system.velocity_space,
        system.pressure_space, system.dirichlet_dofs)


@pytest.fixture(scope="module")
def sv4_finest():
    """ldc-sv4-phmg's finest level: 801 patches of up to 362 DoFs."""
    return cavity_finest("sv")


@pytest.fixture(scope="module")
def th4_finest():
    """ldc-th4-phmg's finest level: 289 patches of up to 141 DoFs."""
    return cavity_finest("th")


def factor_transient(K, patches):
    """Traced bytes that factoring holds at its peak beyond what it returns,
    relative to K's bytes."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        factored = factor_patches(K, patches)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - start - factored.nbytes) / (
        K.data.nbytes + K.indices.nbytes + K.indptr.nbytes)


class TestFactorMemory:
    # Beyond what it returns, factoring holds one transposed copy of K for
    # the symmetry check, with a one-byte mask per stored entry (under 1/12
    # of K's bytes) while it compares patterns; then the class search,
    # which holds one gather chunk, bounded by GATHER_ROWS to less than
    # that copy. So the transient stays within 1 + 1/12 of K, and 1.25
    # leaves room for the per-DoF arrays.
    def test_transient_within_five_quarters_of_the_operator(self,
                                                            sv4_finest):
        # 0.51 of K; 0.98 when the search gathered 8 MiB pieces, and 1.38
        # when it also held permuted class matrices
        assert factor_transient(*sv4_finest) <= 1.25

    def test_th4_transient_within_five_quarters_of_the_operator(
            self, th4_finest):
        # 0.82 of K; 3.6 when the search gathered 8 MiB pieces, whose row
        # gathers outgrew K (7.7 MB) here
        assert factor_transient(*th4_finest) <= 1.25

    def test_gather_piece_size_changes_no_class(self, sv4_finest,
                                                monkeypatch):
        # At one patch row per chunk the class search gathers one patch
        # matrix (about 1 MB here) at a time
        K, patches = sv4_finest
        r = np.random.default_rng(89).standard_normal(K.shape[0])
        default = factor_patches(K, patches)
        monkeypatch.setattr(relaxation, "GATHER_ROWS", 1)
        small = factor_patches(K, patches)
        assert small.inverses == default.inverses == 35
        assert np.array_equal(asm_apply(small, r), asm_apply(default, r))


def sv_cavity_level():
    """Operator and Vanka patches of SV k2 on the barycentric refinement of
    a 4 x 4 cavity grid: 57 patches with 35 distinct weighted matrices,
    whose repeats agree only to roundoff."""
    prob = cavity_problem(k=2, family="sv", n=4)
    mesh = refine_barycentric(prob.base_mesh)
    system = assemble_stokes(prob, mesh)
    return system.K, build_vanka_star_patches(
        mesh, system.velocity_space, system.pressure_space,
        system.dirichlet_dofs,
    )


def th_cavity_level():
    """Operator and Vanka patches of TH k4 on the uniform refinement of a
    4 x 4 cavity grid."""
    prob = cavity_problem(k=4, n=4)
    system = assemble_stokes(prob, refine_uniform(prob.base_mesh))
    return system.K, build_vanka_star_patches(
        system.velocity_space.mesh, system.velocity_space,
        system.pressure_space, system.dirichlet_dofs,
    )


def classes(factored):
    """(m, k) index lists of every class of patches sharing one inverse,
    one member per column, with that inverse."""
    return [(members, x) for I, X in factored.blocks
            for members, x in zip(I, X)]


def canonical_lists(patches):
    """Every patch's index list in canonical order, sorted by DoF rank."""
    return [idx[np.argsort(patches.rank[idx])] for idx in patches.indices]


def star_level():
    """Operator and scalar star patches of the P3 Laplacian on the uniform
    refinement of a 2 x 2 grid, boundary eliminated."""
    mesh = refine_uniform(generate_structured_grid(2))
    space = build_space(mesh, 3, "continuous")
    bdofs = space.boundary_scalar_dofs()
    K, _ = eliminate_dirichlet(assemble_vector_laplacian(space), bdofs, 0.0)
    return K, build_star_patches(mesh, space, bdofs)


LEVELS = pytest.mark.parametrize(
    "level", [th_cavity_level, sv_cavity_level, star_level],
    ids=["th", "sv", "star"])


class TestIndicesStoredOnce:
    @LEVELS
    def test_blocks_are_views_of_the_scatter_index(self, level):
        K, patches = level()
        factored = factor_patches(K, patches)
        assert len(factored.blocks) > 1
        assert all(np.shares_memory(I, factored.scatter)
                   for I, _ in factored.blocks)
        assert factored.nbytes == (sum(X.nbytes for _, X in factored.blocks)
                                   + factored.scatter.nbytes)

    @LEVELS
    def test_block_columns_sort_each_patch_by_rank(self, level):
        K, patches = level()
        assert np.array_equal(np.sort(patches.rank), np.arange(patches.n))
        factored = factor_patches(K, patches)
        assert factored.rank is patches.rank
        columns = [tuple(column) for members, _ in classes(factored)
                   for column in members.T]
        assert sorted(columns) == sorted(
            tuple(idx) for idx in canonical_lists(patches))


class TestSharedInverses:
    @pytest.mark.parametrize("level", [sv_cavity_level, th_cavity_level],
                             ids=["sv", "th"])
    def test_repeated_patches_share_and_match_their_own_inverse(self, level):
        K, patches = level()
        factored = factor_patches(K, patches)
        assert sum(len(X) for _, X in factored.blocks) < len(patches)
        dense = K.toarray()
        multiplicity = np.bincount(np.concatenate(patches.indices),
                                   minlength=K.shape[0])
        for members, x in classes(factored):
            for idx in members.T:
                own = (np.linalg.inv(dense[np.ix_(idx, idx)])
                       / multiplicity[idx][:, None])
                assert np.allclose(x, own, atol=1e-10)

    def test_perturbed_entry_gives_its_patches_their_own_inverse(self):
        K, patches = sv_cavity_level()
        members = next(members for members, _ in
                       classes(factor_patches(K, patches))
                       if members.shape[1] > 1)
        idx = members[:, 0]
        a = idx[0]
        b = idx[1 + np.argmax(np.abs(K[a, idx[1:]].toarray()))]
        K = K.tolil()
        delta = 1e-9 * abs(K).max()
        K[a, b] += delta
        K[b, a] += delta
        K = K.tocsr()
        factored = factor_patches(K, patches)
        holders = [i for i, idx in enumerate(patches.indices)
                   if a in idx and b in idx]
        assert len(holders) >= 2
        for members, _ in classes(factored):
            if members.shape[1] > 1:
                assert not any(a in idx and b in idx for idx in members.T)
        r = np.random.default_rng(79).standard_normal(K.shape[0])
        expected = dense_asm(K.toarray(), patches.indices) @ r
        error = np.abs(asm_apply(factored, r) - expected).max()
        assert error <= 1e-13 * np.abs(expected).max()

    def test_singular_patch_names_first_vertex_in_size_order(self):
        # Three singular patches; the first and last share a matrix, so
        # their chunk (k = 2) runs after the middle patch's (k = 1). The
        # error still names the first patch in (size, patch) order.
        S = np.ones((2, 2))
        K = sp.block_diag([S, 2.0 * S, S], format="csr")
        patches = PatchSet(6, [10, 11, 12],
                           [np.arange(2), np.arange(2, 4), np.arange(4, 6)])
        with pytest.raises(SingularMatrixError,
                           match="singular patch matrix at vertex 10:"):
            factor_patches(K, patches)

    def test_equal_matrices_with_unequal_weights_do_not_share(self):
        # Every patch matrix is 2 I; DoFs 4 and 5 lie in two patches, so
        # only the first and last patch have equal weights.
        K = sp.identity(10, format="csr") * 2.0
        patches = PatchSet(10, [0, 1, 2, 3],
                           [np.array([0, 1, 2]), np.array([3, 4, 5]),
                            np.array([4, 5, 6]), np.array([7, 8, 9])])
        factored = factor_patches(K, patches)
        shapes = [I.shape for I, _ in factored.blocks]
        assert shapes == [(2, 3, 1), (1, 3, 2)]
        assert np.array_equal(factored.blocks[1][0][0].T,
                              [[0, 1, 2], [7, 8, 9]])
        r = np.random.default_rng(83).standard_normal(10)
        expected = dense_asm(K.toarray(), patches.indices) @ r
        assert np.allclose(asm_apply(factored, r), expected, atol=1e-15)

    def test_unstructured_mesh_shares_nothing(self):
        # On the jittered backward-facing-step mesh no two patches repeat,
        # so each size group keeps the even split into the fewest chunks
        # of at most CHUNK_BYTES
        h = build_hierarchy(backward_facing_step(1, 4), 1, "phmg-direct")
        for level in h.levels[:-1]:
            blocks = level.patches.blocks
            assert all(I.shape[2] == 1 for I, _ in blocks)
            sizes = np.array([len(idx) for idx in level.patches.indices])
            expected = []
            for m in np.unique(sizes):
                p = int(np.sum(sizes == m))
                pieces = min(-(-p * 8 * m * m // relaxation.CHUNK_BYTES), p)
                expected += [len(part) for part in
                             np.array_split(np.arange(p), pieces)]
            assert [len(X) for _, X in blocks] == expected

    @pytest.mark.parametrize("family", ["th", "sv"])
    def test_blocks_hold_canonical_order_and_own_inverses(self, family):
        # With no repeats, the block columns list every patch's DoFs in
        # canonical order, in (size, patch) order, and each X is the
        # weighted inverse of its patch's matrix in that order
        h = build_hierarchy(backward_facing_step(1, 4, family=family), 1,
                            "phmg-direct")
        for level in h.levels[:-1]:
            patches = level.patches
            held = classes(patches)
            assert len(held) == len(patches)
            multiplicity = np.bincount(np.concatenate(patches.indices),
                                       minlength=patches.n)
            by_size = np.argsort([len(idx) for idx in patches.indices],
                                 kind="stable")
            canonical = canonical_lists(patches)
            for i, (members, x) in zip(by_size, held):
                idx = canonical[i]
                assert np.array_equal(members, idx[:, None])
                own = (np.linalg.inv(level.K[idx][:, idx].toarray())
                       / multiplicity[idx][:, None])
                assert np.allclose(x, own, atol=1e-10)

    @pytest.mark.parametrize("level, counts",
                             [(sv_cavity_level, (57, 35)),
                              (th_cavity_level, (81, 21))],
                             ids=["sv", "th"])
    def test_classes_match_all_pairs_first_match(self, level, counts):
        # Each patch, in patch order, joins the first earlier class whose
        # first member has its size and weights and whose matrix agrees
        # with its own within SHARE_TOL max|K|, compared in canonical order
        K, patches = level()
        dense = K.toarray()
        tol = relaxation.SHARE_TOL * np.abs(dense).max()
        multiplicity = np.bincount(np.concatenate(patches.indices),
                                   minlength=K.shape[0])
        canonical = canonical_lists(patches)
        expected = []
        for j, c in enumerate(canonical):
            for members in expected:
                r = canonical[members[0]]
                if (len(r) == len(c)
                        and np.array_equal(multiplicity[r], multiplicity[c])
                        and np.abs(dense[np.ix_(r, r)]
                                   - dense[np.ix_(c, c)]).max() <= tol):
                    members.append(j)
                    break
            else:
                expected.append([j])
        patch_of = {tuple(c): i for i, c in enumerate(canonical)}
        assert len(patch_of) == len(patches)
        found = sorted(sorted(patch_of[tuple(idx)] for idx in members.T)
                       for members, _ in classes(factor_patches(K, patches)))
        assert found == sorted(expected)
        assert (len(patches), len(expected)) == counts

    def test_fbf_velocity_stars_share_across_geometric_keys(self):
        # The scalar star patches of ldc-th4-fbf's inner hierarchy share
        # inverses across canonical geometric keys: the finest level has 9
        # distinct keys and 7 classes, the next two 7 keys and 3 classes
        _, pc = build_solver(lid_driven_cavity(2, 4), 2, "fbf-phmg")
        assert [(len(level.patches), level.patches.inverses)
                for level in pc.inner.levels[:-1]] == [(289, 7), (287, 3),
                                                      (79, 3)]

    def test_equal_fingerprints_with_unequal_matrices_do_not_share(self):
        # Two equal-size, equal-weight patches whose matrices A and A + E
        # differ by a symmetric E with h^T E g = 0 get equal fingerprints;
        # only the entrywise check keeps them apart.
        m = 4
        g, h = relaxation._fingerprint_vectors(m)
        A = 10.0 * np.eye(m) + np.ones((m, m))
        E = np.zeros((m, m))
        E[0, 1] = E[1, 0] = 1.0
        E[2, 2] = -(h[0] * g[1] + h[1] * g[0]) / (h[2] * g[2])
        assert abs(h @ E @ g) <= 1e-14 * (h @ np.abs(E) @ g)
        K = sp.block_diag([A, A + E], format="csr")
        assert np.abs(E).max() >= 1e10 * relaxation.SHARE_TOL * abs(K).max()
        patches = PatchSet(2 * m, [0, 1], [np.arange(m), np.arange(m, 2 * m)])
        factored = factor_patches(K, patches)
        assert factored.inverses == 2
        r = np.random.default_rng(89).standard_normal(2 * m)
        expected = dense_asm(K.toarray(), patches.indices) @ r
        error = np.abs(asm_apply(factored, r) - expected).max()
        assert error <= 1e-13 * np.abs(expected).max()

    def test_translated_patches_keep_their_count_under_refinement(self):
        # Interior vertex patches of a uniformly refined cavity are
        # translates of each other, so refining once more adds patches but
        # no distinct inverses on the finest level
        inverses = []
        for refinements in (1, 2):
            prob = lid_driven_cavity(refinements, 4)
            system = assemble_stokes(prob, mesh_hierarchy(prob)[-1])
            patches = build_vanka_star_patches(
                system.velocity_space.mesh, system.velocity_space,
                system.pressure_space, system.dirichlet_dofs)
            inverses.append(factor_patches(system.K, patches).inverses)
        assert inverses[0] == inverses[1]


class TestCanonicalOrder:
    @pytest.mark.parametrize("family", ["th", "sv"])
    def test_order_sorts_each_patch_by_its_key(self, family):
        # key: field, component, the node's offset from the patch vertex,
        # and in a discontinuous space the offset of the node's cell
        # centroid, all between positions rounded to the grid; ties by
        # sorted position
        prob = cavity_problem(k=3, family=family, n=2)
        mesh = refine_barycentric(refine_uniform(prob.base_mesh))
        system = assemble_stokes(prob, mesh)
        spaces = [system.velocity_space, system.pressure_space]
        patches = build_vanka_star_patches(mesh, *spaces,
                                           system.dirichlet_dofs)
        corner = mesh.vertices.min(axis=0)
        grid = relaxation.KEY_GRID * np.ptp(mesh.vertices, axis=0).max()
        on_grid = lambda x: tuple(np.rint((x - corner) / grid))
        centroids = mesh.vertices[mesh.cells].mean(axis=1)
        starts = [0, spaces[0].num_dofs]
        for v, idx in zip(patches.vertices, patches.indices):
            order = np.argsort(patches.rank[idx])
            assert np.array_equal(np.sort(order), np.arange(len(idx)))
            origin = np.array(on_grid(mesh.vertices[v]))
            keys = []
            for position in order:
                dof = idx[position]
                field = int(dof >= starts[1])
                space = spaces[field]
                node, component = divmod(dof - starts[field],
                                         space.components)
                cell = (on_grid(centroids[node // space.element.num_nodes])
                        if space.continuity == "discontinuous" else origin)
                keys.append((field, component,
                             *(on_grid(space.dof_coords[node]) - origin),
                             *(np.array(cell) - origin), position))
            assert keys == sorted(keys)

    def test_hand_built_patches_compare_in_sorted_order(self):
        # rank None is the identity ranking, the sorted order: two patches
        # whose matrices agree only after a permutation keep their own
        # inverses
        K = sp.block_diag([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])],
                          format="csr")
        patches = PatchSet(4, [0, 1], [np.arange(2), np.arange(2, 4)])
        assert factor_patches(K, patches).inverses == 2
        reordered = PatchSet(4, [0, 1], patches.indices, rank=[0, 1, 3, 2])
        factored = factor_patches(K, reordered)
        assert factored.inverses == 1
        I, X = factored.blocks[0]
        assert np.array_equal(I[0], [[0, 3], [1, 2]])
        r = np.random.default_rng(97).standard_normal(4)
        assert np.allclose(asm_apply(factored, r), r / np.diag(K.toarray()),
                           rtol=1e-15)


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
        omega = 2.0 / ((CHEBYSHEV_LOWER + CHEBYSHEV_UPPER) * lam)
        rng = np.random.default_rng(59)
        e = rng.standard_normal(vel.num_dofs)
        e[bdofs] = 0.0
        e_new = e - omega * asm_apply(factored, A_el @ e)
        a_norm = lambda v: float(v @ (A_el @ v))
        assert a_norm(e_new) < a_norm(e)
