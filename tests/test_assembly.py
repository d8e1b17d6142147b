import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import cavity_problem, pinned_solve, poiseuille_problem
from dense_oracles import loop_forcing
from stokesmg.assembly import (
    ProblemInstance,
    _assemble_forcing,
    _geometry,
    assemble_divergence,
    assemble_pressure_mass,
    assemble_stokes,
    assemble_vector_laplacian,
    cellwise_divergence,
    compute_divergence_norm,
    compute_errors,
    eliminate_dirichlet,
)
from stokesmg.mesh import Mesh, generate_structured_grid, refine_barycentric, refine_uniform
from stokesmg.problems import (backward_facing_step, lid_driven_cavity,
                               manufactured)
from stokesmg.quadrature import quadrature_rule
from stokesmg.solvers import mesh_hierarchy
from stokesmg.spaces import build_space


def reference_triangle_mesh():
    return Mesh(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]),
    )


def raw_operator(system):
    """The saddle operator of `system` before Dirichlet elimination."""
    A = assemble_vector_laplacian(system.velocity_space)
    B = assemble_divergence(system.velocity_space, system.pressure_space)
    return sp.bmat([[A, B.T], [B, None]], format="csr")


class TestProblemInstance:
    def test_rejects_uncovered_marker(self):
        mesh = generate_structured_grid(1)
        with pytest.raises(ValueError, match="no condition"):
            ProblemInstance("p", mesh, "th", 2, dirichlet={1: lambda x, y: (0, 0)})

    def test_rejects_double_condition(self):
        mesh = generate_structured_grid(1)
        g = lambda x, y: (0.0, 0.0)
        with pytest.raises(ValueError, match="two conditions"):
            ProblemInstance(
                "p", mesh, "th", 2,
                dirichlet={1: g, 2: g, 3: g, 4: g}, neumann={4: g},
            )

    def test_rejects_low_degree(self):
        mesh = generate_structured_grid(1)
        g = lambda x, y: (0.0, 0.0)
        with pytest.raises(ValueError, match="k >= 2"):
            ProblemInstance("p", mesh, "th", 1,
                            dirichlet={m: g for m in (1, 2, 3, 4)})

    @pytest.mark.parametrize("field, value", [
        ("k", 2.5), ("k", 3.0), ("k", True), ("k", "3"),
        ("refinements", -1), ("refinements", 1.5), ("refinements", None),
    ])
    def test_rejects_bad_degree_or_refinements(self, field, value):
        mesh = generate_structured_grid(1)
        g = lambda x, y: (0.0, 0.0)
        fields = {"k": 2, "refinements": 0, field: value}
        with pytest.raises(ValueError, match=field):
            ProblemInstance("p", mesh, "th", dirichlet={m: g for m in
                                                        (1, 2, 3, 4)},
                            **fields)

    def test_factories_validate_up_front(self):
        # a fractional degree used to fail deep inside quadrature, and a
        # negative refinement count was accepted
        with pytest.raises(ValueError, match="k must be an integer"):
            lid_driven_cavity(1, 2.5)
        with pytest.raises(ValueError, match="refinements must be >= 0"):
            lid_driven_cavity(-1, 2)
        assert lid_driven_cavity(np.int64(1), np.int64(2)).k == 2

    def test_nullspace_flag(self):
        assert cavity_problem().has_pressure_nullspace
        assert not poiseuille_problem().has_pressure_nullspace


class TestStokesAssembly:
    def test_A_symmetric(self):
        prob = cavity_problem(k=3)
        system = assemble_stokes(prob, prob.base_mesh)
        A = assemble_vector_laplacian(system.velocity_space)
        diff = A - A.T
        max_diff = np.abs(diff.data).max() if diff.nnz else 0.0
        assert max_diff < 1e-12 * np.abs(A.data).max()

    def test_pressure_pressure_block_zero(self):
        prob = cavity_problem()
        system = assemble_stokes(prob, prob.base_mesh)
        pp = system.K[system.n_u:, system.n_u:]
        assert pp.nnz == 0 or np.abs(pp.data).max() == 0.0

    def test_monolithic_matches_blocks(self):
        prob = cavity_problem(k=3)
        system = assemble_stokes(prob, prob.base_mesh)
        K_raw = raw_operator(system)
        K_ref, _ = eliminate_dirichlet(
            K_raw, system.dirichlet_dofs, system.dirichlet_values,
            np.zeros(system.n),
        )
        diff = system.K - K_ref
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0

    def test_constant_velocity_in_kernel(self):
        c = (1.5, -0.5)
        mesh = generate_structured_grid(2, domain=((-1.0, -1.0), (1.0, 1.0)))
        g = lambda x, y: c
        prob = ProblemInstance("const", mesh, "th", 2,
                               dirichlet={m: g for m in (1, 2, 3, 4)})
        system = assemble_stokes(prob, mesh)
        x = np.zeros(system.n)
        x[: system.n_u] = system.velocity_space.interpolate(g)
        res = system.K @ x - system.b
        assert np.abs(res).max() < 1e-12

    def test_A_rows_annihilate_constants(self):
        prob = cavity_problem(k=3)
        system = assemble_stokes(prob, prob.base_mesh)
        A = assemble_vector_laplacian(system.velocity_space)
        row_sums = np.asarray(A @ np.ones(system.n_u))
        assert np.abs(row_sums).max() < 1e-12 * np.abs(A.data).max()

    def test_B_annihilates_constant_velocity(self):
        prob = cavity_problem(k=4)
        system = assemble_stokes(prob, prob.base_mesh)
        const = system.velocity_space.interpolate(lambda x, y: (2.0, 3.0))
        B = assemble_divergence(system.velocity_space, system.pressure_space)
        assert np.abs(B @ const).max() < 1e-12

    def test_dirichlet_rows_identity(self):
        prob = cavity_problem()
        system = assemble_stokes(prob, prob.base_mesh)
        K = system.K.tocsr()
        for d in system.dirichlet_dofs:
            row = K.getrow(d).toarray().ravel()
            expected = np.zeros(system.n)
            expected[d] = 1.0
            assert np.array_equal(row, expected)
        assert np.allclose(system.b[system.dirichlet_dofs],
                           system.dirichlet_values)

    def test_elimination_needs_stored_diagonal(self):
        K = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        K.eliminate_zeros()
        with pytest.raises(ValueError, match="no stored diagonal for "
                                             "Dirichlet DoF 1"):
            eliminate_dirichlet(K, [0, 1], [0.0, 0.0])
        assert np.array_equal(K.toarray(), [[2.0, 1.0], [1.0, 0.0]])

    def test_later_marker_wins_at_shared_vertices(self):
        mesh = generate_structured_grid(2)
        g = {m: (lambda x, y, m=m: (float(m), 0.0)) for m in (1, 2, 3, 4)}
        system = assemble_stokes(ProblemInstance("markers", mesh, "th", 2, g),
                                 mesh)
        values = dict(zip(system.dirichlet_dofs.tolist(),
                          system.dirichlet_values.tolist()))
        corners = {(0.0, 0.0): 4, (1.0, 0.0): 2, (0.0, 1.0): 4, (1.0, 1.0): 3}
        for g_dof, xy in enumerate(system.velocity_space.dof_coords):
            if tuple(xy) in corners:
                assert values[2 * g_dof] == corners[tuple(xy)]

    def test_nullspace_vector_exact(self):
        prob = cavity_problem(k=3)
        system = assemble_stokes(prob, prob.base_mesh)
        c = system.pressure_nullvector()
        assert np.abs(system.K @ c).max() < 1e-13

    def test_determinism(self):
        prob = cavity_problem(k=3)
        s1 = assemble_stokes(prob, prob.base_mesh)
        s2 = assemble_stokes(prob, prob.base_mesh)
        assert np.array_equal(s1.K.indptr, s2.K.indptr)
        assert np.array_equal(s1.K.indices, s2.K.indices)
        assert np.abs(s1.K.data - s2.K.data).max() < 1e-15
        assert np.array_equal(s1.b, s2.b)

    def test_sv_requires_barycentric(self):
        prob = cavity_problem(k=2, family="sv")
        with pytest.raises(ValueError, match="barycentric"):
            assemble_stokes(prob, prob.base_mesh)
        assemble_stokes(prob, refine_barycentric(prob.base_mesh))

    def test_elimination_preserves_pattern(self):
        prob = cavity_problem()
        system = assemble_stokes(prob, prob.base_mesh)
        K_raw = raw_operator(system)
        K_raw.sum_duplicates()
        assert system.K.nnz == K_raw.nnz
        assert np.array_equal(system.K.indices, K_raw.indices)

    def test_elimination_overwrites_its_input(self):
        prob = cavity_problem()
        system = assemble_stokes(prob, prob.base_mesh)
        K = raw_operator(system)
        indptr, indices = K.indptr.copy(), K.indices.copy()
        b = np.ones(system.n)
        out, lifted = eliminate_dirichlet(K, system.dirichlet_dofs,
                                          system.dirichlet_values, b)
        assert out is K
        assert np.array_equal(K.indptr, indptr)
        assert np.array_equal(K.indices, indices)
        assert np.array_equal(K.data, system.K.data)
        assert np.all(b == 1.0) and lifted is not b

    @pytest.mark.parametrize("family", ["sv", "th"])
    def test_traced_peak_within_three_times_the_operator(self, family):
        # The blocks, the joined matrix and the elimination together hold
        # at most three times K's bytes on the k4 cavity at one refinement
        # (about 3.6 times when the join went through COO and the
        # elimination copied K)
        prob = lid_driven_cavity(1, 4, family=family)
        mesh = mesh_hierarchy(prob)[-1]
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            system = assemble_stokes(prob, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        K = system.K
        assert peak - start <= 3 * (K.data.nbytes + K.indices.nbytes
                                    + K.indptr.nbytes)


class TestForcing:
    def test_matches_per_cell_assembly(self):
        prob = manufactured(1, 4)
        # cells of every size and shape: the unstructured step mesh
        step = backward_facing_step(0, 2).base_mesh
        for mesh in (refine_barycentric(prob.base_mesh), step):
            space = build_space(mesh, 4, "continuous", components=2)
            rule = quadrature_rule(8)
            b = _assemble_forcing(space, prob.forcing, rule)
            expected = loop_forcing(space, prob.forcing, rule)
            assert np.abs(b - expected).max() <= 1e-14 * np.abs(expected).max()

    def test_one_call_on_arrays_and_scalars_broadcast(self):
        calls = []

        def force(x, y):
            calls.append(np.shape(x))
            return 1.0, 0.0

        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "continuous", components=2)
        rule = quadrature_rule(4)
        b = _assemble_forcing(space, force, rule)
        assert calls == [(mesh.num_cells, len(rule.weights))]
        # a constant force integrates each basis function once
        assert b[0::2].sum() == pytest.approx(1.0)
        assert np.all(b[1::2] == 0.0)


class TestNeumann:
    def test_poiseuille_exact(self):
        prob = poiseuille_problem(n=4)
        system = assemble_stokes(prob, prob.base_mesh)
        x = pinned_solve(system)
        u, p = system.split(x)
        u_exact = system.velocity_space.interpolate(prob.exact_u)
        p_exact = system.pressure_space.interpolate(
            lambda x_, y_: prob.exact_p(x_, y_)
        )
        assert np.abs(u - u_exact).max() < 1e-10
        assert np.abs(p - p_exact).max() < 1e-9


class TestPressureMass:
    def test_reference_triangle_p0(self):
        mesh = reference_triangle_mesh()
        space = build_space(mesh, 0, "discontinuous")
        M = assemble_pressure_mass(space)
        assert M.shape == (1, 1)
        assert M[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_discontinuous_p2_block_structure(self):
        mesh = generate_structured_grid(2)
        space = build_space(mesh, 2, "discontinuous")
        M = assemble_pressure_mass(space).tocsr()
        T = mesh.num_cells
        assert M.shape == (6 * T, 6 * T)
        dense = M.toarray()
        for t in range(T):
            block = slice(6 * t, 6 * (t + 1))
            outside = dense.copy()
            outside[block, block] = 0.0
            assert np.abs(outside[block, :]).max() == 0.0

    def test_spd_and_total_sum_is_area(self):
        mesh = generate_structured_grid(3, domain=((-1.0, -1.0), (1.0, 1.0)))
        for k, cont in [(1, "continuous"), (2, "continuous"), (1, "discontinuous")]:
            space = build_space(mesh, k, cont)
            M = assemble_pressure_mass(space)
            assert np.abs(M.sum() - 4.0) < 1e-12
            eigs = np.linalg.eigvalsh(M.toarray())
            assert eigs.min() > 0


class TestDivergence:
    def test_rotation_divergence_free(self):
        mesh = generate_structured_grid(3)
        space = build_space(mesh, 2, "continuous", components=2)
        u = space.interpolate(lambda x, y: (y, -x))
        assert compute_divergence_norm(u, space) < 1e-13

    def test_linear_expansion(self):
        mesh = generate_structured_grid(3, domain=((0.0, 0.0), (2.0, 2.0)))
        space = build_space(mesh, 2, "continuous", components=2)
        u = space.interpolate(lambda x, y: (x, y))
        assert compute_divergence_norm(u, space) == pytest.approx(
            2.0 * np.sqrt(4.0), rel=1e-13
        )

    def test_sv_divergence_lands_in_pressure_space(self):
        # For Scott-Vogelius pairs, the cellwise L2 projection of div(u)
        # onto the discontinuous pressure space reproduces it pointwise.
        mesh = refine_barycentric(generate_structured_grid(2))
        k = 3
        vel = build_space(mesh, k, "continuous", components=2)
        pres = build_space(mesh, k - 1, "discontinuous")
        rng = np.random.default_rng(7)
        u = rng.standard_normal(vel.num_dofs)
        rule = quadrature_rule(2 * k)
        div = cellwise_divergence(u, vel, rule)
        psi, _ = pres.element.tabulate(rule.xy)
        M_loc = np.einsum("qi,qj,q->ij", psi, psi, rule.weights)
        rhs = np.einsum("qi,q,tq->ti", psi, rule.weights, div)
        coef = np.linalg.solve(M_loc, rhs.T).T
        recon = np.einsum("qi,ti->tq", psi, coef)
        assert np.abs(recon - div).max() < 1e-12


class TestElementContractions:
    """A and B against the element integrals written as einsum formulas and
    applied cell by cell; the stacked products sum in another order, so the
    bound is 1e-13 relative (float64 roundoff over a few hundred terms)."""

    @pytest.mark.parametrize("barycentric,k", [(False, 3), (True, 4)])
    def test_match_einsum_formulas(self, barycentric, k):
        mesh = generate_structured_grid(2, domain=((0.0, 0.0), (2.0, 1.0)))
        mesh = refine_barycentric(mesh) if barycentric else mesh
        vel = build_space(mesh, k, "continuous", components=2)
        pres = build_space(mesh, k - 1, "discontinuous" if barycentric
                           else "continuous")
        rule = quadrature_rule(2 * k)
        detJ, JinvT = _geometry(mesh)
        _, ref_grads = vel.element.tabulate(rule.xy)
        psi, _ = pres.element.tabulate(rule.xy)
        grads = np.einsum("qnd,ted->tqne", ref_grads, JinvT)
        lap = np.einsum("tqnd,tqmd,q,t->tnm", grads, grads, rule.weights, detJ)
        div = -np.einsum("qi,tqjc,q,t->tijc", psi, grads, rule.weights, detJ)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(vel.num_dofs)
        dofs = 2 * vel.cell_scalar_dofs[:, :, None] + np.arange(2)  # (T, n, 2)
        Au, Bu = np.zeros(vel.num_dofs), np.zeros(pres.num_dofs)
        np.add.at(Au, dofs, np.einsum("tnm,tmc->tnc", lap, u[dofs]))
        np.add.at(Bu, pres.cell_scalar_dofs,
                  np.einsum("tijc,tjc->ti", div, u[dofs]))
        A = assemble_vector_laplacian(vel)
        B = assemble_divergence(vel, pres)
        assert np.abs(A @ u - Au).max() <= 1e-13 * np.abs(Au).max()
        assert np.abs(B @ u - Bu).max() <= 1e-13 * np.abs(Bu).max()

    @pytest.mark.parametrize("barycentric,k", [(False, 3), (True, 4)])
    def test_two_components_are_two_scalar_laplacians(self, barycentric, k):
        # the components do not couple, but the cross-component zeros of
        # every node pair are stored
        mesh = generate_structured_grid(2, domain=((0.0, 0.0), (2.0, 1.0)))
        mesh = refine_barycentric(mesh) if barycentric else mesh
        A = assemble_vector_laplacian(
            build_space(mesh, k, "continuous", components=2))
        S = assemble_vector_laplacian(build_space(mesh, k, "continuous"))
        pattern = sp.csr_matrix((np.ones(S.nnz), S.indices, S.indptr),
                                shape=S.shape)
        stored = sp.kron(pattern, np.ones((2, 2)), format="csr")
        stored.sort_indices()
        assert np.array_equal(A.indptr, stored.indptr)
        assert np.array_equal(A.indices, stored.indices)
        assert abs(A - sp.kron(S, np.eye(2))).max() <= 1e-15 * abs(S).max()


class TestErrors:
    def test_interpolant_against_itself(self):
        prob = poiseuille_problem(n=2)
        system = assemble_stokes(prob, prob.base_mesh)
        u = system.velocity_space.interpolate(prob.exact_u)
        p = system.pressure_space.interpolate(lambda x, y: prob.exact_p(x, y))
        eu, ep = compute_errors(
            u, p, system.velocity_space, system.pressure_space,
            prob.exact_u, prob.exact_p,
        )
        assert eu < 1e-12 and ep < 1e-12

    def test_zero_field_gives_norm(self):
        mesh = generate_structured_grid(3)
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, "continuous")
        exact_u = lambda x, y: (1.0, 2.0)
        exact_p = lambda x, y: 0.0
        eu, _ = compute_errors(
            np.zeros(vel.num_dofs), np.zeros(pres.num_dofs),
            vel, pres, exact_u, exact_p,
        )
        assert eu == pytest.approx(np.sqrt(5.0), rel=1e-12)

    def test_mean_subtraction_kills_constant_offset(self):
        mesh = generate_structured_grid(2)
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, "continuous")
        p = pres.interpolate(lambda x, y: x + 5.0)
        _, ep = compute_errors(
            np.zeros(vel.num_dofs), p, vel, pres,
            lambda x, y: (0.0, 0.0), lambda x, y: x,
            subtract_pressure_mean=True,
        )
        assert ep < 1e-13


class TestNnzPerDof:
    def test_th_k3_matches_reported_density(self):
        # Average stored entries per DoF for the cavity at degree 3 after
        # three refinements of the 4x4 base grid: about 45.
        mesh = generate_structured_grid(4, domain=((-1.0, -1.0), (1.0, 1.0)))
        for _ in range(3):
            mesh = refine_uniform(mesh)
        prob = cavity_problem(k=3)
        system = assemble_stokes(prob, mesh)
        ratio = system.K.nnz / system.n
        assert 45 * 0.9 <= ratio <= 45 * 1.1
