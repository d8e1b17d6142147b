import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import cavity_problem, pinned_solve, poiseuille_problem
from dense_oracles import (dense_asm, dense_cycle_matrix, dense_fbf,
                           eq_defect_correction, eq_two_level, level_smoother,
                           probe_columns, reference_vcycle)

from stokesmg import solvers
from stokesmg.assembly import (SaddleSystem, assemble_pressure_mass,
                               assemble_stokes)
from stokesmg.linalg import CHEBYSHEV_UPPER
from stokesmg.problems import (backward_facing_step, lid_driven_cavity,
                               manufactured)
from stokesmg.relaxation import PatchSet
from stokesmg.timing import Timings
from stokesmg.solvers import (FBFPreconditioner, MGHierarchy, build_fbf,
                              build_hierarchy, build_solver, fbf_apply,
                              make_apply, mesh_hierarchy,
                              p_coarsening_schedule, solve_stokes, vcycle)


def run_script(script):
    """Run `script` in a fresh interpreter that imports this stokesmg, with
    one BLAS thread; fail with its stderr unless it exits with status 0."""
    src = os.path.dirname(os.path.dirname(solvers.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


class TestPCoarseningSchedule:
    @pytest.mark.parametrize("k,mode,expected", [
        (2, "direct", [2]),
        (2, "gradual", [2]),
        (3, "direct", [3, 2]),
        (5, "gradual", [5, 2]),
        (6, "direct", [6, 2]),
        (6, "gradual", [6, 4, 2]),
        (7, "gradual", [7, 4, 2]),
        (8, "gradual", [8, 5, 2]),
        (10, "gradual", [10, 5, 2]),
        (10, "direct", [10, 2]),
    ])
    def test_schedules(self, k, mode, expected):
        assert p_coarsening_schedule(k, mode) == expected

    def test_direct_equals_gradual_for_low_orders(self):
        for k in (3, 4, 5):
            assert (p_coarsening_schedule(k, "direct")
                    == p_coarsening_schedule(k, "gradual"))

    @pytest.mark.parametrize("k", [1, 11])
    def test_order_out_of_range(self, k):
        with pytest.raises(ValueError, match="range"):
            p_coarsening_schedule(k, "direct")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            p_coarsening_schedule(4, "steep")


class TestBuildHmg:
    def test_level_shapes(self):
        prob = cavity_problem(n=2)
        h = build_hierarchy(prob, 2, "hmg")
        assert len(h.levels) == 3
        kinds = [lv.kind for lv in h.levels]
        assert kinds == ["h", "h", "h"]
        dims = [lv.n for lv in h.levels]
        assert dims[0] > dims[1] > dims[2]
        for up, low in zip(h.levels, h.levels[1:]):
            assert up.P.shape == (up.n, low.n)
        assert h.levels[-1].P is None
        assert h.levels[-1].patches is None
        assert all(lv.lambda_max > 0 for lv in h.levels[:-1])
        assert h.levels[-1].lambda_max == 0.0

    def test_rejects_scott_vogelius(self):
        prob = cavity_problem(family="sv")
        with pytest.raises(ValueError, match="Scott-Vogelius"):
            build_hierarchy(prob, 1, "hmg")

    def test_large_single_level_is_a_direct_solve(self):
        # 21,219 DoFs on one level: the coarse solve alone is the cycle.
        prob = lid_driven_cavity(0, 2, base_n=48)
        h = build_hierarchy(prob, 0, "hmg")
        assert len(h.levels) == 1 and h.n > 20_000
        system = h.system
        c = system.pressure_nullvector()
        r = system.b - system.K @ vcycle(h, system.b)
        r -= c * (c @ r)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(system.b)

    def test_rejects_bad_cycle_params(self):
        prob = cavity_problem(n=2)
        with pytest.raises(ValueError, match=">= 1"):
            build_hierarchy(prob, 1, "hmg", nu_h=0)

    @pytest.mark.parametrize("param", ["n_V", "nu_p", "nu_h"])
    def test_bad_cycle_params_rejected_before_assembly(self, monkeypatch,
                                                        param):
        def no_setup(*args, **kwargs):
            raise AssertionError("setup ran before the cycle-parameter check")

        monkeypatch.setattr(solvers, "assemble_stokes", no_setup)
        monkeypatch.setattr(solvers, "assemble_vector_laplacian", no_setup)
        for monolithic in (True, False):
            with pytest.raises(ValueError, match=">= 1"):
                build_hierarchy(cavity_problem(n=2), 1, "phmg-direct",
                                monolithic=monolithic, **{param: 0})


class TestBuildPhmg:
    def test_gradual_k6_shape(self):
        prob = lid_driven_cavity(2, 6)
        h = build_hierarchy(prob, 2, "phmg-gradual")
        summary = h.level_summary()
        assert [(s[0], s[2]) for s in summary] == [
            ("p", 6), ("p", 4), ("p", 2), ("h", 2), ("h", 2)]
        cells = [s[3] for s in summary]
        assert cells[0] == cells[1] == cells[2]  # p-levels share the mesh
        assert cells[2] == 4 * cells[3] == 16 * cells[4]

    def test_direct_k6_shape(self):
        prob = lid_driven_cavity(2, 6)
        h = build_hierarchy(prob, 2, "phmg-direct")
        assert [(s[0], s[2]) for s in h.level_summary()] == [
            ("p", 6), ("p", 2), ("h", 2), ("h", 2)]

    def test_direct_equals_gradual_shape_for_k4(self):
        prob = lid_driven_cavity(1, 4)
        a = build_hierarchy(prob, 1, "phmg-direct").level_summary()
        b = build_hierarchy(prob, 1, "phmg-gradual").level_summary()
        assert a == b

    def test_k2_degenerates_to_h_cycle(self):
        prob = lid_driven_cavity(1, 2)
        h = build_hierarchy(prob, 1, "phmg-direct")
        assert all(lv.kind == "h" for lv in h.levels)
        assert [s[2] for s in h.level_summary()] == [2, 2]

    def test_sv_shape(self):
        prob = lid_driven_cavity(2, 3, family="sv")
        h = build_hierarchy(prob, 2, "phmg-direct")
        summary = h.level_summary()
        assert [(s[0], s[1], s[2]) for s in summary] == [
            ("p", "sv", 3), ("p", "th", 2), ("h", "th", 2), ("h", "th", 2),
            ("h", "th", 2)]
        # the two finest levels live on the barycentric mesh; the h-levels
        # descend the plain chain
        assert summary[0][3] == summary[1][3] == 3 * summary[2][3]

    def test_sv_k2_keeps_taylor_hood_companion_level(self):
        prob = lid_driven_cavity(1, 2, family="sv")
        h = build_hierarchy(prob, 1, "phmg-direct")
        fams = [(s[0], s[1], s[2]) for s in h.level_summary()]
        assert fams[0] == ("p", "sv", 2)
        assert fams[1] == ("p", "th", 2)
        assert all(f[0] == "h" for f in fams[2:])

    @pytest.mark.parametrize("monolithic", [True, False])
    def test_level_table_counts_patches_inverses_and_bytes(self, monolithic):
        h = build_hierarchy(lid_driven_cavity(1, 3, family="sv"), 1,
                            "phmg-direct", monolithic=monolithic)
        summary = h.level_summary()
        for level, row in zip(h.levels, summary):
            assert len(row) == 8
            assert row[:5] == (level.kind, level.family, level.k,
                               level.mesh.num_cells, level.n)
            p = level.patches
            if p is None:
                assert row[5:] == (0, 0, 0)
                continue
            assert row[5] == len(p.indices)
            assert row[6] == sum(X.shape[0] for _, X in p.blocks)
            assert row[7] == (sum(I.nbytes + X.nbytes for I, X in p.blocks)
                              + p.scatter.nbytes)
        # the barycentric finest level repeats most of its patches
        assert summary[0][6] < summary[0][5]


class TestVelocityHierarchy:
    def test_hmg_descends_at_fixed_degree(self):
        prob = lid_driven_cavity(2, 3)
        h = build_hierarchy(prob, 2, "hmg", monolithic=False)
        assert [s[2] for s in h.level_summary()] == [3, 3, 3]
        assert [s[0] for s in h.level_summary()] == ["h", "h", "h"]

    def test_phmg_direct_coarsens_p_then_h(self):
        prob = lid_driven_cavity(2, 4)
        h = build_hierarchy(prob, 2, "phmg-direct", monolithic=False)
        assert [(s[0], s[2]) for s in h.level_summary()] == [
            ("p", 4), ("p", 2), ("h", 2), ("h", 2)]

    def test_sv_velocity_hierarchy_includes_barycentric(self):
        prob = lid_driven_cavity(1, 2, family="sv")
        h = build_hierarchy(prob, 1, "hmg", monolithic=False)
        cells = [s[3] for s in h.level_summary()]
        assert cells[0] == 3 * cells[1]  # barycentric finest, then the chain
        assert len(cells) == 3

    @pytest.mark.parametrize("solver", ["fbf-hmg", "fbf-phmg"])
    def test_levels_are_scalar_laplacians(self, solver):
        # grad:grad on interleaved components is two copies of the scalar
        # operator with the same Dirichlet rows, so the outer velocity block
        # restricted to either component is the inner finest operator
        system, pc = build_solver(lid_driven_cavity(1, 3), 1, solver)
        inner = pc.inner
        for level in inner.levels:
            space, = level.spaces
            assert space.components == 1
            assert level.n == space.num_scalar_dofs
            assert level.family is None
        top = inner.levels[0]
        assert 2 * top.n == system.n_u
        assert np.array_equal(
            top.dirichlet_dofs, top.spaces[0].boundary_scalar_dofs(
                markers={1, 2, 3, 4}))
        assert np.array_equal(
            system.dirichlet_dofs,
            system.velocity_space.expand_components(top.dirichlet_dofs))
        K_u = system.K[:system.n_u, :system.n_u]
        assert abs(K_u[0::2, 1::2]).max() == 0.0
        for c in (0, 1):
            diff = K_u[c::2, c::2] - top.K
            assert abs(diff).max() <= 1e-14 * abs(top.K).max()

    def test_unknown_cycle(self):
        prob = lid_driven_cavity(1, 2)
        with pytest.raises(ValueError, match="cycle"):
            build_hierarchy(prob, 1, "wmg", monolithic=False)


@pytest.mark.parametrize("solver", ["phmg-direct", "fbf-phmg"])
def test_hierarchy_keeps_only_the_finest_saddle_system(solver):
    system, pc = build_solver(lid_driven_cavity(1, 3), 1, solver)
    h = pc if isinstance(pc, MGHierarchy) else pc.inner
    assert h.system is (system if h is pc else None)
    if h is pc:
        assert h.levels[0].spaces == (system.velocity_space,
                                      system.pressure_space)
    for level in h.levels:
        assert not any(isinstance(value, SaddleSystem)
                       for value in vars(level).values())


class TestColumnBlocks:
    """`vcycle` on an (n, c) block runs one cycle for all columns."""

    @pytest.fixture(scope="class", params=["hmg", "phmg-direct"])
    def velocity_hierarchy(self, request):
        return build_hierarchy(lid_driven_cavity(2, 3), 2, request.param,
                               monolithic=False, n_V=2)

    def test_block_equals_columnwise_cycles(self, velocity_hierarchy):
        h = velocity_hierarchy
        B = np.random.default_rng(43).standard_normal((h.n, 2))
        X = vcycle(h, B)
        assert X.shape == (h.n, 2)
        for c in range(2):
            x = vcycle(h, B[:, c])
            assert np.abs(X[:, c] - x).max() <= 1e-13 * np.abs(x).max()

    def test_one_visit_per_level_for_the_whole_block(self,
                                                     velocity_hierarchy):
        h = velocity_hierarchy
        visits, expected = 1, {}
        for i, (upper, level) in enumerate(zip(h.levels, h.levels[1:])):
            expected[f"rlx(l={i})"] = 2 * visits
            if upper.kind == "p" and level.kind == "h":
                visits *= h.n_V
        expected["coarse"] = visits
        for b in (np.ones(h.n), np.ones((h.n, 2))):
            timer = Timings()
            vcycle(h, b, timer=timer)
            assert {k: timer.calls[k] for k in expected} == expected

    def test_block_equals_scipy_block_products_bitwise(self,
                                                       velocity_hierarchy,
                                                       monkeypatch):
        # The cycle's column-by-column products give the bits of SciPy's
        # multi-vector kernel.
        h = velocity_hierarchy
        B = np.random.default_rng(47).standard_normal((h.n, 2))
        X = vcycle(h, B)
        monkeypatch.setattr(solvers, "spmv", lambda A, X: A @ X)
        assert np.array_equal(X.view(np.uint64), vcycle(h, B).view(np.uint64))

    @pytest.mark.parametrize("shape", [(3,), (3, 2), (None, 2, 1)])
    def test_rejects_other_shapes(self, velocity_hierarchy, shape):
        h = velocity_hierarchy
        with pytest.raises(ValueError, match="expected"):
            vcycle(h, np.zeros([h.n if d is None else d for d in shape]))


class TestVcycleBasics:
    def test_zero_rhs(self):
        h = build_hierarchy(poiseuille_problem(), 1, "hmg")
        x = vcycle(h, np.zeros(h.levels[0].n))
        assert np.all(x == 0.0)

    def test_single_level_is_direct_solve(self):
        prob = poiseuille_problem(n=2)
        h = build_hierarchy(prob, 0, "hmg")
        system = h.system
        x = vcycle(h, system.b)
        assert np.linalg.norm(system.K @ x - system.b) <= 1e-10 * np.linalg.norm(
            system.b)

    def test_single_level_enclosed_flow(self):
        prob = cavity_problem(n=2)
        h = build_hierarchy(prob, 0, "hmg")
        system = h.system
        x = vcycle(h, system.b)
        r = system.b - system.K @ x
        assert np.linalg.norm(r) <= 1e-10 * max(np.linalg.norm(system.b), 1.0)

    def test_linearity(self):
        h = build_hierarchy(poiseuille_problem(), 1, "hmg")
        n = h.levels[0].n
        rng = np.random.default_rng(3)
        b1, b2 = rng.standard_normal(n), rng.standard_normal(n)
        lhs = vcycle(h, 2.0 * b1 - 0.5 * b2)
        rhs = 2.0 * vcycle(h, b1) - 0.5 * vcycle(h, b2)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)

    def test_shape_mismatch(self):
        h = build_hierarchy(poiseuille_problem(), 1, "hmg")
        with pytest.raises(ValueError, match="expected"):
            vcycle(h, np.zeros(3))


class TestDenseOracles:
    def test_two_level_propagator_matches_formula(self):
        prob = poiseuille_problem(n=2)
        h = build_hierarchy(prob, 1, "hmg")
        K = h.levels[0].K.toarray()
        n = h.levels[0].n
        assert n <= 500
        S, _ = level_smoother(h.levels[0])
        G_formula = eq_two_level(S, h.levels[0].P.toarray(),
                                 h.levels[1].K.toarray(), K)
        G_impl = np.eye(n) - probe_columns(lambda b: vcycle(h, b), n) @ K
        assert np.abs(G_formula - G_impl).max() <= 1e-11

    def test_phmg_defect_correction_matches_formula(self):
        prob = poiseuille_problem(n=1, k=3)
        h = build_hierarchy(prob, 2, "phmg-direct", n_V=2)
        assert [(s[0], s[2]) for s in h.level_summary()] == [
            ("p", 3), ("p", 2), ("h", 2), ("h", 2)]
        K0 = h.levels[0].K.toarray()
        n = h.levels[0].n
        assert n <= 500
        # two-level h-propagator at the bottom of the hierarchy
        S2, _ = level_smoother(h.levels[2])
        G_h = eq_two_level(S2, h.levels[2].P.toarray(),
                           h.levels[3].K.toarray(), h.levels[2].K.toarray())
        # defect correction at the p->h boundary runs the h-cycle n_V times
        S1, _ = level_smoother(h.levels[1])
        G_dc = eq_defect_correction(S1, h.levels[1].P.toarray(),
                                    h.levels[2].K.toarray(), G_h, 2,
                                    h.levels[1].K.toarray())
        # outermost p-level wraps the corrected low-order solve once
        S0, _ = level_smoother(h.levels[0])
        G_formula = eq_defect_correction(S0, h.levels[0].P.toarray(),
                                         h.levels[1].K.toarray(), G_dc, 1, K0)
        G_impl = np.eye(n) - probe_columns(lambda b: vcycle(h, b), n) @ K0
        assert np.abs(G_formula - G_impl).max() <= 1e-11

    def test_recursive_cycle_matrix_matches_implementation(self):
        prob = poiseuille_problem(n=1, k=3)
        h = build_hierarchy(prob, 2, "phmg-direct", n_V=2)
        M_dense = dense_cycle_matrix(h)
        M_impl = probe_columns(lambda b: vcycle(h, b), h.levels[0].n)
        assert np.abs(M_dense - M_impl).max() <= 1e-11


class TestResidualForm:
    """`vcycle` smooths residuals from zero; the guess-carrying form in
    `reference_vcycle` does the same arithmetic up to roundoff, with more
    patch sweeps."""

    HIERARCHIES = [  # family, k, refinements, cycle, n_V, monolithic
        ("th", 3, 2, "phmg-direct", 2, True),
        ("sv", 3, 1, "phmg-direct", 2, True),
        ("th", 6, 2, "phmg-gradual", 3, True),
        ("th", 2, 2, "hmg", 1, True),
        ("th", 3, 2, "phmg-direct", 2, False),
    ]

    @staticmethod
    def _hierarchy(family, k, refinements, cycle, n_V, monolithic):
        prob = lid_driven_cavity(refinements, k, family=family)
        return build_hierarchy(prob, refinements, cycle,
                               monolithic=monolithic, n_V=n_V)

    @pytest.mark.parametrize("config", HIERARCHIES)
    def test_matches_guess_carrying_cycle(self, config):
        h = self._hierarchy(*config)
        b = np.random.default_rng(41).standard_normal(h.n)
        ref = reference_vcycle(h, b)
        assert (np.abs(vcycle(h, b) - ref).max()
                <= 1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("config", [HIERARCHIES[0], HIERARCHIES[2],
                                        HIERARCHIES[4]])
    def test_two_nu_sweeps_per_level_visit(self, config, monkeypatch):
        h = self._hierarchy(*config)
        calls = []

        def counted(patches, r, _apply=solvers.asm_apply):
            calls.append(patches)
            return _apply(patches, r)

        monkeypatch.setattr(solvers, "asm_apply", counted)
        vcycle(h, np.ones(h.n))
        expected, visits = 0, 1
        for upper, level in zip(h.levels, h.levels[1:]):
            expected += 2 * upper.nu * visits
            if upper.kind == "p" and level.kind == "h":
                visits *= h.n_V
        assert len(calls) == expected


def _snapshot(obj):
    """Each attribute with a copy of its contents."""
    return {name: (value, _contents(value))
            for name, value in vars(obj).items()}


def _contents(value):
    """Arrays are copied; containers and the patch smoother are descended
    into; anything else is compared by identity only."""
    if isinstance(value, (list, tuple)):
        return [(item, _contents(item)) for item in value]
    if isinstance(value, dict):
        return {key: (item, _contents(item)) for key, item in value.items()}
    if isinstance(value, np.ndarray) or sp.issparse(value):
        return value.copy()
    if isinstance(value, PatchSet):
        return _snapshot(value)
    return None


def _unchanged(value, contents):
    if isinstance(value, (list, tuple)):
        return len(value) == len(contents) and all(
            item is before and _unchanged(item, c)
            for item, (before, c) in zip(value, contents))
    if isinstance(value, dict):
        return value.keys() == contents.keys() and all(
            value[key] is before and _unchanged(value[key], c)
            for key, (before, c) in contents.items())
    if isinstance(value, np.ndarray):
        return np.array_equal(value, contents)
    if sp.issparse(value):
        return (value != contents).nnz == 0
    if isinstance(value, PatchSet):
        return vars(value).keys() == contents.keys() and all(
            getattr(value, name) is before and _unchanged(before, c)
            for name, (before, c) in contents.items())
    return True


class TestFBF:
    def _poiseuille_fbf(self):
        prob = poiseuille_problem(n=2)
        system = assemble_stokes(prob, mesh_hierarchy(prob, 1)[-1])
        inner = build_hierarchy(prob, 1, "hmg", monolithic=False)
        return system, build_fbf(system, inner), inner

    def test_apply_matches_block_formula(self):
        system, pc, inner = self._poiseuille_fbf()
        assert system.n <= 300
        # frozen scalar inner cycle, dense, on both interleaved components
        A_inv = np.kron(dense_cycle_matrix(inner), np.eye(2))
        M_p = assemble_pressure_mass(system.pressure_space).toarray()
        P_formula = dense_fbf(A_inv, np.linalg.inv(M_p),
                              system.K[pc.n_u:, :pc.n_u].toarray())
        P_impl = probe_columns(lambda r: fbf_apply(pc, r), system.n)
        assert np.abs(P_formula - P_impl).max() <= 1e-11

    def test_apply_runs_two_velocity_solves_and_one_schur_solve(self):
        prob = poiseuille_problem(n=2)
        system = assemble_stokes(prob, mesh_hierarchy(prob, 1)[-1])
        calls = {"inner": 0, "schur": 0}

        def inner(r):
            calls["inner"] += 1
            return 0.5 * r

        def schur_solve(r):
            calls["schur"] += 1
            return 2.0 * r

        pc = build_fbf(system, inner, schur_solve=schur_solve)
        rng = np.random.default_rng(11)
        for applies in (1, 2, 3):
            fbf_apply(pc, rng.standard_normal(system.n))
            assert calls == {"inner": 2 * applies, "schur": applies}

    def test_solve_leaves_preconditioner_unchanged(self):
        # FBF with its velocity hierarchy, and a monolithic phMG hierarchy
        system, pc, inner = self._poiseuille_fbf()
        h_system, h = build_solver(cavity_problem(k=3), 1, "phmg-direct")
        for system, pc, hierarchy in ((system, pc, inner), (h_system, h, h)):
            objects = {"pc": pc, "hierarchy": hierarchy}
            objects.update({f"level {i}": lv
                            for i, lv in enumerate(hierarchy.levels)})
            before = {key: _snapshot(obj) for key, obj in objects.items()}
            x, rep = solve_stokes(system, pc)
            assert rep.converged
            for key, obj in objects.items():
                after = vars(obj)
                assert after.keys() == before[key].keys(), key
                for name, (value, contents) in before[key].items():
                    assert after[name] is value, f"{key}.{name} rebound"
                    assert _unchanged(value, contents), \
                        f"{key}.{name} mutated"

    def test_exact_blocks_give_immediate_convergence(self):
        prob = poiseuille_problem(n=2)
        system = assemble_stokes(prob, mesh_hierarchy(prob, 1)[-1])
        n_u = system.velocity_space.num_dofs
        A = system.K[:n_u, :n_u].toarray()
        B = system.K[n_u:, :n_u].toarray()
        A_inv = np.linalg.inv(A)
        schur_inv = np.linalg.inv(B @ A_inv @ B.T)
        pc = build_fbf(system, lambda r: A_inv @ r,
                       schur_solve=lambda r: -schur_inv @ r)
        x, rep = solve_stokes(system, pc)
        assert rep.converged
        assert rep.iterations <= 3

    def test_dimension_mismatch(self):
        prob = poiseuille_problem(n=2)
        system = assemble_stokes(prob, mesh_hierarchy(prob, 1)[-1])
        wrong = build_hierarchy(poiseuille_problem(n=1), 1, "hmg",
                                monolithic=False)
        with pytest.raises(ValueError, match="velocity"):
            build_fbf(system, wrong)


class TestStationaryContraction:
    def test_two_level_cavity_contracts(self):
        prob = cavity_problem(n=2)
        h = build_hierarchy(prob, 1, "hmg")
        system = h.system
        K = system.K
        c = system.pressure_nullvector()
        free = np.setdiff1d(np.arange(system.n),
                            h.levels[0].dirichlet_dofs)
        rng = np.random.default_rng(5)
        e = np.zeros(system.n)
        e[free] = rng.standard_normal(free.size)
        e -= c * (c @ e)
        prev = np.linalg.norm(e)
        rho = None
        for _ in range(20):
            e = e - vcycle(h, K @ e)
            e -= c * (c @ e)
            cur = np.linalg.norm(e)
            rho = cur / prev
            prev = cur
        assert rho < 0.95


class TestChebyshevInterval:
    # Each hierarchy keeps every smoothed level at or below about 2,000
    # DoFs, so the dense spectrum of M^-1 K is cheap.
    @pytest.mark.parametrize("family,k,refinements,base_n,cycle,monolithic", [
        ("th", 3, 1, 4, "phmg-direct", True),
        ("th", 2, 2, 2, "hmg", True),
        ("sv", 3, 1, 2, "phmg-direct", True),
        ("th", 4, 1, 4, "phmg-direct", False),
    ], ids=["th-phmg", "th-hmg", "sv-phmg", "fbf-scalar"])
    def test_estimate_against_dense_spectrum(self, family, k, refinements,
                                             base_n, cycle, monolithic):
        # The 10-step estimate lies within [0.9, 1.05] of the spectral
        # radius, and the interval's upper end covers it. Power iteration
        # gave 0.81 on the finest level of th-phmg.
        prob = lid_driven_cavity(refinements, k, family=family,
                                 base_n=base_n)
        h = build_hierarchy(prob, refinements, cycle, monolithic=monolithic)
        for i, level in enumerate(h.levels[:-1]):
            assert level.n <= 2000
            K = level.K.toarray()
            T = dense_asm(K, level.patches.indices) @ K
            rho = np.abs(np.linalg.eigvals(T)).max()
            ratio = level.lambda_max / rho
            assert 0.9 <= ratio <= 1.05, f"level {i}: {ratio:.3f}"
            assert CHEBYSHEV_UPPER * level.lambda_max >= rho, f"level {i}"


class TestSolveStokes:
    @pytest.mark.parametrize("problem,family,solver,iterations", [
        (lid_driven_cavity, "th", "phmg-direct", 8),
        (lid_driven_cavity, "sv", "phmg-direct", 8),
        (lid_driven_cavity, "th", "fbf-phmg", 42),
        (backward_facing_step, "th", "hmg", 7),
    ], ids=["ldc-th-phmg", "ldc-sv-phmg", "ldc-th-fbf", "bfs-th-hmg"])
    def test_pinned_iteration_counts(self, problem, family, solver,
                                     iterations):
        # Iteration counts are deterministic; k = 3 at one refinement.
        system, pc = build_solver(problem(1, 3, family=family), 1, solver)
        _, rep = solve_stokes(system, pc)
        assert rep.converged
        assert rep.iterations == iterations

    def test_hmg_matches_direct_solve(self):
        prob = cavity_problem(n=2)
        system, pc = build_solver(prob, 2, "hmg")
        x, rep = solve_stokes(system, pc)
        assert rep.converged
        assert rep.reason == "converged"
        assert rep.iterations <= 60
        ref = pinned_solve(system)
        n_u = system.velocity_space.num_dofs
        assert np.abs(x[:n_u] - ref[:n_u]).max() <= 1e-7
        dp = x[n_u:] - ref[n_u:]
        assert np.abs(dp - dp.mean()).max() <= 1e-6  # pressure up to a constant

    def test_deterministic_reruns(self):
        prob = cavity_problem(n=2)
        s1, pc1 = build_solver(prob, 1, "hmg")
        x1, r1 = solve_stokes(s1, pc1)
        s2, pc2 = build_solver(prob, 1, "hmg")
        x2, r2 = solve_stokes(s2, pc2)
        assert r1.iterations == r2.iterations
        assert np.array_equal(x1, x2)

    def test_gradual_and_direct_converge_high_order(self):
        prob = lid_driven_cavity(1, 6)
        its = {}
        for solver in ("phmg-direct", "phmg-gradual"):
            system, pc = build_solver(prob, 1, solver)
            x, rep = solve_stokes(system, pc)
            assert rep.converged
            its[solver] = rep.iterations
        assert max(its.values()) < 80

    def test_sv_solver_runs(self):
        prob = lid_driven_cavity(1, 3, family="sv")
        system, pc = build_solver(prob, 1, "phmg-direct")
        x, rep = solve_stokes(system, pc)
        assert rep.converged

    def test_fbf_variants_run(self):
        prob = lid_driven_cavity(1, 3)
        for solver in ("fbf-hmg", "fbf-phmg"):
            system, pc = build_solver(prob, 1, solver)
            assert isinstance(pc, FBFPreconditioner)
            x, rep = solve_stokes(system, pc)
            assert rep.converged

    @pytest.mark.parametrize("solver", ["phmg-direct", "fbf-phmg"])
    def test_solve_builds_no_transpose(self, solver, monkeypatch):
        # Restriction and the FBF Schur update read transposes stored at
        # build; the solve itself transposes nothing.
        system, pc = build_solver(lid_driven_cavity(1, 3), 1, solver)
        calls = []
        for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix,
                    sp.csr_array, sp.csc_array, sp.coo_array):
            def counted(self, *args, _transpose=cls.transpose, **kwargs):
                calls.append(type(self).__name__)
                return _transpose(self, *args, **kwargs)
            monkeypatch.setattr(cls, "transpose", counted)
        _, rep = solve_stokes(system, pc)
        assert rep.converged
        assert calls == []

    def test_nan_preconditioner_stops_at_once(self):
        prob = lid_driven_cavity(1, 2)
        system, _ = build_solver(prob, 1, "hmg")
        x, rep = solve_stokes(system, lambda v: np.full_like(v, np.nan))
        assert not rep.converged
        assert rep.reason == "nonfinite"
        assert rep.iterations <= 1
        assert np.all(np.isfinite(x))

    def test_exhausted_budget_reports_maxiter(self):
        prob = lid_driven_cavity(1, 2)
        system, pc = build_solver(prob, 1, "hmg")
        x, rep = solve_stokes(system, pc, maxiter=2)
        assert not rep.converged
        assert rep.reason == "maxiter"
        assert rep.iterations == 2
        assert np.all(np.isfinite(x))

    def test_concurrent_solves_match_serial(self):
        # A race on shared factorization state can corrupt the heap and
        # abort the interpreter, so the threads run in a child process.
        # With 256-byte chunks every level stores more than a chunk of
        # inverses, so every level factors and sweeps on the shared thread
        # pool, which both solves feed at once.
        script = """
import sys
import threading

import numpy as np

from stokesmg import relaxation
from stokesmg.problems import lid_driven_cavity
from stokesmg.solvers import build_solver, solve_stokes

relaxation.CHUNK_BYTES = 1 << 8
for solver in ("phmg-direct", "fbf-phmg"):
    system, pc = build_solver(lid_driven_cavity(1, 3, base_n=8), 1, solver)
    serial, _ = solve_stokes(system, pc)
    for trial in range(3):
        results = [None, None]

        def run(i):
            results[i] = solve_stokes(system, pc)[0]

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not all(x is not None and np.array_equal(x, serial)
                   for x in results):
            sys.exit(f"{solver}: a threaded solve differs from the serial one")
"""
        run_script(script)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_fork_after_threaded_sweep(self):
        # The parent's pool threads do not exist in a forked child; a child
        # that reused the parent's pool would wait forever for its sweep.
        script = """
import os
import signal
import sys
import time
import warnings

import numpy as np

from stokesmg import relaxation
from stokesmg.problems import lid_driven_cavity
from stokesmg.solvers import build_hierarchy

relaxation.CHUNK_BYTES = 1 << 15
level = build_hierarchy(lid_driven_cavity(1, 3, base_n=8), 1,
                        "phmg-direct").levels[0]
r = np.random.default_rng(5).standard_normal(level.n)
z = relaxation.asm_apply(level.patches, r)
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
    pid = os.fork()
if pid == 0:
    same = np.array_equal(relaxation.asm_apply(level.patches, r), z)
    os._exit(0 if same else 1)
deadline = time.monotonic() + 30
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(0 if os.waitstatus_to_exitcode(status) == 0
                 else "the child's sweep differs from the parent's")
    time.sleep(0.05)
os.kill(pid, signal.SIGKILL)
os.waitpid(pid, 0)
sys.exit("the child's sweep did not finish")
"""
        run_script(script)

    def test_unknown_solver_name(self):
        prob = cavity_problem(n=2)
        with pytest.raises(ValueError, match="unknown solver"):
            build_solver(prob, 1, "amg")

    def test_make_apply_dispatch(self):
        prob = cavity_problem(n=2)
        h = build_hierarchy(prob, 1, "hmg")
        assert isinstance(h, MGHierarchy)
        apply_h = make_apply(h)
        b = np.zeros(h.levels[0].n)
        assert np.all(apply_h(b) == 0.0)
        passthrough = make_apply(lambda v: v)
        assert passthrough(b) is b
        with pytest.raises(TypeError, match="preconditioner"):
            make_apply(42)
