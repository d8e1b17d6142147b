"""Acceptance gate: nine structural and property criteria for the solver
library, one test per criterion. Each test prints a single pass/fail line
with the measured values (visible with ``pytest -s``); the pytest verdict
line itself is the per-criterion verdict.

The checks cover operator structure (nonzeros per DoF), dense-oracle
equivalence of the multigrid and block-factorization preconditioners,
mesh-robust iteration counts, the gradual-vs-direct p-coarsening ordering,
pointwise divergence of the divergence-conforming discretization,
manufactured-solution convergence orders, Schur-complement quality of the
pressure-mass approximation, patch-construction oracles, and benchmark
report integrity.
"""

import numpy as np
import pytest

from conftest import pinned_solve, poiseuille_problem
from dense_oracles import (
    dense_cycle_matrix,
    dense_fbf,
    eq_defect_correction,
    eq_two_level,
    level_smoother,
    probe_columns,
)
from stokesmg.assembly import (
    ProblemInstance,
    assemble_pressure_mass,
    assemble_stokes,
    cellwise_divergence,
    compute_errors,
)
from stokesmg.bench import RunReport, relative_metrics
from stokesmg.bench import run as bench_run
from stokesmg.mesh import generate_structured_grid, refine_uniform
from stokesmg.problems import lid_driven_cavity, manufactured
from stokesmg.quadrature import quadrature_rule
from stokesmg.relaxation import build_vanka_star_patches
from stokesmg.solvers import (
    build_fbf,
    build_hierarchy,
    build_solver,
    fbf_apply,
    mesh_hierarchy,
    solve_stokes,
    vcycle,
)
from stokesmg.spaces import build_space
from stokesmg.transfer import (
    build_h_prolongation,
    build_monolithic_transfer,
    build_p_prolongation,
)


def _report(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({label}): {detail}"
    print(line, flush=True)
    assert ok, line


# -- 1: operator structure ---------------------------------------------------

NNZ_TARGETS = {
    ("th", 3): 45.0, ("th", 4): 63.0, ("th", 5): 85.0,
    ("sv", 3): 38.0, ("sv", 4): 55.0, ("sv", 5): 75.0,
}


def test_criterion_1_nnz_per_dof_structure():
    measured = {}
    for family, k in sorted(NNZ_TARGETS):
        prob = lid_driven_cavity(3, k, family=family)
        system = assemble_stokes(prob, mesh_hierarchy(prob, 3)[-1])
        measured[(family, k)] = system.K.nnz / system.n
    ok = all(abs(m / NNZ_TARGETS[key] - 1.0) <= 0.10
             for key, m in measured.items())
    detail = ", ".join(
        f"{f} k={k}: {m:.1f}/{NNZ_TARGETS[(f, k)]:g}"
        for (f, k), m in sorted(measured.items())
    )
    _report(1, "nnz per DoF within 10%", ok, detail)


# -- 2: dense oracle equivalence ---------------------------------------------

def test_criterion_2_dense_oracle_equivalence():
    errs = {}

    # Two-level propagator: smooth, exact coarse correction, smooth.
    prob = poiseuille_problem(n=2)
    h = build_hierarchy(prob, 1, "hmg")
    K = h.levels[0].K.toarray()
    n = h.levels[0].n
    assert n <= 500
    S, _ = level_smoother(h.levels[0])
    formula = eq_two_level(S, h.levels[0].P.toarray(),
                           h.levels[1].K.toarray(), K)
    impl = np.eye(n) - probe_columns(lambda b: vcycle(h, b), n) @ K
    errs["two-level"] = float(np.abs(formula - impl).max())

    # p-coarsened cycle with the low-order solve replaced by n_V passes of
    # the next cycle (defect correction), composed bottom-up.
    prob = poiseuille_problem(n=1, k=3)
    h = build_hierarchy(prob, 2, "phmg-direct", n_V=2)
    K0 = h.levels[0].K.toarray()
    n = h.levels[0].n
    assert n <= 500
    S2, _ = level_smoother(h.levels[2])
    G_h = eq_two_level(S2, h.levels[2].P.toarray(),
                       h.levels[3].K.toarray(), h.levels[2].K.toarray())
    S1, _ = level_smoother(h.levels[1])
    G_dc = eq_defect_correction(S1, h.levels[1].P.toarray(),
                                h.levels[2].K.toarray(), G_h, 2,
                                h.levels[1].K.toarray())
    S0, _ = level_smoother(h.levels[0])
    formula = eq_defect_correction(S0, h.levels[0].P.toarray(),
                                   h.levels[1].K.toarray(), G_dc, 1, K0)
    impl = np.eye(n) - probe_columns(lambda b: vcycle(h, b), n) @ K0
    errs["defect-correction"] = float(np.abs(formula - impl).max())

    # Block LDU apply with the inner velocity cycle frozen as a matrix.
    prob = poiseuille_problem(n=2)
    system = assemble_stokes(prob, mesh_hierarchy(prob, 1)[-1])
    assert system.n <= 300
    inner = build_hierarchy(prob, 1, "hmg", monolithic=False)
    pc = build_fbf(system, inner)
    # the scalar cycle acts on both interleaved velocity components
    A_inv = np.kron(dense_cycle_matrix(inner), np.eye(2))
    M_p = assemble_pressure_mass(system.pressure_space).toarray()
    formula = dense_fbf(A_inv, np.linalg.inv(M_p),
                        system.K[pc.n_u:, :pc.n_u].toarray())
    impl = probe_columns(lambda r: fbf_apply(pc, r), system.n)
    errs["block-factorization"] = float(np.abs(formula - impl).max())

    ok = all(e <= 1e-11 for e in errs.values())
    detail = ", ".join(f"{name}: {e:.2e}" for name, e in errs.items())
    _report(2, "dense oracles to 1e-11", ok, detail)


# -- 3: h-robust iteration counts --------------------------------------------

# (base grid, relaxation degree) tuned per order; each keeps the count
# spread across refinement depths 1..3 within the bound below.
HMG_CONFIGS = {2: (2, 8), 3: (2, 2), 4: (3, 2)}


def test_criterion_3_h_robust_iterations():
    ok, parts = True, []
    for k, (base_n, nu_h) in sorted(HMG_CONFIGS.items()):
        iters = []
        for refs in (1, 2, 3):
            prob = manufactured(refs, k, base_n=base_n)
            system, pc = build_solver(prob, refs, "hmg", nu_h=nu_h)
            _, rep = solve_stokes(system, pc)
            ok = ok and rep.converged
            iters.append(rep.iterations)
        spread = max(iters) - min(iters)
        ok = ok and spread <= 3
        parts.append(f"k={k} (nu={nu_h}): {iters} spread {spread}")
    _report(3, "iteration spread <= 3 over refinements 1..3", ok,
            "; ".join(parts))


# -- 4: gradual vs direct p-coarsening ---------------------------------------

def test_criterion_4_gradual_at_most_direct():
    ok, parts = True, []
    for k in (6, 7, 8):
        counts = {}
        for mode in ("phmg-direct", "phmg-gradual"):
            prob = lid_driven_cavity(2, k)
            system, pc = build_solver(prob, 2, mode)
            _, rep = solve_stokes(system, pc)
            ok = ok and rep.converged and rep.iterations < 80
            counts[mode] = rep.iterations
        ok = ok and counts["phmg-gradual"] <= counts["phmg-direct"]
        parts.append(f"k={k}: direct {counts['phmg-direct']}, "
                     f"gradual {counts['phmg-gradual']}")
    _report(4, "gradual <= direct, both < 80", ok, "; ".join(parts))


# -- 5: pointwise divergence -------------------------------------------------

def test_criterion_5_pointwise_divergence():
    maxdiv = {}
    for family, solver in (("sv", "phmg-direct"), ("th", "hmg")):
        prob = lid_driven_cavity(2, 3, family=family)
        system, pc = build_solver(prob, 2, solver)
        x, rep = solve_stokes(system, pc)
        assert rep.converged
        V = system.velocity_space
        if family == "sv":
            assert V.mesh.refinement_kind == "barycentric"
        u, _ = system.split(x)
        div = cellwise_divergence(u, V, quadrature_rule(2 * V.k))
        maxdiv[family] = float(np.abs(div).max())
    ok = maxdiv["sv"] <= 1e-8 and maxdiv["th"] > 1e-3
    _report(5, "max |div u| at quadrature points", ok,
            f"sv: {maxdiv['sv']:.2e} (<= 1e-8), "
            f"th: {maxdiv['th']:.2e} (> 1e-3)")


# -- 6: convergence orders ---------------------------------------------------

# Base grid and refinement depths per order: three meshes each, fine enough
# that pre-asymptotic transients have decayed.
ORDER_CONFIGS = {2: (2, (4, 5, 6)), 3: (2, (2, 3, 4))}


def test_criterion_6_convergence_orders():
    ok, parts = True, []
    for k, (base_n, refinements) in sorted(ORDER_CONFIGS.items()):
        hs, eus, eps = [], [], []
        for refs in refinements:
            prob = manufactured(refs, k, base_n=base_n)
            system = assemble_stokes(prob, mesh_hierarchy(prob, refs)[-1])
            u, p = system.split(pinned_solve(system))
            eu, ep = compute_errors(u, p, system.velocity_space,
                                    system.pressure_space, prob.exact_u,
                                    prob.exact_p,
                                    subtract_pressure_mean=True)
            hs.append(1.0 / (base_n * 2 ** refs))
            eus.append(eu)
            eps.append(ep)
        order_u = float(np.polyfit(np.log(hs), np.log(eus), 1)[0])
        order_p = float(np.polyfit(np.log(hs), np.log(eps), 1)[0])
        ok = ok and (k + 0.8 <= order_u <= k + 1.3)
        ok = ok and (k - 0.3 <= order_p <= k + 0.5)
        parts.append(f"k={k}: u {order_u:.2f} in [{k + 0.8},{k + 1.3}], "
                     f"p {order_p:.2f} in [{k - 0.3},{k + 0.5}]")
    _report(6, "least-squares convergence orders", ok, "; ".join(parts))


# -- 7: Schur quality of the pressure-mass approximation ----------------------

def test_criterion_7_fbf_schur_quality():
    iters = []
    for refs in (1, 2, 3):
        prob = lid_driven_cavity(refs, 2, family="sv", base_n=2)
        system = assemble_stokes(prob, mesh_hierarchy(prob, refs)[-1])
        A = system.K[:system.n_u, :system.n_u].toarray()
        A_inv = np.linalg.inv(A)
        pc = build_fbf(system, lambda r, _M=A_inv: _M @ r)
        # Restart chosen large enough that the counts below never trigger
        # it: what is measured is the mass-matrix Schur approximation, not
        # restart stagnation.
        _, rep = solve_stokes(system, pc, restart=100)
        assert rep.converged
        iters.append(rep.iterations)
    spread = max(iters) - min(iters)
    _report(7, "exact-velocity FBF iteration spread <= 3", spread <= 3,
            f"iterations {iters}, spread {spread}")


# -- 8: patch oracles ---------------------------------------------------------

def _interior_valence6_vertices(mesh):
    boundary = set()
    for e in mesh.boundary_edges:
        a, b = mesh.edges[e]
        boundary.update((int(a), int(b)))
    out = []
    for v in range(mesh.num_vertices):
        if v in boundary:
            continue
        star = np.where((mesh.cells == v).any(axis=1))[0]
        if len(star) == 6:
            out.append((v, star))
    return out


def _interior_rows(system):
    V, Q = system.velocity_space, system.pressure_space
    vel_interior = np.setdiff1d(np.arange(V.num_scalar_dofs),
                                V.boundary_scalar_dofs())
    pres_interior = np.setdiff1d(np.arange(Q.num_scalar_dofs),
                                 Q.boundary_scalar_dofs())
    return np.concatenate([V.expand_components(vel_interior),
                           V.num_dofs + pres_interior])


def test_criterion_8_patch_oracles():
    mesh = generate_structured_grid(4)
    seeds = _interior_valence6_vertices(mesh)
    assert len(seeds) >= 9
    counts = {}
    for continuity, expected in (("continuous", 39), ("discontinuous", 56)):
        vel = build_space(mesh, 2, "continuous", components=2)
        pres = build_space(mesh, 1, continuity)
        patches = build_vanka_star_patches(mesh, vel, pres)
        for v, star in seeds:
            # Brute-force recount straight from the cell-DoF maps: velocity
            # carries every DoF of the cells meeting v; pressure keeps the
            # DoFs attached to entities containing v — shared by all star
            # cells when continuous, all cell-local DoFs when discontinuous.
            vel_dofs = np.unique(vel.cell_dofs[star])
            cellwise = [pres.cell_dofs[c] for c in star]
            if continuity == "continuous":
                pres_dofs = cellwise[0]
                for arr in cellwise[1:]:
                    pres_dofs = np.intersect1d(pres_dofs, arr)
            else:
                pres_dofs = np.unique(np.concatenate(cellwise))
            brute = np.sort(np.concatenate(
                [vel_dofs, vel.num_dofs + pres_dofs]))
            impl = patches.indices[patches.vertices.index(v)]
            assert np.array_equal(brute, impl)
            assert len(impl) == expected
        counts[continuity] = expected

    # Galerkin triple product vs rediscretization on all-natural-boundary
    # assemblies, interior rows only.
    zero = lambda x, y: (0.0, 0.0)
    neumann = {m: zero for m in (1, 2, 3, 4)}
    coarse_mesh = generate_structured_grid(2)
    fine_mesh = refine_uniform(coarse_mesh)
    prob = ProblemInstance("neumann", fine_mesh, "th", 2,
                           dirichlet={}, neumann=neumann)
    fine_sys = assemble_stokes(prob, fine_mesh)
    coarse_sys = assemble_stokes(prob, coarse_mesh)
    P = build_monolithic_transfer(
        build_h_prolongation(coarse_sys.velocity_space,
                             fine_sys.velocity_space),
        build_h_prolongation(coarse_sys.pressure_space,
                             fine_sys.pressure_space),
    )
    diff_h = np.abs((P.T @ fine_sys.K @ P).toarray()
                    - coarse_sys.K.toarray())
    err_h = float(diff_h[_interior_rows(coarse_sys), :].max())

    prob = ProblemInstance("neumann", coarse_mesh, "th", 4,
                           dirichlet={}, neumann=neumann)
    high_sys = assemble_stokes(prob, coarse_mesh, k=4)
    low_sys = assemble_stokes(prob, coarse_mesh, k=2)
    P = build_monolithic_transfer(
        build_p_prolongation(low_sys.velocity_space,
                             high_sys.velocity_space),
        build_p_prolongation(low_sys.pressure_space,
                             high_sys.pressure_space),
    )
    diff_p = np.abs((P.T @ high_sys.K @ P).toarray()
                    - low_sys.K.toarray())
    err_p = float(diff_p[_interior_rows(low_sys), :].max())

    ok = err_h <= 1e-10 and err_p <= 1e-10
    _report(8, "patch counts and Galerkin rows", ok,
            f"patch sizes {counts}, interior-row mismatch "
            f"h: {err_h:.2e}, p: {err_p:.2e}")


# -- 9: report integrity -----------------------------------------------------

def test_criterion_9_report_integrity():
    rep = bench_run("ldc2d", "th", 3, 2, "hmg")
    total_ok = abs(rep.t_total - (rep.t_setup + rep.t_solve)) \
        <= 0.01 * rep.t_total
    coverage = rep.kernel_coverage()

    ref = RunReport(problem="p", family="th", k=3, refinements=2,
                    solver="a", dofs=10, nnz_per_dof=1.0, iterations=5,
                    converged=True, t_setup=2.0, t_solve=4.0)
    other = RunReport(problem="p", family="th", k=3, refinements=2,
                      solver="b", dofs=10, nnz_per_dof=1.0, iterations=5,
                      converged=True, t_setup=0.5, t_solve=2.5)
    exact = relative_metrics(other, ref) == (6.0 / 3.0, 2.0 / 0.5, 4.0 / 2.5)
    exact = exact and relative_metrics(ref, ref) == (1.0, 1.0, 1.0)

    ok = total_ok and coverage >= 0.95 and exact
    _report(9, "timing identity, kernel coverage, relative metrics", ok,
            f"T(total) split exact: {total_ok}, kernel coverage "
            f"{coverage:.3f} (>= 0.95), synthetic ratios exact: {exact}")
