"""Multigrid and full-block-factorization preconditioners for Stokes.

Every hierarchy comes from one builder, `build_hierarchy(problem,
refinements, cycle, monolithic)`, fed by one level plan, `level_specs`.
The `cycle` names the coarsening: "hmg" coarsens in mesh size only at the
problem's degree; "phmg-direct" and "phmg-gradual" first lower the degree
on the finest mesh (straight to 2, or through one intermediate degree) and
then coarsen in mesh size at degree 2. Each level carries the tuple of
spaces its operator acts on: (velocity, pressure) for the Taylor-Hood/
Scott-Vogelius saddle operator of a monolithic hierarchy, (scalar
velocity,) for the one-component Laplacian of a velocity-only one. One
transfer per space connects it to the next coarser level.
Relaxation on every level is Chebyshev-accelerated additive Schwarz over
vertex patches; the coarsest level is solved by a sparse LU (SuperLU), so
its size has no limit beyond memory.

The monolithic hierarchies precondition the saddle system directly. The
FBF preconditioner instead applies a block LDU factorization of the saddle
system, approximating the velocity-block inverse by one V-cycle of a
velocity-only hierarchy and the Schur complement by the pressure mass
matrix. The velocity block, grad:grad on interleaved components (DoF
2g + c), is two copies of the scalar Laplacian with the same Dirichlet
rows, so one cycle on the (n, 2) block of both components inverts it.

A block of c columns costs c one-vector sparse products per operator
(`linalg.spmv`), and each level's restriction P^T, like the FBF block B^T,
is stored in CSR form at build, so a solve builds no transpose.

All hierarchy operators are rediscretized (not Galerkin products); the two
agree on interior rows here because the bilinear forms carry no
stabilization terms.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .assembly import (
    SCOTT_VOGELIUS,
    TAYLOR_HOOD,
    assemble_pressure_mass,
    assemble_stokes,
    assemble_vector_laplacian,
    collect_dirichlet,  # noqa: F401, a traced name (perfbench/tracer.py)
    eliminate_dirichlet,
)
from .linalg import chebyshev, estimate_lambda_max, fgmres, spmv
# perfbench/tracer.py times the coarse factorization under this name
from .linalg import sparse_lu as dense_lu
from .mesh import refine_barycentric, refine_uniform
from .relaxation import (
    asm_apply,
    build_star_patches,
    build_vanka_star_patches,
    factor_patches,
)
from .spaces import build_space
from .timing import Timings
from .transfer import (
    build_h_prolongation,
    build_monolithic_transfer,
    build_p_prolongation,
    filter_dirichlet,
)

__all__ = [
    "DEFAULT_CYCLE_PARAMS",
    "H_LEVEL",
    "P_LEVEL",
    "MGLevel",
    "MGHierarchy",
    "FBFPreconditioner",
    "p_coarsening_schedule",
    "mesh_hierarchy",
    "level_specs",
    "build_hierarchy",
    "build_fbf",
    "build_solver",
    "vcycle",
    "fbf_apply",
    "make_apply",
    "solve_stokes",
]

DEFAULT_CYCLE_PARAMS = (1, 2, 2)  # (n_V, nu_p, nu_h)

H_LEVEL = "h"
P_LEVEL = "p"

HIERARCHY_CYCLES = ("hmg", "phmg-direct", "phmg-gradual")
SOLVER_NAMES = HIERARCHY_CYCLES + ("fbf-hmg", "fbf-phmg")


def p_coarsening_schedule(k, mode):
    """Degrees visited while coarsening in p, from k down to 2.

    "direct" drops straight to 2. "gradual" inserts one intermediate degree
    for k >= 6 (4 for k in [6,7], 5 for k in [8,10]); below that the two
    modes coincide. k = 2 has nothing to coarsen, so both modes return [2].
    """
    if not 2 <= k <= 10:
        raise ValueError(f"degree {k} outside the supported range [2, 10]")
    if mode not in ("direct", "gradual"):
        raise ValueError(f"unknown p-coarsening mode {mode!r}")
    if k == 2:
        return [2]
    if mode == "direct" or k <= 5:
        return [k, 2]
    if k <= 7:
        return [k, 4, 2]
    return [k, 5, 2]


@dataclass
class MGLevel:
    """One level of a multigrid hierarchy.

    `K` is the (Dirichlet-eliminated) operator, `patches` the factored
    relaxation patches (None on the coarsest level, which is solved
    directly), and `P` the prolongation from the next-coarser level into
    this one (None on the coarsest). `kind` tags the level as p- or
    h-coarsened, which picks the sweep count and where the inner-cycle
    count applies. `spaces` are (velocity, pressure) on a monolithic level
    and (scalar velocity,) on a velocity-only one; `dirichlet_dofs` index
    their joint numbering.
    """

    K: object
    patches: object
    nu: int
    lambda_max: float
    P: object
    kind: str
    family: object
    k: int
    mesh: object
    dirichlet_dofs: np.ndarray
    spaces: tuple

    @property
    def n(self):
        return self.K.shape[0]


class MGHierarchy:
    """Ordered multigrid levels, finest first, the coarse solver and, as
    `system`, the finest `SaddleSystem` (None for a velocity-only one).

    `restrictions[l]` is level l's P^T in CSR form, stored once here and
    read by every cycle's restriction; the coarsest level has none.

    Built hierarchies are immutable by convention: `vcycle` only reads from
    them, so one hierarchy can serve many concurrent solves. Sweeps of the
    large levels from all of these solves share one thread pool per process
    (see `relaxation`), and each gives the same bits as a solve run alone.
    """

    def __init__(self, levels, coarse, pinned_dof, n_V, system):
        if not levels:
            raise ValueError("a hierarchy needs at least one level")
        seen_h = False
        for i, level in enumerate(levels):
            is_coarsest = i == len(levels) - 1
            if (level.patches is None) != is_coarsest:
                raise ValueError("relaxation patches belong to every level "
                                 "except the coarsest")
            if (level.P is None) != is_coarsest:
                raise ValueError("every level except the coarsest needs a "
                                 "prolongation from below")
            if not is_coarsest:
                expected = (level.n, levels[i + 1].n)
                if level.P.shape != expected:
                    raise ValueError(
                        f"level {i} prolongation shape {level.P.shape} != "
                        f"{expected}"
                    )
            if level.kind == H_LEVEL:
                seen_h = True
            elif seen_h:
                raise ValueError("p-levels must precede h-levels")
        if coarse.shape != levels[-1].K.shape:
            raise ValueError("coarse factorization does not match the "
                             "coarsest operator")
        self.levels = list(levels)
        self.restrictions = [level.P.T.tocsr() for level in levels[:-1]]
        self.coarse = coarse
        self.pinned_dof = pinned_dof
        self.n_V = n_V
        self.system = system

    @property
    def n(self):
        return self.levels[0].n

    def coarse_solve(self, r):
        """Direct solve on the coarsest level, of an (n,) vector or an
        (n, c) block of columns.

        When the coarsest operator carries the constant-pressure nullspace,
        one pressure DoF is pinned to zero; for consistent right-hand sides
        (all that a V-cycle ever feeds it) this returns an exact solution in
        that gauge.
        """
        if self.pinned_dof is not None:
            r = r.copy()
            r[self.pinned_dof] = 0.0
        return self.coarse.solve(r)

    def level_summary(self):
        """(kind, family, degree, cells, dofs, patches, distinct inverses,
        smoother bytes) per level, finest first.

        The DoFs of a velocity-only level are those of its scalar space.
        Smoother bytes are `PatchSet.nbytes`, the level's blocks and
        scatter index without the builders' per-patch `indices` and
        `order`; the coarsest level, solved directly, has no patches and
        counts 0 for the last three fields.
        """
        return [
            (lv.kind, lv.family, lv.k, lv.mesh.num_cells, lv.n)
            + ((0, 0, 0) if lv.patches is None else
               (len(lv.patches), lv.patches.inverses, lv.patches.nbytes))
            for lv in self.levels
        ]


def mesh_hierarchy(problem, refinements=None):
    """Nested mesh chain, coarsest first.

    Uniform refinements of the base mesh; Scott-Vogelius appends one
    barycentric split on top, so only the finest mesh is barycentric.
    """
    if refinements is None:
        refinements = problem.refinements
    if refinements < 0:
        raise ValueError("refinements must be >= 0")
    chain = [problem.base_mesh]
    for _ in range(refinements):
        chain.append(refine_uniform(chain[-1]))
    if problem.family == SCOTT_VOGELIUS:
        chain.append(refine_barycentric(chain[-1]))
    return chain


@dataclass(frozen=True)
class _LevelSpec:
    family: object  # None for velocity-only levels
    k: int
    mesh: object
    kind: str


def level_specs(problem, refinements, cycle, monolithic):
    """Plan of a hierarchy's levels, finest first, as `_LevelSpec`s.

    "hmg" keeps the problem's discretization on every mesh of the nested
    chain. The phMG cycles lower the degree on the finest mesh following
    `p_coarsening_schedule` down to Taylor-Hood degree 2 (a monolithic
    Scott-Vogelius top level steps to the equal-or-lower-degree Taylor-Hood
    pair on the same mesh), then descend the pre-barycentric meshes at
    degree 2. A degree-2 start has no p-section, so it becomes a plain
    h-cycle. Velocity-only levels (`monolithic=False`) carry no family.

    Monolithic hMG rejects Scott-Vogelius: its barycentric meshes are not
    nested under quadrisection, so no monolithic h-hierarchy exists for it.
    """
    if cycle not in HIERARCHY_CYCLES:
        raise ValueError(
            f"unknown cycle {cycle!r}; pick from {HIERARCHY_CYCLES}"
        )
    scott_vogelius = monolithic and problem.family == SCOTT_VOGELIUS
    if cycle == "hmg" and scott_vogelius:
        raise ValueError(
            "monolithic hMG needs a nested mesh hierarchy at a fixed "
            "discretization; Scott-Vogelius has none (use phMG or FBF)"
        )
    chain = mesh_hierarchy(problem, refinements)

    def spec(family, k, mesh, kind):
        return _LevelSpec(family if monolithic else None, k, mesh, kind)

    if cycle == "hmg":
        return [spec(problem.family, problem.k, m, H_LEVEL)
                for m in reversed(chain)]
    mode = cycle[len("phmg-"):]
    top = [(TAYLOR_HOOD, d) for d in p_coarsening_schedule(problem.k, mode)]
    if scott_vogelius:
        top = [(SCOTT_VOGELIUS, problem.k)] + (top[1:] or top)
    kind = P_LEVEL if len(top) > 1 else H_LEVEL
    return ([spec(f, d, chain[-1], kind) for f, d in top]
            + [spec(TAYLOR_HOOD, 2, m, H_LEVEL) for m in chain[-2::-1]])


def _patch_coverage_ok(patches, n, dirichlet_dofs):
    covered = np.zeros(n, dtype=bool)
    covered[np.concatenate([np.asarray(dirichlet_dofs, dtype=np.int64),
                            *patches.indices])] = True
    return bool(covered.all())


def _build_level(problem, spec, is_coarsest, nu_p, nu_h):
    if spec.family is not None:
        system = assemble_stokes(problem, spec.mesh, k=spec.k,
                                 family=spec.family)
        K, dirichlet = system.K, system.dirichlet_dofs
        spaces = (system.velocity_space, system.pressure_space)
        build_patches = build_vanka_star_patches
    else:
        space = build_space(spec.mesh, spec.k, "continuous")
        dirichlet = space.boundary_scalar_dofs(markers=set(problem.dirichlet))
        K, _ = eliminate_dirichlet(assemble_vector_laplacian(space),
                                   dirichlet, 0.0)
        system, spaces, build_patches = None, (space,), build_star_patches

    patches, lam, nu = None, 0.0, 0
    if not is_coarsest:
        patches = factor_patches(K, build_patches(spec.mesh, *spaces,
                                                  dirichlet))
        if not _patch_coverage_ok(patches, K.shape[0], dirichlet):
            raise ValueError("relaxation patches do not cover every "
                             "unconstrained DoF")
        lam = estimate_lambda_max(
            lambda v, p=patches, k=K: asm_apply(p, k @ v), K.shape[0]
        )
        nu = nu_p if spec.kind == P_LEVEL else nu_h
    return MGLevel(
        K=K, patches=patches, nu=nu, lambda_max=lam, P=None, kind=spec.kind,
        family=spec.family, k=spec.k, mesh=spec.mesh,
        dirichlet_dofs=dirichlet, spaces=spaces,
    ), system


def _space_transfer(coarse_space, fine_space):
    if coarse_space.mesh is fine_space.mesh:
        if (coarse_space.k == fine_space.k
                and coarse_space.continuity == fine_space.continuity):
            # Same space on both levels (Scott-Vogelius velocity above the
            # equal-degree Taylor-Hood level): the embedding is the identity.
            return sp.identity(fine_space.num_dofs, format="csr")
        return build_p_prolongation(coarse_space, fine_space)
    return build_h_prolongation(coarse_space, fine_space)


def _connect_levels(levels):
    for upper, lower in zip(levels, levels[1:]):
        P = build_monolithic_transfer(*[
            _space_transfer(coarse, fine)
            for coarse, fine in zip(lower.spaces, upper.spaces)
        ])
        upper.P = filter_dirichlet(P, upper.dirichlet_dofs,
                                   lower.dirichlet_dofs)


def build_hierarchy(problem, refinements, cycle, monolithic=True, n_V=None,
                    nu_p=None, nu_h=None):
    """Multigrid hierarchy for the saddle system or its velocity block.

    `cycle` is "hmg", "phmg-direct" or "phmg-gradual" (see `level_specs`).
    A monolithic hierarchy preconditions the full saddle system and keeps
    its finest one as `system`. With `monolithic=False` it covers the
    scalar Laplacian of one velocity component, as used inside FBF:
    one-component spaces, the problem's Dirichlet boundary eliminated with
    zero values, vertex-star patches (no closure ring, no pressure), scalar
    transfers and a scalar coarse solve; `system` is None.
    The coarsest level is factored by SuperLU and has no size limit.
    The h-portion runs `n_V` times per outer cycle; `nu_p`/`nu_h` are the
    sweep counts on p- and h-levels (defaults in `DEFAULT_CYCLE_PARAMS`).
    """
    dv, dp, dh = DEFAULT_CYCLE_PARAMS
    n_V = dv if n_V is None else n_V
    nu_p = dp if nu_p is None else nu_p
    nu_h = dh if nu_h is None else nu_h
    if min(n_V, nu_p, nu_h) < 1:
        raise ValueError("cycle parameters must be >= 1")
    specs = level_specs(problem, refinements, cycle, monolithic)
    levels, systems = zip(*[
        _build_level(problem, spec, i == len(specs) - 1, nu_p, nu_h)
        for i, spec in enumerate(specs)
    ])
    _connect_levels(levels)
    coarsest = levels[-1]
    pinned = None
    K = coarsest.K
    if monolithic and problem.has_pressure_nullspace:
        pinned = coarsest.n - 1  # last pressure DoF fixes the gauge
        d = np.ones(coarsest.n)
        d[pinned] = 0.0
        D = sp.diags(d)
        K = D @ K @ D + sp.diags(1.0 - d)
    coarse = dense_lu(K)
    return MGHierarchy(levels, coarse, pinned, n_V, systems[0])


# -- V-cycle ----------------------------------------------------------------

def vcycle(hierarchy, b, timer=None):
    """One multigrid V-cycle x = M b for `hierarchy`'s finest operator.

    `b` is an (n,) vector or an (n, c) block; the cycle is linear and acts
    on each column alike, so one pass over a block serves all its columns
    with the same sweeps and coarse solves. Its sparse products run one
    column at a time (`spmv`): c one-vector products per operator, faster
    than SciPy's multi-vector kernel and equal to it bitwise. Restriction
    reads the hierarchy's stored P^T.

    Every smoothing call and coarse correction starts from zero on a
    residual: per level, x = `nu` Chebyshev-accelerated additive Schwarz
    steps on b, x += P (cycle of P^T (b - K x)), x += `nu` steps on b - K x.
    Entering the h-portion from a p-level runs the sub-cycle `n_V` times as
    defect correction, e += cycle(r_c - K_c e); the coarsest level is solved
    directly. A level visit costs 2 nu patch sweeps and 2 nu SpMVs with K.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim not in (1, 2) or b.shape[0] != hierarchy.n:
        raise ValueError(
            f"right-hand side has shape {b.shape}, expected ({hierarchy.n},) "
            f"or ({hierarchy.n}, c)"
        )
    if timer is None:
        timer = Timings()
    return _cycle(hierarchy, 0, b, timer)


def _cycle(hierarchy, l, b, timer):
    levels = hierarchy.levels
    level = levels[l]
    if level.patches is None:
        with timer.scope("coarse"):
            return hierarchy.coarse_solve(b)

    def apply_MK(v, _p=level.patches, _K=level.K):
        return asm_apply(_p, spmv(_K, v))

    def apply_Minv(r, _p=level.patches):
        return asm_apply(_p, r)

    rlx = f"rlx(l={l})"
    with timer.scope(rlx):
        x = chebyshev(apply_MK, apply_Minv, b, level.nu, level.lambda_max)
    with timer.scope("residual"):
        r = b - spmv(level.K, x)
    with timer.scope("transfer"):
        rc = spmv(hierarchy.restrictions[l], r)
    e = _cycle(hierarchy, l + 1, rc, timer)
    if level.kind == P_LEVEL and levels[l + 1].kind == H_LEVEL:
        for _ in range(hierarchy.n_V - 1):
            with timer.scope("residual"):
                rc_e = rc - spmv(levels[l + 1].K, e)
            e += _cycle(hierarchy, l + 1, rc_e, timer)
    with timer.scope("transfer"):
        x = x + spmv(level.P, e)
    with timer.scope("residual"):
        r = b - spmv(level.K, x)
    with timer.scope(rlx):
        x += chebyshev(apply_MK, apply_Minv, r, level.nu, level.lambda_max)
    return x


# -- full-block factorization ------------------------------------------------

class FBFPreconditioner:
    """Block LDU preconditioner for the saddle system.

    `apply_Ainv(r, timer)` approximates the velocity-block inverse (one
    V-cycle of the inner hierarchy); `schur_solve` inverts the pressure
    mass matrix exactly. `B` is the eliminated lower off-diagonal block of
    the outer operator, whose upper block is B^T (the elimination is
    symmetric); `BT` holds B^T in CSR form, stored once here for
    `fbf_apply`. Like `MGHierarchy`, a built preconditioner is only read by
    `fbf_apply`, so one instance can serve many concurrent solves.
    """

    def __init__(self, apply_Ainv, schur_solve, B, n_u, n_p, inner=None):
        if B.shape != (n_p, n_u):
            raise ValueError(
                f"off-diagonal block {B.shape} does not match "
                f"block sizes n_u={n_u}, n_p={n_p}"
            )
        self.apply_Ainv = apply_Ainv
        self.schur_solve = schur_solve
        self.B = B
        self.BT = B.T.tocsr()
        self.n_u = n_u
        self.n_p = n_p
        self.inner = inner

    @property
    def n(self):
        return self.n_u + self.n_p


def build_fbf(system, inner, schur_solve=None):
    """FBF preconditioner for `system` with velocity solver `inner`.

    `inner` is a velocity-only MGHierarchy of the scalar Laplacian, of half
    the velocity block's dimension: one application is one V-cycle on the
    (n_u / 2, 2) block of both interleaved components. It may also be any
    callable r -> z approximating A^{-1} r (used to study the factorization
    with the velocity solve made exact). `schur_solve` defaults to the
    sparse LU (SuperLU) of the pressure mass matrix, for continuous and
    discontinuous pressure alike.
    """
    n_u, n_p = system.n_u, system.n_p
    if isinstance(inner, MGHierarchy):
        if 2 * inner.n != n_u:
            raise ValueError(
                f"velocity hierarchy dimension {inner.n} is not half the "
                f"velocity block ({n_u})"
            )

        def apply_Ainv(r, timer=None, _h=inner):
            return vcycle(_h, r.reshape(-1, 2), timer=timer).ravel()
    elif callable(inner):
        def apply_Ainv(r, timer=None, _f=inner):
            return _f(r)
    else:
        raise TypeError("inner must be an MGHierarchy or a callable")

    if schur_solve is None:
        schur_solve = splu(
            assemble_pressure_mass(system.pressure_space).tocsc()).solve

    B = system.K.tocsr()[n_u:, :n_u].tocsr()
    return FBFPreconditioner(apply_Ainv, schur_solve, B, n_u, n_p,
                             inner=inner)


def fbf_apply(pc, r, timer=None):
    """Apply the block LDU preconditioner: z = U diag(A~^-1, S~^-1) L r.

    Evaluated right-to-left with the velocity solve reused between the
    lower factor and the diagonal, for a total of two velocity V-cycles,
    one Schur (mass) solve, and one product each with B and B^T.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (pc.n,):
        raise ValueError(f"residual has shape {r.shape}, expected ({pc.n},)")
    if timer is None:
        timer = Timings()
    r_u, r_p = r[: pc.n_u], r[pc.n_u:]

    t = pc.apply_Ainv(r_u, timer)
    with timer.scope("schur"):
        w = r_p - pc.B @ t
        s = pc.schur_solve(w)
        g = pc.BT @ s
    z_u = t - pc.apply_Ainv(g, timer)
    return np.concatenate([z_u, s])


# -- drivers ------------------------------------------------------------------

def build_solver(problem, refinements, solver, n_V=None, nu_p=None,
                 nu_h=None):
    """(finest SaddleSystem, preconditioner) for a named solver config.

    `solver` is one of hmg, phmg-direct, phmg-gradual, fbf-hmg, fbf-phmg.
    The monolithic solvers are `build_hierarchy` with the solver name as
    its cycle, paired with its `system`. The FBF variants pair a
    velocity-only hierarchy of the scalar Laplacian (h-coarsened, or
    p-then-h with the direct schedule) with the pressure-mass Schur
    approximation; the outer saddle system is assembled on that
    hierarchy's finest mesh.
    """
    if solver in HIERARCHY_CYCLES:
        h = build_hierarchy(problem, refinements, solver, n_V=n_V, nu_p=nu_p,
                            nu_h=nu_h)
        return h.system, h
    if solver in ("fbf-hmg", "fbf-phmg"):
        cycle = "hmg" if solver == "fbf-hmg" else "phmg-direct"
        inner = build_hierarchy(problem, refinements, cycle, monolithic=False,
                                n_V=n_V, nu_p=nu_p, nu_h=nu_h)
        system = assemble_stokes(problem, inner.levels[0].mesh)
        return system, build_fbf(system, inner)
    raise ValueError(f"unknown solver {solver!r}; pick from {SOLVER_NAMES}")


def make_apply(pc, timer=None):
    """Preconditioner application callable for FGMRES."""
    if isinstance(pc, MGHierarchy):
        return lambda v: vcycle(pc, v, timer=timer)
    if isinstance(pc, FBFPreconditioner):
        return lambda v: fbf_apply(pc, v, timer=timer)
    if callable(pc):
        return pc
    raise TypeError(f"cannot apply preconditioner of type {type(pc)!r}")


def solve_stokes(system, pc, rtol=1e-10, restart=30, maxiter=500,
                 timer=None):
    """Preconditioned FGMRES on an assembled saddle system.

    Starts from the lifted guess (Dirichlet rows exact), projects out the
    constant-pressure mode for enclosed flows, and reports rather than
    raises on non-convergence.
    """
    project = None
    if system.has_pressure_nullspace:
        c = system.pressure_nullvector()

        def project(v, _c=c):
            return v - _c * (_c @ v)

    x, report = fgmres(
        lambda v: system.K @ v,
        make_apply(pc, timer),
        system.b,
        rtol=rtol,
        restart=restart,
        maxiter=maxiter,
        x0=system.lifted_guess(),
        project=project,
    )
    return x, report
