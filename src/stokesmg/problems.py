"""Canonical Stokes problem factories.

Three families of test problems, all on triangulated 2D domains:

- :func:`lid_driven_cavity` — enclosed flow in a square cavity driven by a
  regularized lid profile; structured base mesh.
- :func:`backward_facing_step` — channel flow over a step with a parabolic
  inflow and a natural outflow; bundled unstructured base mesh.
- :func:`manufactured` — a divergence-free field with known closed-form
  velocity and pressure, for convergence and robustness studies.

Each factory returns a :class:`~stokesmg.assembly.ProblemInstance` whose
``refinements`` field records the intended number of uniform refinements
between the base mesh and the finest solve mesh. Factories are pure and
deterministic: the same arguments always produce identical meshes, DoF
numbering, and operators. Boundary data, forcing and exact solutions are
written with NumPy ufuncs, so they take coordinate arrays (or scalars), as
the assembly calls them.
"""

import os

import numpy as np

from .assembly import ProblemInstance
from .mesh import generate_structured_grid, load_mesh

_PI = np.pi

#: Default directory of bundled mesh files.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _zero_velocity(x, y):
    return (0.0, 0.0)


def lid_driven_cavity(refinements, k, family="th", base_n=None):
    """Regularized lid-driven cavity on [-1, 1]^2.

    The lid (y = 1) moves with velocity ((1 - x^4), 0), which vanishes at
    the corners and so avoids the singular corner data of the classical
    cavity; the remaining walls are no-slip and the body force is zero.
    Enclosed flow: the pressure is determined only up to a constant.

    `base_n` sets the structured base grid resolution; the default is 4
    for k <= 5 and 2 for higher orders, where most resolution comes from
    the polynomial degree and a smaller grid keeps setup affordable.
    """
    if base_n is None:
        base_n = 4 if k <= 5 else 2
    mesh = generate_structured_grid(base_n, domain=((-1.0, -1.0), (1.0, 1.0)))
    lid = lambda x, y: (1.0 - x**4, 0.0)
    return ProblemInstance(
        name="ldc2d",
        base_mesh=mesh,
        family=family,
        k=k,
        dirichlet={1: _zero_velocity, 2: _zero_velocity, 3: lid,
                   4: _zero_velocity},
        refinements=refinements,
    )


def backward_facing_step(refinements, k, family="th", mesh_dir=None):
    """Backward-facing step on (-1,0)x(0,1) union (0,5)x(-1,1).

    A parabolic profile u = (4y(1-y), 0) enters through the inlet plane
    x = -1 (carrying unit-flux 2/3), drops over the step at the origin,
    and leaves through the natural (zero-traction) outflow at x = 5. All
    other boundaries are no-slip walls. The outflow segment makes the
    pressure unique, so no zero-mean constraint applies.

    The unstructured base mesh is loaded from ``bfs2d_base.mesh`` under
    `mesh_dir` (bundled data directory by default).
    """
    path = os.path.join(mesh_dir or DATA_DIR, "bfs2d_base.mesh")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"backward-facing step needs the base mesh file {path}"
        )
    mesh = load_mesh(path)
    inflow = lambda x, y: (4.0 * y * (1.0 - y), 0.0)
    return ProblemInstance(
        name="bfs2d",
        base_mesh=mesh,
        family=family,
        k=k,
        dirichlet={1: _zero_velocity, 4: inflow},
        neumann={2: lambda x, y: (0.0, 0.0)},
        refinements=refinements,
    )


def _manufactured_velocity(x, y):
    # curl of the stream function psi = sin^2(pi x) sin^2(pi y)
    return (
        _PI * np.sin(_PI * x) ** 2 * np.sin(2 * _PI * y),
        -_PI * np.sin(2 * _PI * x) * np.sin(_PI * y) ** 2,
    )


def _manufactured_pressure(x, y):
    # zero mean over [-1, 1]^2 as given: both factors integrate to zero
    return np.sin(_PI * x) * np.cos(_PI * y)


def _manufactured_forcing(x, y):
    lap_u1 = (2 * _PI**3 * np.cos(2 * _PI * x) * np.sin(2 * _PI * y)
              - 4 * _PI**3 * np.sin(_PI * x) ** 2 * np.sin(2 * _PI * y))
    lap_u2 = (4 * _PI**3 * np.sin(2 * _PI * x) * np.sin(_PI * y) ** 2
              - 2 * _PI**3 * np.sin(2 * _PI * x) * np.cos(2 * _PI * y))
    dp_dx = _PI * np.cos(_PI * x) * np.cos(_PI * y)
    dp_dy = -_PI * np.sin(_PI * x) * np.sin(_PI * y)
    return (-lap_u1 + dp_dx, -lap_u2 + dp_dy)


def manufactured(refinements, k, family="th", base_n=2):
    """Manufactured solution on [-1, 1]^2 with known exact fields.

    The velocity is the curl of psi = sin^2(pi x) sin^2(pi y), hence
    exactly divergence-free, and vanishes on the whole boundary; the
    pressure sin(pi x) cos(pi y) has zero mean over the domain. The body
    force is derived analytically from the momentum equation. Dirichlet
    data on all four sides comes from the exact velocity, so this is
    enclosed flow with the constant-pressure nullspace.
    """
    mesh = generate_structured_grid(base_n, domain=((-1.0, -1.0), (1.0, 1.0)))
    bc = {m: _manufactured_velocity for m in (1, 2, 3, 4)}
    return ProblemInstance(
        name="manufactured",
        base_mesh=mesh,
        family=family,
        k=k,
        dirichlet=bc,
        forcing=_manufactured_forcing,
        exact_u=_manufactured_velocity,
        exact_p=_manufactured_pressure,
        refinements=refinements,
    )
