"""Built-in fixtures every experiment can run without external data.

Function fixtures (sampled on a square grid):

    harmonic            x1^2 - x2^2       (2D; discretely harmonic, exactly)
    quad                |x|^2 / 2
    kink                |x1|              (Lipschitz, no second derivatives)
    radial-holder:g     |x|^(1+g)         (C^{1,g} at the origin, 0 < g < 1)

plus ``disc``, an obstacle problem (psi = 0.25 - |x|^2 on [-0.75, 0.75]^2,
zero boundary data, trace operator with a linear reaction term) whose
solution satisfies the inequality triple u >= psi, Delta u <= u g off nothing,
equality off the contact set.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFunction, square_grid
from .operators import trace_operator
from .solvers import ObstacleProblem, solve_dirichlet

__all__ = [
    "FUNCTION_FIXTURES",
    "square_grid",
    "fixture_callable",
    "build_fixture",
    "disc_problem",
    "limit_families",
]

FUNCTION_FIXTURES = ("harmonic", "quad", "kink", "radial-holder:<gamma>")


def fixture_callable(name: str, ndim: int = 2):
    """Vectorized point-array callable for a named function fixture."""
    name = name.strip()
    if name == "harmonic":
        if ndim != 2:
            raise ValueError("the harmonic fixture x1^2 - x2^2 is two-dimensional")
        return lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2
    if name == "quad":
        return lambda pts: 0.5 * np.sum(np.atleast_2d(pts) ** 2, axis=1)
    if name == "kink":
        return lambda pts: np.abs(np.atleast_2d(pts)[:, 0])
    if name.startswith("radial-holder:"):
        gamma = float(name.partition(":")[2])
        if not (0.0 < gamma < 1.0):
            raise ValueError("radial-holder exponent must lie in (0, 1)")
        power = 0.5 * (1.0 + gamma)
        return lambda pts: np.sum(np.atleast_2d(pts) ** 2, axis=1) ** power
    if name == "disc":
        raise ValueError("'disc' is an obstacle problem; use disc_problem(resolution)")
    raise ValueError("unknown fixture %r (have: %s, disc)"
                     % (name, ", ".join(FUNCTION_FIXTURES)))


def build_fixture(name: str, resolution: int, ndim: int = 2) -> GridFunction:
    """A named function fixture sampled on square_grid(resolution, ndim=ndim)."""
    grid = square_grid(resolution, ndim=ndim)
    return GridFunction.from_callable(grid, fixture_callable(name, ndim))


def disc_problem(resolution: int) -> ObstacleProblem:
    """The disc obstacle: psi = 0.25 - |x|^2 on [-0.75, 0.75]^2, boundary 0.

    The obstacle pokes above the zero boundary data on |x| < 1/2, so the
    solution is pinned on a neighborhood of the origin — a genuinely
    two-sided differential inequality, not an equation in disguise.
    """
    grid = square_grid(resolution, 0.75, 2)
    psi = GridFunction.from_callable(
        grid, lambda pts: 0.25 - np.sum(pts**2, axis=1))
    return ObstacleProblem(trace_operator(), psi, 0.0, 0.0, 1.0)


def limit_families(resolution: int = 65) -> dict:
    """Three sequences (u_k, lam_k) -> (u_inf, lam_inf) for the stability
    experiment: a constant sequence, a shrinking high-frequency ripple on the
    harmonic saddle, and the tail of Dirichlet solves with f = 1 + 1/k.

    Returns name -> (generator, u_limit, lam_limit).  The ripple amplitude
    k^-3 keeps |Delta u_k| <= 1/k below its declared bound lam_k = 2/k; the
    solver family is certified by its own residual.
    """
    op = trace_operator()
    grid = square_grid(resolution)
    const = GridFunction(grid, np.full(grid.node_count, 0.25))
    harmonic = build_fixture("harmonic", resolution)
    x1 = grid.points()[:, 0]

    def constant(k):
        return const, 0.0

    def ripple(k):
        return GridFunction(grid, harmonic.values + np.sin(k * x1) / k**3), 2.0 / k

    def solver_tail(k):
        return solve_dirichlet(op, 1.0 + 1.0 / k, 0.0, grid=grid).u, 1.0 + 1.0 / k

    u_inf = solve_dirichlet(op, 1.0, 0.0, grid=grid).u
    return {
        "constant": (constant, const, 0.0),
        "ripple": (ripple, harmonic, 0.0),
        "solver-tail": (solver_tail, u_inf, 1.0),
    }
