"""Policy-iteration solvers for F_h(D^2 u) = f with Dirichlet data.

F_h is the pointwise max (the min for pucci_min) of a few linear stencils
with nonnegative off-centre weights (``stencils.frozen_stencils``).  Howard's
policy iteration (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009)
solves F_h(u) = f: every step evaluates the residual and the attaining
stencil per node with ``eval_policy`` and returns once the residual is within
tolerance, otherwise freezes those stencils and solves that sparse linear
system.  The returned field therefore solves the very scheme
``eval_discrete`` defines.

The obstacle variant runs the same iteration as a primal-dual active-set
method (Hintermüller, Ito & Kunisch, SIAM J. Optim. 13, 2002) on

    min(u - psi, f + g u - F_h(u)) = 0  on the interior,

pinning u = psi exactly where u - psi falls below the multiplier
f + g u - F_h(u) and solving the equation on the remaining nodes, until the
active set repeats.  Its solutions satisfy F_h(u) - g u <= f everywhere, with
equality off the contact set, and on contact F_h(u) >= F_h(psi) by
monotonicity of the scheme, which is what lets us manufacture two-sided
inequality bounds for the certificate checks.

Each step solves for the correction to the current iterate with BiCGSTAB
(the same as warm-starting at the iterate); the correction vanishes on the
boundary band and on pinned nodes, so only the free interior nodes are
unknowns.  scipy is imported inside the solves, which keeps importing the
package light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grids import Grid, GridFunction
from .operators import EllipticOperator
from .stencils import eval_discrete, eval_policy, frozen_stencils, operator_margin

__all__ = [
    "RelaxationConfig",
    "SolverError",
    "SolveResult",
    "ObstacleProblem",
    "ObstacleResult",
    "solve_dirichlet",
    "solve_obstacle",
    "residual",
    "sup_residual",
]

# inner Krylov solves stop at this fraction of the outer tolerance, or at
# this reduction of the step's residual, whichever is reached first
_INNER_ATOL = 1e-3
_INNER_RTOL = 1e-6


class SolverError(RuntimeError):
    """A solve exhausted its step budget or an inner linear solve broke down;
    carries the last residual."""

    def __init__(self, message, last_residual=float("nan")):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True)
class RelaxationConfig:
    """Step budget and stopping rule.

    max_iterations bounds the policy (or active-set) steps, each one sparse
    linear solve; the residual tolerance defaults to 1e-9 * (1 + sup|f|).
    """

    max_iterations: int = 500
    residual_tolerance: Optional[float] = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.residual_tolerance is not None and self.residual_tolerance <= 0:
            raise ValueError("residual_tolerance must be positive")


@dataclass(frozen=True, eq=False)
class SolveResult:
    u: GridFunction
    iterations: int  # policy steps, one linear solve each
    residual: float  # sup-norm of F_h(u) - f over interior at return


def _node_field(grid: Grid, data, name: str) -> np.ndarray:
    """Coerce scalar / callable / GridFunction into a flat node array."""
    if isinstance(data, GridFunction):
        if data.grid != grid:
            raise ValueError("%s lives on a different grid" % name)
        return data.values.copy()
    if callable(data):
        return np.asarray(data(grid.points()), dtype=float).reshape(-1)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 0:
        return np.full(grid.node_count, float(arr))
    if arr.size != grid.node_count:
        raise ValueError("%s has the wrong number of values" % name)
    return arr.reshape(-1).copy()


def _pick_grid(*candidates) -> Grid:
    for c in candidates:
        if isinstance(c, GridFunction):
            return c.grid
        if isinstance(c, Grid):
            return c
    raise ValueError(
        "no grid in sight: pass grid= or provide f/boundary as a GridFunction"
    )


def residual(op: EllipticOperator, u: GridFunction, f) -> GridFunction:
    """The field F_h(u) - f; NaN on the margin band where the scheme is undefined."""
    grid = u.grid
    fh = eval_discrete(op, u).values
    fv = _node_field(grid, f, "f")
    return GridFunction(grid, fh - fv, allow_non_finite=True)


def sup_residual(op: EllipticOperator, u: GridFunction, f) -> float:
    return residual(op, u, f).sup_norm()


def _matrix(stencils, policy, nodes, node_count, shift):
    """CSR matrix of the frozen policy minus diag(shift) over ``nodes``,
    built row by row with a fixed number of terms per row; couplings to any
    other node are dropped (its correction is zero)."""
    from scipy import sparse

    chosen = slice(0, 1) if policy is None else policy[nodes]
    offsets, weights = stencils[0][chosen], stencils[1][chosen]
    index = np.full(node_count, -1, dtype=np.int32)
    index[nodes] = np.arange(nodes.size, dtype=np.int32)
    cols = index[nodes[:, None] + offsets]
    keep = (cols >= 0) & (weights != 0.0)
    indptr = np.zeros(nodes.size + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = np.broadcast_to(weights, cols.shape)[keep]
    data[indptr[:-1]] -= shift  # the centre term leads every row
    return sparse.csr_matrix((data, cols[keep], indptr),
                             shape=(nodes.size, nodes.size))


def _correction(matrix, rhs, tol, step, r):
    """Solve matrix @ x = rhs by BiCGSTAB from x = 0."""
    from scipy.sparse.linalg import bicgstab

    x, info = bicgstab(matrix, rhs, rtol=_INNER_RTOL, atol=_INNER_ATOL * tol)
    if info != 0:
        raise SolverError("linear solve of step %d broke down (BiCGSTAB info %d);"
                          " residual %.3e" % (step, info, r), r)
    return x


def _setup(op, grid, f, initial):
    margin = operator_margin(op, grid.ndim)
    mask = grid.interior_mask(margin)
    if not mask.any():
        raise ValueError("grid has no interior nodes at this stencil margin")
    if initial is not None and initial.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    return mask, _node_field(grid, f, "f")


def _tolerance(config, fv, mask):
    if config.residual_tolerance is not None:
        return config.residual_tolerance
    return 1e-9 * (1.0 + float(np.max(np.abs(fv[mask]))))


def solve_dirichlet(op: EllipticOperator, f, boundary,
                    config: RelaxationConfig | None = None,
                    grid: Grid | None = None,
                    initial: GridFunction | None = None) -> SolveResult:
    """Solve F_h(u) = f on the interior by policy iteration; the whole margin
    band is pinned to the boundary data (as deep as the stencils reach).

    f and boundary may be scalars, callables over points, or GridFunctions;
    at least one argument must reveal the grid.  The iteration starts from
    ``initial`` (default: the boundary field), and an exact start returns
    after 0 steps.
    """
    config = config or RelaxationConfig()
    grid = grid or _pick_grid(f, boundary, initial)
    mask, fv = _setup(op, grid, f, initial)
    bv = _node_field(grid, boundary, "boundary")
    u = initial.values.copy() if initial is not None else bv.copy()
    u[~mask] = bv[~mask]
    tol = _tolerance(config, fv, mask)
    nodes = np.flatnonzero(mask).astype(np.int32)
    stencils = frozen_stencils(op, grid)

    for step in range(config.max_iterations + 1):
        gf = GridFunction(grid, u)
        fh, policy = eval_policy(op, gf)
        e = fh.values[nodes] - fv[nodes]
        r = float(np.max(np.abs(e)))
        if r <= tol:
            return SolveResult(gf, step, r)
        if step == config.max_iterations:
            break
        a = _matrix(stencils, policy, nodes, grid.node_count, 0.0)
        u[nodes] += _correction(a, -e, tol, step, r)
    raise SolverError(
        "policy iteration failed to converge: residual %.3e after %d steps"
        " (tolerance %.3e)" % (r, config.max_iterations, tol), r
    )


@dataclass(frozen=True, eq=False)
class ObstacleProblem:
    """Constrained problem u >= psi for F_h(u) = f + u * g_weight.

    g_weight may be a scalar or a GridFunction and must be nonnegative (g >= 0
    keeps every frozen policy an M-matrix).  Boundary data must dominate the
    obstacle on the boundary band.
    """

    op: EllipticOperator
    psi: GridFunction
    boundary: object
    f: object = 0.0
    g_weight: object = 0.0
    g_values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = self.psi.grid
        g = _node_field(grid, self.g_weight, "g_weight")
        if np.min(g) < 0:
            raise ValueError("g_weight must be nonnegative for a monotone scheme")
        object.__setattr__(self, "g_values", g)

    def boundary_values(self, margin: int) -> np.ndarray:
        grid = self.psi.grid
        bv = _node_field(grid, self.boundary, "boundary")
        band = ~grid.interior_mask(margin)
        if np.min(bv[band] - self.psi.values[band]) < -1e-12:
            raise ValueError("boundary data must dominate the obstacle on the boundary band")
        return bv


@dataclass(frozen=True, eq=False)
class ObstacleResult:
    u: GridFunction
    contact: np.ndarray  # flat bool over nodes: the final active set, u == psi
    contact_fraction: float  # share of interior nodes in contact
    lam_lo: float
    lam_hi: float
    iterations: int  # active-set steps, one linear solve each
    residual: float  # sup-norm of F_h(u) - g u - f off contact at return


def solve_obstacle(problem: ObstacleProblem,
                   config: RelaxationConfig | None = None,
                   initial: GridFunction | None = None) -> ObstacleResult:
    """Primal-dual active-set solve of min(u - psi, f + g u - F_h(u)) = 0.

    Every interior node either satisfies the equation (off contact, within
    the tolerance) or is pinned to the obstacle, u == psi exactly, with
    F_h(u) <= f + g u there.  The returned [lam_lo, lam_hi] are manufactured
    bounds the realized field F_h(u) provably satisfies on the interior:
    the upper one from complementarity (F_h(u) <= f + g u + tol), the lower
    one from monotonicity on the contact set, both cross-checked against the
    realized field before being reported.
    """
    grid = problem.psi.grid
    op = problem.op
    config = config or RelaxationConfig()
    mask, fv = _setup(op, grid, problem.f, initial)
    g = problem.g_values
    psi = problem.psi.values
    bv = problem.boundary_values(operator_margin(op, grid.ndim))
    u = initial.values.copy() if initial is not None else np.maximum(bv, psi)
    u[~mask] = bv[~mask]
    tol = _tolerance(config, fv, mask)
    stencils = frozen_stencils(op, grid)

    def excess(fh):  # F_h(u) - g u - f at the iterate: zero off contact, <= 0 on it
        return fh.values - g * u - fv

    previous = None
    for step in range(config.max_iterations + 1):
        e = excess(eval_discrete(op, GridFunction(grid, u)))
        # a node below the obstacle is pinned whatever its multiplier says
        active = mask & (u - psi < np.maximum(-e, 0.0))
        free = mask & ~active
        r = float(np.max(np.abs(e[free]))) if free.any() else 0.0
        if previous is not None and np.array_equal(active, previous) and r <= tol:
            break
        if step == config.max_iterations:
            raise SolverError(
                "active-set iteration failed to converge: residual %.3e after %d"
                " steps (tolerance %.3e)" % (r, config.max_iterations, tol), r
            )
        previous = active
        u[active] = psi[active]
        nodes = np.flatnonzero(free).astype(np.int32)
        if nodes.size:
            fh, policy = eval_policy(op, GridFunction(grid, u))
            a = _matrix(stencils, policy, nodes, grid.node_count, g[nodes])
            u[nodes] += _correction(a, -excess(fh)[nodes], tol, step, r)

    contact = active
    rhs = fv + g * u
    fh = e + rhs  # the realized field F_h(u) at the returned iterate
    slack = tol * (1.0 + float(np.max(np.abs(rhs[mask]))))
    lam_hi = float(np.max(np.abs(rhs[mask]))) + slack
    lo_terms = [float(np.min(rhs[mask]))]
    if contact.any():
        fh_psi = eval_discrete(op, problem.psi).values
        lo_terms.append(float(np.min(fh_psi[contact])))
    lam_lo = min(lo_terms) - slack
    # never report bounds the realized field violates
    lam_lo = min(lam_lo, float(np.min(fh[mask])) - slack)
    lam_hi = max(lam_hi, float(np.max(fh[mask])) + slack)
    frac = float(np.count_nonzero(contact)) / float(np.count_nonzero(mask))
    return ObstacleResult(GridFunction(grid, u), contact, frac, lam_lo, lam_hi, step, r)
