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

From the cold start max(boundary, psi) the active set loses about one node
layer per step, so the step count grows like 1/h.  Unless given an initial
iterate, the obstacle solve therefore starts coarse to fine, in the spirit of
projected full multigrid (Brandt & Cryer, SIAM J. Sci. Stat. Comput. 4,
1983): it first solves the same problem, restricted by injection, on the grid
of every other node (recursively, while every axis has an even number of
cells, the coarse grid keeps MIN_LEVEL_NODES per axis and the boundary data
still dominate psi on its margin band).  The finer level's first active set
is the nodes whose surrounding coarse nodes are all in contact, its first
iterate the bilinear interpolation of the coarse solution, pinned to psi on
that set; from there the loop is the single-level one, so it stops at the
same discrete fixed point, a few steps per level on every grid.

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
    "SolverConfig",
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
class SolverConfig:
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


def _correction(matrix, rhs, tol, where, r):
    """Solve matrix @ x = rhs by BiCGSTAB from x = 0."""
    from scipy.sparse.linalg import bicgstab

    x, info = bicgstab(matrix, rhs, rtol=_INNER_RTOL, atol=_INNER_ATOL * tol)
    if info != 0:
        raise SolverError("linear solve of %s broke down (BiCGSTAB info %d);"
                          " residual %.3e" % (where, info, r), r)
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
                    config: SolverConfig | None = None,
                    grid: Grid | None = None,
                    initial: GridFunction | None = None) -> SolveResult:
    """Solve F_h(u) = f on the interior by policy iteration; the whole margin
    band is pinned to the boundary data (as deep as the stencils reach).

    f and boundary may be scalars, callables over points, or GridFunctions;
    at least one argument must reveal the grid.  The iteration starts from
    ``initial`` (default: the boundary field), and an exact start returns
    after 0 steps.
    """
    config = config or SolverConfig()
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
        u[nodes] += _correction(a, -e, tol, "step %d" % step, r)
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
    iterations: int  # active-set steps, one linear solve each, over all levels
    residual: float  # sup-norm of F_h(u) - g u - f off contact at return
    level_steps: tuple  # (nodes along the first axis, steps) per level, coarse to fine


# the coarse-to-fine start stops coarsening before a level drops below this
# many nodes on an axis (the CLI's smallest --res)
MIN_LEVEL_NODES = 17


def _inject(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Every other node of every axis, as a flat array on the coarser grid."""
    return grid.lattice(values)[(slice(None, None, 2),) * grid.ndim].ravel()


def _prolong(grid: Grid, coarse: np.ndarray, between) -> np.ndarray:
    """Flat values on ``grid`` from those on the grid of every other node:
    coarse nodes are copied, and each node between two of them along an axis
    gets ``between(left, right)``, axis by axis (the mean gives bilinear
    interpolation, logical and says whether all surrounding nodes agree)."""
    lat = coarse.reshape(tuple((n + 1) // 2 for n in grid.shape[::-1]))
    for ax in range(lat.ndim):
        a = np.moveaxis(lat, ax, 0)
        fine = np.empty((2 * a.shape[0] - 1,) + a.shape[1:], dtype=a.dtype)
        fine[::2] = a
        fine[1::2] = between(a[:-1], a[1:])
        lat = np.moveaxis(fine, 0, ax)
    return lat.ravel()


def _coarser(grid: Grid, psi, bv, margin: int) -> Grid | None:
    """The grid of every other node, if the coarse start may use it: every
    axis has an even number of cells, the coarse grid keeps MIN_LEVEL_NODES
    per axis and some interior, and the boundary data still dominate the
    obstacle on its margin band."""
    if any((n - 1) % 2 or (n + 1) // 2 < MIN_LEVEL_NODES for n in grid.shape):
        return None
    coarse = Grid(grid.domain, tuple((n + 1) // 2 for n in grid.shape))
    band = ~coarse.interior_mask(margin)
    if band.all() or np.min(_inject(grid, bv)[band] - _inject(grid, psi)[band]) < -1e-12:
        return None
    return coarse


def _active_set(op, grid, psi, bv, fv, g, tol, config, u, seed):
    """The primal-dual active-set loop on one level, from the iterate ``u``.

    A ``seed`` is taken as the first active set; otherwise, and on every
    later step, a node is active where u - psi falls below its multiplier.
    Returns (u, active set, excess F_h(u) - g u - f, free residual, steps).
    """
    mask = grid.interior_mask(operator_margin(op, grid.ndim))
    u[~mask] = bv[~mask]
    stencils = frozen_stencils(op, grid)
    level = "x".join(str(n) for n in grid.shape)

    def excess(fh):  # F_h(u) - g u - f at the iterate: zero off contact, <= 0 on it
        return fh.values - g * u - fv

    previous = None
    for step in range(config.max_iterations + 1):
        e = excess(eval_discrete(op, GridFunction(grid, u)))
        if step == 0 and seed is not None:
            active = seed
        else:
            # a node below the obstacle is pinned whatever its multiplier says
            active = mask & (u - psi < np.maximum(-e, 0.0))
        free = mask & ~active
        r = float(np.max(np.abs(e[free]))) if free.any() else 0.0
        if previous is not None and np.array_equal(active, previous) and r <= tol:
            return u, active, e, r, step
        if step == config.max_iterations:
            break
        previous = active
        u[active] = psi[active]
        nodes = np.flatnonzero(free).astype(np.int32)
        if nodes.size:
            fh, policy = eval_policy(op, GridFunction(grid, u))
            a = _matrix(stencils, policy, nodes, grid.node_count, g[nodes])
            u[nodes] += _correction(a, -excess(fh)[nodes], tol,
                                    "step %d on the %s grid" % (step, level), r)
    raise SolverError(
        "active-set iteration on the %s grid failed to converge: residual %.3e"
        " after %d steps (tolerance %.3e)" % (level, r, config.max_iterations, tol), r
    )


def _coarse_to_fine(op, grid, psi, bv, fv, g, tol, config):
    """Solve on the grid of every other node first (recursively), then start
    this level from its bilinearly interpolated solution, pinned to psi on the
    nodes whose surrounding coarse nodes are all in contact; without a usable
    coarser grid, start cold from max(boundary, psi).  Returns u, the active
    set, the excess, the residual and the (nodes, steps) of every level."""
    coarse = _coarser(grid, psi, bv, operator_margin(op, grid.ndim))
    if coarse is None:
        u, seed, levels = np.maximum(bv, psi), None, ()
    else:
        cu, ccontact, _, _, levels = _coarse_to_fine(
            op, coarse, *(_inject(grid, a) for a in (psi, bv, fv, g)), tol, config)
        u = _prolong(grid, cu, lambda a, b: 0.5 * (a + b))
        seed = _prolong(grid, ccontact, np.logical_and)
        u[seed] = psi[seed]
    u, active, e, r, steps = _active_set(op, grid, psi, bv, fv, g, tol, config, u, seed)
    return u, active, e, r, levels + ((grid.shape[0], steps),)


def solve_obstacle(problem: ObstacleProblem,
                   config: SolverConfig | None = None,
                   initial: GridFunction | None = None) -> ObstacleResult:
    """Primal-dual active-set solve of min(u - psi, f + g u - F_h(u)) = 0.

    Every interior node either satisfies the equation (off contact, within
    the tolerance) or is pinned to the obstacle, u == psi exactly, with
    F_h(u) <= f + g u there.  The returned [lam_lo, lam_hi] are manufactured
    bounds the realized field F_h(u) provably satisfies on the interior:
    the upper one from complementarity (F_h(u) <= f + g u + tol), the lower
    one from monotonicity on the contact set, both cross-checked against the
    realized field before being reported.

    Without ``initial`` the solve starts coarse to fine (module docstring);
    with it, a single level runs from that iterate.
    """
    grid = problem.psi.grid
    op = problem.op
    config = config or SolverConfig()
    mask, fv = _setup(op, grid, problem.f, initial)
    g = problem.g_values
    psi = problem.psi.values
    bv = problem.boundary_values(operator_margin(op, grid.ndim))
    tol = _tolerance(config, fv, mask)
    if initial is None:
        u, contact, e, r, levels = _coarse_to_fine(op, grid, psi, bv, fv, g,
                                                   tol, config)
    else:
        u, contact, e, r, steps = _active_set(op, grid, psi, bv, fv, g, tol, config,
                                              initial.values.copy(), None)
        levels = ((grid.shape[0], steps),)

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
    return ObstacleResult(GridFunction(grid, u), contact, frac, lam_lo, lam_hi,
                          sum(steps for _, steps in levels), r, levels)
