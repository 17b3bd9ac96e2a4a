"""Policy iteration for F_h(D^2 u) = f and its obstacle problem, with
Dirichlet data.

F_h is the pointwise max (the min for pucci_min) of a few linear stencils
with nonnegative off-centre weights (``stencils.frozen_stencils``).  One step
loop solves

    min(u - psi, f + g u - F_h(u)) = 0  on the interior

as a primal-dual active-set method (Hintermüller, Ito & Kunisch, SIAM J.
Optim. 13, 2002).  Every step evaluates F_h and the attaining stencil per
node once, at the iterate (``eval_policy``); pins u = psi where u - psi falls
below the multiplier f + g u - F_h(u), evaluating again only if that moved a
node; and solves the sparse linear system of the frozen stencils on the other
nodes.  The loop returns once the active set is the one the iterate is
pinned on and the residual off it is within tolerance.  The Dirichlet solve
of F_h(u) = f is this loop with no obstacle (psi = -inf, g = 0): no node is
ever active, and the loop is Howard's policy iteration (Bokanowski, Maroso &
Zidani, SIAM J. Numer. Anal. 47, 2009).  Either way the returned field
solves the very scheme ``eval_discrete`` defines.  Obstacle solutions
satisfy F_h(u) - g u <= f everywhere, with equality off the contact set, and
on contact F_h(u) >= F_h(psi) by monotonicity of the scheme, which is what
lets us manufacture two-sided inequality bounds for the certificate checks.

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
same discrete fixed point, a few steps per level on every grid (none when the
interpolated start already meets the stopping rule).

Each step solves for the correction to the current iterate with BiCGSTAB
(the same as warm-starting at the iterate); the correction vanishes on the
boundary band and on pinned nodes, so only the free interior nodes are
unknowns.  When the scheme reaches one node layer (every operator of
moderate anisotropy), BiCGSTAB is preconditioned with
one geometric multigrid V-cycle built on that free-node system: bilinear
interpolation from the grid of every other node restricted to the free
nodes, Galerkin coarse operators P^T A P, damped Jacobi smoothing and a
direct factorization of the coarsest level.  It takes a few iterations per
step on every grid, where the plain iteration needs more as h shrinks.
Stencils that reach further keep the plain iteration.

The system and its V-cycle belong to one grid's step loop
(``_FrozenSystem``), as in truncated monotone multigrid (Kornhuber, Numer.
Math. 69, 1994), which adapts only the finest level to the active set.  A
step whose free nodes and policy repeat the previous step's (for the trace,
the closing step of every obstacle level and the second step of a Dirichlet
solve) reuses the matrix and V-cycle as they are; any other step drops them,
assembles its matrix and rebuilds only the finest level of the V-cycle over
the coarse levels and factorization of the grid's first step.  Nothing
outlives the loop.

Every step records its residual, active-set size and BiCGSTAB iteration
count in the result's ``history``.  scipy is imported inside the solves,
which keeps importing the package light.
"""

from __future__ import annotations

import functools
import math
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
    # one (residual, active-set size, BiCGSTAB iterations) row per step; the
    # residual is the one the step started from, and a Dirichlet solve pins
    # no node
    history: tuple = ()


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


# the V-cycle coarsens until a level has at most _COARSEST unknowns and
# smooths every finer one with _SWEEPS damped Jacobi sweeps on each side
_COARSEST = 400
_SWEEPS = 2
_JACOBI_WEIGHT = 0.8


def _coarse_shape(shape):
    """The shape of the grid of every other node, or None unless every axis
    has an even number of cells."""
    if any((n - 1) % 2 for n in shape):
        return None
    return tuple((n + 1) // 2 for n in shape)


@functools.lru_cache(maxsize=8)
def _interpolation(shape):
    """Multilinear interpolation from the grid of every other node onto a
    grid of ``shape`` as a CSR matrix: coarse nodes are copied, and each node
    between two of them along an axis gets their mean.  The Kronecker product
    of the 1D interpolations, the first axis varying fastest; cached, so
    callers share it and must not modify it."""
    from scipy import sparse

    p = None
    for n in shape:
        c = (n + 1) // 2
        odd = np.arange(1, n, 2)
        rows = np.concatenate([np.arange(0, n, 2), odd, odd])
        cols = np.concatenate([np.arange(c), np.arange(c - 1), np.arange(1, c)])
        vals = np.concatenate([np.ones(c), np.full(2 * (c - 1), 0.5)])
        p1 = sparse.csr_matrix((vals, (rows, cols)), shape=(n, c))
        p = p1 if p is None else sparse.kron(p1, p, format="csr")
    return p


def _coarse_free(nodes, shape):
    """Which nodes of the grid of every other node sit on one of the free
    ``nodes`` of a grid of ``shape``, as a flat mask."""
    free = np.zeros(math.prod(shape), dtype=bool)
    free[nodes] = True
    return free.reshape(shape[::-1])[(slice(None, None, 2),) * len(shape)].ravel()


def _level(a, nodes, shape, kept):
    """One level of a V-cycle for ``a``, a system over the free ``nodes`` of
    a grid of ``shape``: (A, P, P^T, damped Jacobi weights).  P is
    ``_interpolation`` with its rows on the free nodes and its columns on the
    ``kept`` coarse nodes, renumbered in order; the column of a kept coarse
    node that no longer sits on a free node stays empty, so the coarse
    correction still vanishes on contact."""
    from scipy import sparse

    p = _interpolation(shape)[nodes]
    on = (kept & _coarse_free(nodes, shape))[p.indices]
    renumber = np.cumsum(kept) - 1
    indptr = np.concatenate([[0], np.cumsum(on)])[p.indptr]
    p = sparse.csr_matrix((p.data[on], renumber[p.indices[on]], indptr),
                          shape=(nodes.size, int(renumber[-1]) + 1))
    return a, p, p.T.tocsr(), _JACOBI_WEIGHT / a.diagonal()


def _vcycle(matrix, nodes, shape, coarse=None):
    """One multigrid V-cycle for ``matrix``, a system over the free ``nodes``
    of a grid of ``shape``: a scipy LinearOperator and the cycle's coarse
    part, or None.

    A level interpolates from the grid of every other node: the rows of
    ``_interpolation`` on its free nodes, the columns on the coarse nodes that
    sit on a free node (so the coarse correction vanishes on the boundary
    band and on contact, like the fine one, and the interpolation has full
    rank).  Its coarse operator is the Galerkin product P^T A P, and damped
    Jacobi smooths it before and after the coarse correction.  The system
    is coarsened at least once, and then again while the coarse one has more
    than _COARSEST unknowns, as long as the grid has an even number of cells
    on every axis; the coarsest level is factorized by SuperLU.  None if the
    system cannot be coarsened at all, which keeps the plain solve, or if the
    coarsest factorization fails.

    The coarse part is the finest level's kept coarse nodes, the coarser
    levels and the coarsest factor.  Given one built for another system on
    the same grid, only the finest level is built, on those kept coarse
    nodes; a free node that interpolates from none of them is only smoothed.
    The cycle is then no longer the Galerkin one for ``matrix``, but it stays
    a fixed linear preconditioner, which is all BiCGSTAB needs.
    """
    from scipy.sparse.linalg import LinearOperator, splu

    if coarse is not None:
        kept, below, coarsest = coarse
        levels = [_level(matrix, nodes, shape, kept)] + below
    else:
        levels, a = [], matrix
        coarse_shape = _coarse_shape(shape)
        while coarse_shape is not None and (not levels or a.shape[0] > _COARSEST):
            kept = _coarse_free(nodes, shape)
            if not kept.any():
                break
            if not levels:
                first_kept = kept
            levels.append(_level(a, nodes, shape, kept))
            _, p, pt, _ = levels[-1]
            a = (pt @ a @ p).tocsr()
            nodes, shape = np.flatnonzero(kept), coarse_shape
            coarse_shape = _coarse_shape(shape)
        if not levels:
            return None
        try:
            coarsest = splu(a.tocsc())
        except RuntimeError:  # an exactly singular coarse operator
            return None
        coarse = first_kept, levels[1:], coarsest

    cycle = LinearOperator(matrix.shape, dtype=float,
                           matvec=lambda b: _cycle(levels, coarsest, b, 0))
    return cycle, coarse


def _cycle(levels, coarsest, b, k):
    """The V-cycle from level ``k`` down, applied to ``b``.  A module-level
    function: a closure calling itself would keep every level alive in a
    reference cycle until the garbage collector ran."""
    if k == len(levels):
        return coarsest.solve(b)
    a, p, pt, dinv = levels[k]
    x = dinv * b
    for _ in range(_SWEEPS - 1):
        x += dinv * (b - a @ x)
    x += p @ _cycle(levels, coarsest, pt @ (b - a @ x), k + 1)
    for _ in range(_SWEEPS):
        x += dinv * (b - a @ x)
    return x


def _correction(matrix, rhs, tol, where, r, precondition):
    """Solve matrix @ x = rhs by BiCGSTAB from x = 0, preconditioned by
    ``precondition`` (a V-cycle from ``_vcycle``, or None for the plain
    iteration); returns x and the number of BiCGSTAB iterations.  The
    stopping rule is the same either way."""
    from scipy.sparse.linalg import bicgstab

    count = [0]

    def tally(_):
        count[0] += 1

    x, info = bicgstab(matrix, rhs, rtol=_INNER_RTOL, atol=_INNER_ATOL * tol,
                       M=precondition, callback=tally)
    if info != 0:
        raise SolverError("linear solve of %s broke down (BiCGSTAB info %d);"
                          " residual %.3e" % (where, info, r), r)
    return x, count[0]


class _FrozenSystem:
    """The frozen-policy system of one grid's step loop, minus diag(g), and
    its V-cycle, reused across the loop's steps as the module docstring
    describes; it lives as long as that loop.  With ``shape`` None (stencils
    reaching more than one node layer, on which a Galerkin V-cycle costs
    more than it saves) BiCGSTAB runs unpreconditioned."""

    def __init__(self, stencils, g, shape):
        self.stencils, self.g, self.shape = stencils, g, shape
        self.key = self.matrix = self.precondition = self.coarse = None

    def solve(self, policy, nodes, rhs, tol, where, r):
        """The correction on the free ``nodes`` under ``policy`` (None for a
        single stencil) and its BiCGSTAB iteration count, as ``_correction``."""
        chosen = None if policy is None else policy[nodes]
        if not (self.key is not None and np.array_equal(self.key[0], nodes)
                and (chosen is None or np.array_equal(self.key[1], chosen))):
            self.key = self.matrix = self.precondition = None
            self.matrix = _matrix(self.stencils, policy, nodes, self.g.size,
                                  self.g[nodes])
            built = None if self.shape is None else _vcycle(
                self.matrix, nodes, self.shape, self.coarse)
            if built is not None:
                self.precondition, self.coarse = built
            self.key = nodes, chosen
        return _correction(self.matrix, rhs, tol, where, r, self.precondition)


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


def _iterate(op, grid, psi, bv, fv, g, tol, config, u, seed):
    """The step loop on one grid, from the iterate ``u`` (module docstring).

    A ``seed`` replaces the first step's active set, and ``u`` counts as
    pinned on it; without one, the first step cannot return.  Returns (u,
    active set, excess F_h(u) - g u - f, free residual, history), one history
    row per step.
    """
    margin = operator_margin(op, grid.ndim)
    mask = grid.interior_mask(margin)
    u[~mask] = bv[~mask]
    # a scheme reaching one node layer gets the V-cycle (_FrozenSystem)
    system = _FrozenSystem(frozen_stencils(op, grid), g,
                           grid.shape if margin == 1 else None)
    level = "x".join(str(n) for n in grid.shape)
    history = []

    def evaluate():  # the excess at the iterate and the attaining policy
        fh, policy = eval_policy(op, GridFunction(grid, u))
        return fh.values - g * u - fv, policy

    pinned = seed
    for step in range(config.max_iterations + 1):
        e, policy = evaluate()
        # a node below the obstacle is pinned whatever its multiplier says
        active = mask & (u - psi < np.maximum(-e, 0.0))
        settled = pinned is not None and np.array_equal(active, pinned)
        if step == 0 and seed is not None:
            active = seed
        free = mask & ~active
        r = float(np.max(np.abs(e[free]))) if free.any() else 0.0
        if settled and r <= tol:
            return u, active, e, r, tuple(history)
        if step == config.max_iterations:
            break
        pinned = active
        moved = active & (u != psi)
        if moved.any():
            u[moved] = psi[moved]
            e, policy = evaluate()
        nodes = np.flatnonzero(free).astype(np.int32)
        krylov = 0
        if nodes.size:
            x, krylov = system.solve(policy, nodes, -e[nodes], tol,
                                     "step %d on the %s grid" % (step, level), r)
            u[nodes] += x
        history.append((r, int(np.count_nonzero(active)), krylov))
    raise SolverError(
        "policy iteration on the %s grid failed to converge: residual %.3e"
        " after %d steps (tolerance %.3e)" % (level, r, config.max_iterations, tol), r
    )


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
    n = grid.node_count  # the obstacle loop with no obstacle, psi = -inf and g = 0
    u, _, _, r, history = _iterate(op, grid, np.full(n, -np.inf), bv, fv, np.zeros(n),
                                   _tolerance(config, fv, mask), config, u,
                                   np.zeros(n, dtype=bool))
    return SolveResult(GridFunction(grid, u), len(history), r, history)


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
    # one (residual, active-set size, BiCGSTAB iterations) row per step,
    # coarse to fine; level_steps says how many rows each level has
    history: tuple = ()


# the coarse-to-fine start stops coarsening before a level drops below this
# many nodes on an axis (the CLI's smallest --res)
MIN_LEVEL_NODES = 17


def _inject(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Every other node of every axis, as a flat array on the coarser grid."""
    return grid.lattice(values)[(slice(None, None, 2),) * grid.ndim].ravel()


def _coarser(grid: Grid, psi, bv, margin: int) -> Grid | None:
    """The grid of every other node, if the coarse start may use it: every
    axis has an even number of cells, the coarse grid keeps MIN_LEVEL_NODES
    per axis and some interior, and the boundary data still dominate the
    obstacle on its margin band."""
    shape = _coarse_shape(grid.shape)
    if shape is None or min(shape) < MIN_LEVEL_NODES:
        return None
    coarse = Grid(grid.domain, shape)
    band = ~coarse.interior_mask(margin)
    if band.all() or np.min(_inject(grid, bv)[band] - _inject(grid, psi)[band]) < -1e-12:
        return None
    return coarse


def _coarse_to_fine(op, grid, psi, bv, fv, g, tol, config, initial=None):
    """Solve on the grid of every other node first (recursively), then start
    this level from its bilinearly interpolated solution, pinned to psi on the
    nodes whose surrounding coarse nodes are all in contact; without a usable
    coarser grid, start cold from max(boundary, psi).  An ``initial`` iterate
    (flat node values) means that this level runs alone, from it.  Returns u,
    the active set, the excess, the residual, the (nodes, steps) of every
    level and the history rows of all levels."""
    coarse = None if initial is not None else _coarser(
        grid, psi, bv, operator_margin(op, grid.ndim))
    if coarse is None:
        u = np.maximum(bv, psi) if initial is None else initial.copy()
        seed, levels, history = None, (), ()
    else:
        cu, ccontact, _, _, levels, history = _coarse_to_fine(
            op, coarse, *(_inject(grid, a) for a in (psi, bv, fv, g)), tol, config)
        interpolate = _interpolation(grid.shape)
        u = interpolate @ cu
        # the weights of a row are exact binary fractions summing to 1
        seed = interpolate @ ccontact.astype(float) == 1.0
        u[seed] = psi[seed]
    u, active, e, r, rows = _iterate(op, grid, psi, bv, fv, g, tol, config, u, seed)
    return u, active, e, r, levels + ((grid.shape[0], len(rows)),), history + rows


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
    u, contact, e, r, levels, history = _coarse_to_fine(
        op, grid, psi, bv, fv, g, tol, config,
        None if initial is None else initial.values)

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
                          len(history), r, levels, history)
