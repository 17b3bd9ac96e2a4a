"""Policy iteration for F_h(D^2 u) = f and its obstacle problem, with
Dirichlet data.

F_h is the pointwise max (the min for pucci_min) of linear stencils with
nonnegative off-centre weights; a policy is, per node, the attaining
matrix's weights on the scheme's lines (``stencils.eval_policy``).  One
step loop solves

    min(u - psi, f + g u - F_h(u)) = 0  on the interior

as a primal-dual active-set method (Hintermüller, Ito & Kunisch, SIAM J.
Optim. 13, 2002).  Every step evaluates F_h and the policy once, at the
iterate; pins u = psi where u - psi falls below the multiplier f + g u -
F_h(u), evaluating again only if that moved a node; and solves the sparse
linear system of the frozen policy on the other nodes.  The loop returns
once the active set is the one the iterate is pinned on (the seed, or
where u = psi, at the start) and the residual off it is within tolerance.
Both public solves are one routine (``_solve``) and return one
``SolveResult``.  The Dirichlet solve of F_h(u) = f is the loop with no
obstacle (psi = -inf, g = 0), from its iterate on the given grid alone: no
node is ever active, and the loop is Howard's policy iteration (Bokanowski,
Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009).  Its contact set is empty,
and its bounds bracket f and the realized F_h(u).
With F_h a min, the obstacle problem is an Isaacs system, on which moving
the set and the policy together cycles; so a step keeps the set while the
policy on its free nodes moved since the last solve and the residual there
is above tolerance: nested policy iteration (Hoffman & Karp, Management
Sci. 12, 1966).  Either way the returned field solves
the very scheme ``eval_discrete`` defines.  Obstacle solutions
satisfy F_h(u) - g u <= f everywhere, with equality off the contact set, and
on contact F_h(u) >= F_h(psi) by monotonicity of the scheme, which is what
lets us manufacture two-sided inequality bounds for the certificate checks.

From the cold start max(boundary, psi) the active set loses about one node
layer per step, so the step count grows like 1/h.  Unless given an initial
iterate, the obstacle solve therefore starts coarse to fine, in the spirit of
projected full multigrid (Brandt & Cryer, SIAM J. Sci. Stat. Comput. 4,
1983), up a ladder of grids: the given one and its coarsenings to every other
node.  It first solves the same problem, restricted by injection, on the
coarsest rung that keeps MIN_LEVEL_NODES per axis and on whose margin band
the boundary data still dominate psi.  A finer rung's first active set is the
nodes whose surrounding coarse nodes are all in contact, its first iterate
the bilinear interpolation of the coarse solution, pinned to psi on that set;
from there the loop is the single-level one, so it stops at the same discrete
fixed point, a few steps per rung on every grid (none when the interpolated
start already meets the stopping rule).  A coarse rung only seeds the next,
so it returns once its active set settles; only the finest polishes its
residual to the tolerance.  On one-layer stencils (on two-layer Pucci ones
the policy swung between iterates and they diverged) an obstacle's steps are
projected multigrid ones (``_FrozenSystem.project``) until the pinned set
{u = psi} repeats the last step's or the one before; that set seeds the
linear solves, so the loop still returns a fixed point of the active-set rule.

Each step solves for the correction to the current iterate (the same as
warm-starting at the iterate); the correction vanishes on the boundary band
and on pinned nodes, so only the free interior nodes are unknowns.  Every
linear solve is BiCGSTAB preconditioned with one geometric multigrid V-cycle,
the same for every operator whatever the reach of its stencils: multilinear
interpolation from the grid of every other node, damped Jacobi smoothing and
a direct factorization of the last level.  Its levels are one list, the
ladder's rungs from the loop's own down to the first with at most _COARSEST
unknowns, or to the last whose coarsening keeps nodes inside the margin: a
ladder of one level is solved by its factorization alone.  They are
rediscretized (Trottenberg, Oosterlee & Schüller, *Multigrid*, 2001): the
frozen policy's line weights and g, injected to a rung's nodes, fill the same
lines at its spacing, so every level is its own grid's system, 1/h^2 sum c D_e
minus g.  That is 2^-d times the size of P^T A P, so the cycle scales the
restricted residual by 2^-d, exactly.  Every level is a monotone stencil, an
M-matrix when g >= 0, where a Galerkin product P^T A P of a stencil reaching
two node layers need not keep A's sign pattern.  It takes a few iterations
per step on every grid, where the plain iteration needs more as h shrinks.
A grid with an odd number of cells on an axis has no coarsening, so both
solves refuse it (``ValueError``) before any step.

The system and its V-cycle belong to one grid's step loop (``_FrozenSystem``),
as in truncated monotone multigrid (Kornhuber, Numer. Math. 69, 1994).  The
solve's first linear solve builds the ladder: per rung one layout over its
interior nodes, the CSR structure of the centre plus x +- e on every line of
the policy, without the couplings to the boundary band; on every rung below
the finest, the interpolation onto the rung above restricted to those nodes
(cached per grid) and the seats.  No step assembles anything after that.  A
loop's first step and every new policy refill its levels' entries from the
line weights in place (the trace's never changes).  A new active set writes
no entry: every level's A, P and P^T stay as built, and one rule truncates
them all, masking the vectors around them in place.  A coarse node is free
when the node it sits on is; each level's A and P map nothing to a pinned
node, and P^T nothing to a coarse node sitting on one; the last level is
factorized again, as its matrix over its free nodes, when its policy or its
free nodes change.  The right-hand side and so every Krylov vector vanish on
pinned nodes, so the iterates are those of the system over the free nodes
alone, up to the order of summation.  A step whose policy and free nodes
repeat the previous step's (for the trace, the closing step of the finest
obstacle level and the second step of a Dirichlet solve) reuses the system
as it is.  The V-cycle and the BiCGSTAB operator apply their sparse matrices
by scipy's compiled kernels, without the dispatch of ``@``, and share the
finest A's masked product.  Nothing outlives the solve.

Every step records its residual, active-set size, BiCGSTAB iterations and
whether it was projected in the result's ``history``, and its ``timings``
give each level's wall seconds of builds, refills, BiCGSTAB and projected
steps.  scipy is imported inside the solves, keeping the package light.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, GridFunction
from .operators import EllipticOperator
from .stencils import eval_discrete, eval_policy, operator_margin, policy_lines

__all__ = [
    "SolverError",
    "SolveResult",
    "ObstacleProblem",
    "solve_dirichlet",
    "solve_obstacle",
]

# inner Krylov solves stop at this fraction of the outer tolerance, or at
# this reduction of the step's residual, whichever is reached first
_INNER_ATOL = 1e-3
_INNER_RTOL = 1e-6

# the step budget of every grid's loop: policy (or active-set) steps, one
# sparse linear solve each; read at call time
MAX_STEPS = 500


class SolverError(RuntimeError):
    """A grid's loop exhausted MAX_STEPS or an inner linear solve broke down;
    carries the last residual."""

    def __init__(self, message, last_residual=float("nan")):
        super().__init__(message)
        self.last_residual = last_residual


@dataclass(frozen=True, eq=False)
class SolveResult:
    """What either solve returns: a Dirichlet solve is an obstacle solve with
    no obstacle, so its contact set is empty and its one level is the given
    grid."""

    u: GridFunction
    contact: np.ndarray  # flat bool over nodes: the final active set, u == psi
    contact_fraction: float  # share of interior nodes in contact
    # manufactured bounds on the realized F_h(u) over the interior
    lam_lo: float
    lam_hi: float
    iterations: int  # steps over all levels, each projected or one linear solve
    residual: float  # sup-norm of F_h(u) - g u - f off contact at return
    level_steps: tuple  # (nodes along the first axis, steps) per level, coarse to fine
    # one (residual, active-set size, BiCGSTAB iterations, projected) row per step,
    # coarse to fine; the residual is the one the step started from, and
    # level_steps says how many rows each level has.  On a ladder of one
    # level the V-cycle is the exact solve, so BiCGSTAB converges inside its
    # first iteration, before its callback counts one, and the row records 0
    # iterations
    history: tuple = ()
    # (nodes along the first axis, wall seconds of the ladder's layouts and
    # transfers if the level built it, of its policy refills, mask refreshes
    # and last-level factorizations, of BiCGSTAB and of projected steps, by
    # name) per level, coarse to fine: ``_FrozenSystem.seconds``
    timings: tuple = ()


def _node_field(grid: Grid, data, name: str) -> np.ndarray:
    """A number or a GridFunction on ``grid`` as a flat node array."""
    if isinstance(data, GridFunction):
        if data.grid != grid:
            raise ValueError("%s lives on a different grid" % name)
        return data.values.copy()
    return np.full(grid.node_count, float(data))


def _pick_grid(*candidates) -> Grid:
    for c in candidates:
        if isinstance(c, GridFunction):
            return c.grid
    raise ValueError(
        "no grid in sight: pass grid= or provide f/boundary as a GridFunction"
    )


def _product(a, after=None):
    """x -> a @ x for the CSR (or CSC) matrix ``a`` by scipy's compiled
    kernel, without the per-call dispatch of ``@``, which costs more than the
    product itself on a coarse level; given a mask, the product is multiplied
    by ``after`` in place, which truncates ``a`` to the mask's nonzero rows.
    It reads ``a``'s arrays and the mask at every call, so a refill of either
    in place shows.  A CSR matrix's ``.T`` is CSC over the same arrays, so
    its transpose applies with no copy."""
    from scipy.sparse._sparsetools import csc_matvec, csr_matvec

    n, m = a.shape
    indptr, indices, data = a.indptr, a.indices, a.data
    matvec = csr_matvec if a.format == "csr" else csc_matvec

    def apply(x):
        y = np.zeros(n)
        matvec(n, m, indptr, indices, data, x, y)
        if after is not None:
            y *= after
        return y

    return apply


def _layout(shifts, nodes, node_count):
    """The CSR structure of every frozen-policy system over the interior
    ``nodes``: per row the centre, then x + e and x - e on each line of
    ``shifts``.  A coupling to the boundary band, whose correction is 0, is
    dropped once: its entry is on the row's own column, and ``live`` is 0 on
    it.  Returns the matrix, with zero data, and ``live``, of shape (nodes,
    terms), the shape of the matrix's data."""
    from scipy import sparse

    offsets = np.array([0] + [o for s in shifts for o in (s, -s)])
    index = np.full(node_count, -1, dtype=np.int32)
    index[nodes] = np.arange(nodes.size, dtype=np.int32)
    cols = index[nodes[:, None] + offsets]
    live = cols >= 0
    n, t = cols.shape
    a = sparse.csr_matrix((np.zeros(n * t), np.where(live, cols, cols[:, :1]).ravel(),
                           np.arange(0, n * t + 1, t, dtype=np.int32)), shape=(n, n))
    return a, live


def _fill(policy, level):
    """Into ``level``'s matrix (a ``_Level``), its entries for ``policy``:
    scale * sum c D_e minus diag(shift) over its nodes, with c the line
    weights (``eval_policy``); into its ``jacobi``, the damped Jacobi weights
    of its diagonal."""
    c = np.take(policy, level.nodes, axis=1).T * level.scale
    terms = level.matrix.data.reshape(level.live.shape)  # the centre, c at x + e, x - e
    np.subtract(-2.0 * functools.reduce(np.add, c.T, 0.0), level.shift, out=terms[:, 0])
    terms[:, 1::2] = terms[:, 2::2] = c
    np.multiply(terms, level.live, out=terms)
    np.divide(_JACOBI_WEIGHT, terms[:, 0], out=level.jacobi)


# the V-cycle coarsens until a level has at most _COARSEST unknowns and
# smooths every finer one with _SWEEPS damped Jacobi sweeps on each side
_COARSEST = 100
_SWEEPS = 2
_JACOBI_WEIGHT = 0.8


def _coarse_shape(shape):
    """The shape of the grid of every other node, or None unless every axis
    has an even number of cells."""
    if any((n - 1) % 2 for n in shape):
        return None
    return tuple((n + 1) // 2 for n in shape)


def _inject(shape, values):
    """Every other node of every axis of flat ``values`` on a grid of
    ``shape`` (along the last axis of ``values``), as flat values on the
    coarser grid."""
    lead = values.shape[:-1]
    grid = values.reshape(lead + shape[::-1])
    return grid[(...,) + (slice(None, None, 2),) * len(shape)].reshape(lead + (-1,))


@functools.lru_cache(maxsize=8)
def _interpolation(shape, margin):
    """Multilinear interpolation from the grid of every other node onto a
    grid of ``shape`` as a CSR matrix, from and onto the nodes at least
    ``margin`` layers inside each grid: coarse nodes are copied, and each
    node between two of them along an axis gets their mean (a coarse node
    outside the margin counts as 0).  The Kronecker product of the 1D
    interpolations, the first axis varying fastest, so rows and columns are
    in flat node order; cached, so callers share it and must not modify
    it."""
    from scipy import sparse

    p = None
    for n in shape:
        c = (n + 1) // 2
        odd = np.arange(1, n, 2)
        rows = np.concatenate([np.arange(0, n, 2), odd, odd])
        cols = np.concatenate([np.arange(c), np.arange(c - 1), np.arange(1, c)])
        vals = np.concatenate([np.ones(c), np.full(2 * (c - 1), 0.5)])
        p1 = sparse.csr_matrix((vals, (rows, cols)), shape=(n, c))[margin:n - margin,
                                                                   margin:c - margin]
        p = p1 if p is None else sparse.kron(p1, p, format="csr")
    return p


class _Level:
    """One grid's frozen-policy system: sum c D_e / h^2 minus diag(``shift``)
    over the interior ``nodes``, in ``_layout``'s structure (its matrix,
    filled by ``_fill``), with its damped Jacobi weights, its free nodes ``f``
    (1 on a free node, 0 on a pinned one, refreshed in place) and its product
    masked by them.  A level below the top of its ladder also holds the
    products ``p`` of the interpolation P from it onto the level above and
    ``pt`` of P^T, and its ``seat``: the index, among that level's nodes, of
    the node each of its nodes sits on.  On the last level of a ladder,
    ``solve`` applies the inverse of its matrix over the free nodes."""

    def __init__(self, op, grid, nodes, shift):
        self.shape, self.nodes, self.scale, self.shift = grid.shape, nodes, 1.0 / grid.h**2, shift
        self.matrix, self.live = _layout(policy_lines(op, grid)[0], nodes, grid.node_count)
        self.jacobi, self.f = np.empty(nodes.size), np.empty(nodes.size)
        self.product = _product(self.matrix, after=self.f)
        self.p = self.pt = self.seat = self.solve = None


def _ladder(op, grid, g, start):
    """The levels of every step loop of one solve on ``grid``, one list,
    finest first, each over its grid's nodes at least the scheme's margin
    inside, with g injected as the shift and its transfers to the level
    above (``_Level``).  The grid is coarsened down to level ``start`` and
    once more, then while the last level has more than _COARSEST nodes, as
    long as every axis has an even number of cells and the coarse grid has
    nodes inside the margin; a ladder may be the finest level alone."""
    margin = operator_margin(op, grid.ndim)
    nodes = np.flatnonzero(grid.interior_mask(margin))
    level = _Level(op, grid, nodes, g[nodes])
    levels = [level]
    while ((coarse_shape := _coarse_shape(level.shape))
           and (len(levels) <= start + 1 or level.nodes.size > _COARSEST)):
        coarse = Grid(grid.domain, coarse_shape)
        nodes = np.flatnonzero(coarse.interior_mask(margin))
        if not nodes.size:
            break
        shape, g = level.shape, _inject(level.shape, g)
        below = _Level(op, coarse, nodes, g[nodes])
        p = _interpolation(shape, margin)
        below.p, below.pt = _product(p, after=level.f), _product(p.T, after=below.f)
        below.seat = np.searchsorted(level.nodes,
                                     _inject(shape, np.arange(math.prod(shape)))[nodes])
        levels.append(below)
        level = below
    return levels


def _factorize(level):
    """The SuperLU solve of ``level``'s matrix over its free nodes, with the
    identity on the pinned ones."""
    from scipy.sparse.linalg import splu

    a, f = level.matrix.copy(), level.f
    a.data *= np.repeat(f, np.diff(a.indptr)) * f[a.indices]
    a.data[a.indptr[:-1]] += 1.0 - f  # the centre leads every row
    return splu(a.tocsc()).solve


def _cycle(levels, b, k=0):
    """The V-cycle down the list ``levels`` from level ``k``, applied to
    ``b``: damped Jacobi sweeps around the coarse correction (its right-hand
    side 2^-d P^T times the residual), and the last level's ``solve``, which
    is all of it on a ladder of one level.  A module-level function: a
    closure calling itself would keep every level alive in a reference cycle
    until the garbage collector ran."""
    level = levels[k]
    if k == len(levels) - 1:
        return level.solve(b)
    a, dinv, below = level.product, level.jacobi, levels[k + 1]
    x = dinv * b
    for _ in range(_SWEEPS - 1):
        _smooth(a, dinv, b, x)
    r = below.pt(_residual(a, b, x))
    r *= 0.5 ** len(level.shape)
    x += below.p(_cycle(levels, r, k + 1))
    for _ in range(_SWEEPS):
        _smooth(a, dinv, b, x)
    return x


def _residual(a, b, x):
    """b - a(x), in the array that a(x) returns."""
    r = a(x)
    return np.subtract(b, r, out=r)


def _smooth(a, dinv, b, x):
    """One damped Jacobi sweep in place: x += dinv (b - a(x))."""
    r = _residual(a, b, x)
    r *= dinv
    x += r


class _FrozenSystem:
    """The frozen-policy systems of one grid's step loop and their V-cycle:
    level ``k`` of the ladder that ``ladder()`` returns and the levels below
    it, refilled and truncated in place as the module docstring describes.
    ``seconds`` sums the wall time of the builds (the ladder, if this loop's
    call builds it), of the refills (the policy's entries, the masks and the
    last level's factorization), of BiCGSTAB and of the projected steps."""

    def __init__(self, ladder, k):
        self.ladder, self.k = ladder, k
        self.levels = self.policy = self.free = self.precondition = None
        self.seconds = dict.fromkeys(("build_s", "refill_s", "krylov_s", "projected_s"), 0.0)

    def current(self, policy, free):
        """Whether the last solve's system is ``policy``'s on the ``free``
        nodes (a flat mask over the grid)."""
        return (self.free is not None and np.array_equal(self.free, free)
                and not (policy != self.policy)[:, free].any())

    def _lap(self, key, start):
        """Add the seconds since ``start`` to ``key``; returns the time now."""
        now = time.perf_counter()
        self.seconds[key] += now - start
        return now

    def _refill(self, policy):
        """Build the ladder on first use and refill it if ``policy`` is new; whether it was."""
        from scipy.sparse.linalg import LinearOperator

        clock = time.perf_counter()
        if self.levels is None:
            self.levels = self.ladder()[self.k:]
            top = self.levels[0]
            self.nodes, self.whole = top.nodes, _product(top.matrix)
            self.operator = LinearOperator(top.matrix.shape, matvec=top.product, dtype=float)
            self.precondition = LinearOperator(top.matrix.shape, dtype=float,
                                               matvec=functools.partial(_cycle, self.levels))
            clock = self._lap("build_s", clock)
        if new := (policy is not self.policy and not np.array_equal(policy, self.policy)):
            self.policy = policy
            for level in self.levels:
                _fill(policy, level)
                policy = _inject(level.shape, policy)
        self._lap("refill_s", clock)
        return new

    def _truncate(self, free, factorize):
        """Truncate the levels to ``free`` (a flat mask over the grid); factorize
        the last again if told to or its mask changed.  Returns the time now."""
        clock, levels = time.perf_counter(), self.levels
        if not np.array_equal(free, self.free):
            bottom = levels[-1].f.copy()
            np.copyto(levels[0].f, free[self.nodes])
            for fine, coarse in zip(levels, levels[1:]):
                np.take(fine.f, coarse.seat, out=coarse.f)
            self.free = free
            factorize = factorize or not np.array_equal(bottom, levels[-1].f)
        if factorize:
            levels[-1].solve = _factorize(levels[-1])
        return self._lap("refill_s", clock)

    def solve(self, policy, free, rhs, tol, where, r):
        """The correction over ``nodes`` that solves the system of ``policy``
        for ``rhs`` on the ``free`` nodes (a flat mask over the grid) and is 0
        on the other ones, by BiCGSTAB from 0 preconditioned by the V-cycle,
        and its BiCGSTAB iteration count; a breakdown raises SolverError
        naming ``where``, with the step's residual ``r``."""
        from scipy.sparse.linalg import bicgstab

        clock, steps = self._truncate(free, self._refill(policy)), []
        x, info = bicgstab(self.operator, rhs[self.nodes] * self.levels[0].f, rtol=_INNER_RTOL,
                           atol=_INNER_ATOL * tol, M=self.precondition,
                           callback=lambda _: steps.append(None))
        if info != 0:
            raise SolverError("linear solve of %s broke down (BiCGSTAB info %d);"
                              " residual %.3e" % (where, info, r), r)
        self._lap("krylov_s", clock)
        return x, len(steps)

    def project(self, policy, u, psi, rhs):
        """One projected multigrid step on ``u`` for ``policy``'s system, its
        residual ``rhs``: _SWEEPS damped Jacobi sweeps, the V-cycle truncated to
        the nodes above ``psi``, _SWEEPS more, each move projected onto psi."""
        factorize = self._refill(policy)
        clock, top = time.perf_counter(), self.levels[0]
        v, lo, b = u[self.nodes], psi[self.nodes], rhs[self.nodes]
        for sweep in range(2 * _SWEEPS + 1):
            if sweep == _SWEEPS:
                free = np.zeros(u.size, dtype=bool)
                free[self.nodes] = v > lo
                self._lap("projected_s", clock)
                clock = self._truncate(free, factorize)
            x = _cycle(self.levels, b * top.f) if sweep == _SWEEPS else top.jacobi * b
            new = np.maximum(v + x, lo)  # a node held at psi equals it exactly
            b -= self.whole(new - v)  # b stays the residual at v
            v[:] = new
        u[self.nodes] = v
        self._lap("projected_s", clock)


def _iterate(op, grid, psi, bv, fv, g, tol, u, seed, system, polish=True):
    """The step loop on one grid, from the iterate ``u`` (module docstring),
    solving its steps by ``system`` (a ``_FrozenSystem``).

    A ``seed`` replaces the first step's active set, and ``u`` counts as
    pinned on it; without one, ``u`` counts as pinned where it equals psi.
    Without ``polish`` the loop also returns once the active set settled
    after a solve or the projected steps, whatever the residual.  Returns (u,
    active set, excess F_h(u) - g u - f, free residual, one history row per
    step, the system's seconds).
    """
    margin = operator_margin(op, grid.ndim)
    mask = grid.interior_mask(margin)
    u[~mask] = bv[~mask]
    minimize = policy_lines(op, grid)[1]
    level = "x".join(str(n) for n in grid.shape)
    history = []

    def evaluate():  # the excess at the iterate and the attaining policy
        fh, policy = eval_policy(op, GridFunction(grid, u))
        return fh.values - g * u - fv, policy

    pinned = mask & (u == psi) if seed is None else seed
    projecting, before = margin == 1 and np.max(psi[mask]) > -math.inf, None
    for step in range(MAX_STEPS + 1):
        e, policy = evaluate()
        # a node below the obstacle is pinned whatever its multiplier says
        active = mask & (u - psi < np.maximum(-e, 0.0))
        settled = np.array_equal(active, pinned)
        if seed is not None:  # the seed, or the set the projected steps ended on
            active, seed = seed, None
        free = mask & ~active
        r = float(np.max(np.abs(e[free]))) if free.any() else 0.0
        if minimize and history and not history[-1][3] and not settled:  # nested policy iteration
            held = mask & ~pinned
            r_held = float(np.max(np.abs(e[held]))) if held.any() else 0.0
            if r_held > tol and not system.current(policy, held):
                active, free, r = pinned, held, r_held
        if settled and r <= tol or not polish and history and not projecting and (
                settled or history[-1][3]):  # after a solve or the projected steps
            return u, active, e, r, tuple(history), system.seconds
        if step == MAX_STEPS:
            break
        if projecting:
            system.project(policy, u, psi, -e)
            now = mask & (u == psi)
            if np.array_equal(now, pinned) or np.array_equal(now, before):  # or flipped back
                projecting, seed = False, now  # the BiCGSTAB steps or the next rung start here
            before, pinned = pinned, now
            history.append((r, int(np.count_nonzero(now)), 0, True))
            continue
        pinned = active
        moved = active & (u != psi)
        if moved.any():
            u[moved] = psi[moved]
            e, policy = evaluate()
        krylov = 0
        if free.any():
            x, krylov = system.solve(policy, free, -e, tol,
                                     "step %d on the %s grid" % (step, level), r)
            u[system.nodes] += x  # 0 on pinned nodes
        history.append((r, int(np.count_nonzero(active)), krylov, False))
    raise SolverError(
        "policy iteration on the %s grid failed to converge: residual %.3e"
        " after %d steps (tolerance %.3e)" % (level, r, MAX_STEPS, tol), r
    )


# the coarse-to-fine start stops coarsening before a level drops below this
# many nodes on an axis (the CLI's smallest --res)
MIN_LEVEL_NODES = 17


def _solve(op, grid, psi, bv, fv, g, tol, initial):
    """The one solve behind ``solve_dirichlet`` and ``solve_obstacle``, on
    flat node arrays: it checks the inputs, fixes the tolerance, climbs the
    rungs of one ladder and derives the manufactured bounds.

    Without an ``initial`` GridFunction the step loop starts coarse to fine
    (module docstring), on rungs that also keep some interior; with one, it
    runs on ``grid`` alone from that iterate.  Each rung's loop takes the
    ladder's levels from its own down as its V-cycle, and the first step
    that solves builds the ladder.  A coarse rung only seeds the next, so it
    runs without ``polish``.
    """
    margin = operator_margin(op, grid.ndim)
    mask = grid.interior_mask(margin)
    if not mask.any():
        raise ValueError("grid has no interior nodes at this stencil margin")
    if _coarse_shape(grid.shape) is None:
        raise ValueError("the %s grid has an odd number of cells on an axis, so the"
                         " multigrid ladder cannot coarsen it: give every axis an odd"
                         " number of nodes" % "x".join(str(n) for n in grid.shape))
    if initial is not None and initial.grid != grid:
        raise ValueError("initial guess lives on a different grid")
    if np.min((bv - psi)[~mask]) < -1e-12:
        raise ValueError("boundary data must dominate the obstacle on the boundary band")
    if tol is None:
        tol = 1e-9 * (1.0 + float(np.max(np.abs(fv[mask]))))
    elif not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")

    rungs = [(grid, psi, bv, fv, g)]
    while (initial is None and (shape := _coarse_shape(rungs[-1][0].shape))
           and min(shape) >= MIN_LEVEL_NODES):
        fine = rungs[-1]
        rung = (Grid(grid.domain, shape),) + tuple(_inject(fine[0].shape, a) for a in fine[1:])
        band = ~rung[0].interior_mask(margin)
        if band.all() or not np.min((rung[2] - rung[1])[band]) >= -1e-12:
            break
        rungs.append(rung)
    ladder = functools.cache(functools.partial(_ladder, op, grid, g, len(rungs) - 1))
    u = np.maximum(rungs[-1][2], rungs[-1][1]) if initial is None else initial.values.copy()
    contact, level_steps, history, timings = None, (), (), ()
    for k in range(len(rungs) - 1, -1, -1):
        rung, seed = rungs[k], None
        if contact is not None:
            interpolate = _interpolation(rung[0].shape, 0)
            u = interpolate @ u
            # the weights of a row are exact binary fractions summing to 1
            seed = interpolate @ contact.astype(float) == 1.0
            u[seed] = rung[1][seed]
        u, contact, e, r, rows, seconds = _iterate(op, *rung, tol, u, seed,
                                                   _FrozenSystem(ladder, k), polish=not k)
        level_steps += ((rung[0].shape[0], len(rows)),)
        history += rows
        timings += ((rung[0].shape[0], seconds),)

    # the upper bound from complementarity, the lower one from monotonicity
    # on the contact set; never report bounds the realized field violates
    rhs = fv + g * u
    fh = e + rhs  # the realized field F_h(u) at the returned iterate
    sup = float(np.max(np.abs(rhs[mask])))
    slack = tol * (1.0 + sup)
    lo = min(float(np.min(rhs[mask])), float(np.min(fh[mask])))
    if contact.any():
        lo = min(lo, float(np.min(eval_discrete(op, GridFunction(grid, psi)).values[contact])))
    hi = max(sup, float(np.max(fh[mask])))
    frac = float(np.count_nonzero(contact)) / float(np.count_nonzero(mask))
    return SolveResult(GridFunction(grid, u), contact, frac, lo - slack, hi + slack,
                       len(history), r, level_steps, history, timings)


def solve_dirichlet(op: EllipticOperator, f, boundary,
                    tol: float | None = None,
                    grid: Grid | None = None,
                    initial: GridFunction | None = None) -> SolveResult:
    """Solve F_h(u) = f on the interior by policy iteration; the whole margin
    band is pinned to the boundary data (as deep as the stencils reach).

    f and boundary may be numbers or GridFunctions; without ``grid``, one of
    them or ``initial`` must be a GridFunction.  The iteration starts from
    ``initial`` (default: the boundary field) on ``grid`` alone, and an exact
    start returns after 0 steps.  It stops once the sup-norm residual is at
    most ``tol`` (default 1e-9 * (1 + sup|f|)).  This is the obstacle solve
    with no obstacle (psi = -inf, g = 0), so the result's contact set is
    empty and its [lam_lo, lam_hi] bracket f and the realized F_h(u).
    """
    grid = grid or _pick_grid(f, boundary, initial)
    bv = _node_field(grid, boundary, "boundary")
    n = grid.node_count
    return _solve(op, grid, np.full(n, -np.inf), bv, _node_field(grid, f, "f"), np.zeros(n),
                  tol, GridFunction(grid, bv) if initial is None else initial)


@dataclass(frozen=True, eq=False)
class ObstacleProblem:
    """Constrained problem u >= psi for F_h(u) = f + u * g_weight.

    g_weight may be a scalar or a GridFunction and must be nonnegative (g >= 0
    keeps every frozen policy an M-matrix).  Boundary data must dominate the
    obstacle on the boundary band, which the solve checks.
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


def solve_obstacle(problem: ObstacleProblem,
                   tol: float | None = None,
                   initial: GridFunction | None = None) -> SolveResult:
    """Primal-dual active-set solve of min(u - psi, f + g u - F_h(u)) = 0.

    Every interior node either satisfies the equation (off contact, within
    the tolerance) or is pinned to the obstacle, u == psi exactly, with
    F_h(u) <= f + g u there.  The returned [lam_lo, lam_hi] are manufactured
    bounds the realized field F_h(u) provably satisfies on the interior:
    the upper one from complementarity (F_h(u) <= f + g u + tol), the lower
    one from monotonicity on the contact set, both cross-checked against the
    realized field before being reported.

    The residual tolerance ``tol`` defaults to 1e-9 * (1 + sup|f|).  Without
    ``initial`` the solve starts coarse to fine (module docstring); with it,
    a single level runs from that iterate.
    """
    grid = problem.psi.grid
    return _solve(problem.op, grid, problem.psi.values,
                  _node_field(grid, problem.boundary, "boundary"),
                  _node_field(grid, problem.f, "f"), problem.g_values, tol, initial)
