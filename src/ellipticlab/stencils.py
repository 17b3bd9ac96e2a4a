"""The monotone finite-difference scheme F_h, defined once.

F_h is built from directional second differences in node units,

    D_e u(x) = u(x + e h) - 2 u(x) + u(x - e h),

as   F_h u(x) = pick_A  sum_{(e, c) in S(A)}  c D_e u(x) / h^2,

where pick is the max (the min for pucci_min) over a few candidate matrices
A and S(A) is Selling's decomposition A = sum c e e^T, with coefficients
c > 0 and integer lattice vectors e (Fehrenbach & Mirebeau, JMIV 49, 2014).
Each candidate is exact on quadratics and has nonnegative off-centre
weights, so F_h is monotone (Barles & Souganidis, Asymptotic Anal. 4, 1991).

- Trace, linear and max-of-linear operators: one candidate per matrix.
- Pucci operators: M+(X) = sup tr(A X) over lam1 <= A <= lam2 is attained
  at lam2 I, at lam1 I or at A_t = lam2 e_t e_t^T + lam1 e_t' e_t'^T with
  e_t = (cos t, sin t) and e_t' its perpendicular; M- is the inf over the
  same set.  The candidates are lam2 I, lam1 I and A_t for t = k pi / K,
  k < K = _PUCCI_FRAMES.  On a quadratic whose Hessian has eigenvalues
  mu1 >= mu2, F_h is exact when its top eigenvector is at a frame angle and
  otherwise misses F by (lam2 - lam1)(mu1 - mu2) sin^2(delta), below M+ and
  above M-, where delta <= pi / 2K is the angle to the nearest frame.
- 1D grids: the candidates [lam2] and [lam1] for Pucci, a[0, 0] otherwise,
  with the single direction e = (1,).

A direction e is an integer n-tuple in coordinate order; it moves a node's
flat index by the shift ``sum_a e_a * Grid.strides[a]``, so no code here
knows the storage layout.  ``eval_discrete`` evaluates F_h; ``eval_policy``
also returns, per node, the index of the candidate attaining the pick, and
``frozen_stencils`` lists the candidates as linear stencils of flat shifts
for the solvers' sparse assembly.  The scheme reaches ``operator_margin``
node layers, where F_h is undefined (NaN).  Both walk the interior in strips
of whole slabs of the slowest axis (rows in 2D) through a few strip-sized
buffers, about ``_STRIP`` nodes between them, that stay in cache, rather
than making whole-grid temporaries per term.  Every node gets the same
operations in the same order as in a whole-grid evaluation, so the values
and the policy do not depend on the strip size, bit for bit.

``discrete_hessian`` is not the scheme: it estimates D^2 u by central
differences for the viscosity checks and the Hessian L^p norms.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction
from .operators import EllipticOperator

__all__ = [
    "HessianField",
    "StencilReachError",
    "discrete_hessian",
    "eval_discrete",
    "eval_policy",
    "frozen_stencils",
    "operator_margin",
]


class StencilReachError(ValueError):
    """The grid is too small for the scheme's stencils: a precondition on the
    operator/grid pair, not a failed certificate."""


_PUCCI_FRAMES = 16  # frame angles k pi / K, k < K, of Pucci's 2D candidates


@dataclass(frozen=True, eq=False)
class HessianField:
    """Central-difference Hessian entries on interior nodes (NaN on the ring)."""

    grid: Grid
    comps: dict  # (i, j), i <= j -> lattice array


def discrete_hessian(u: GridFunction) -> HessianField:
    """Second differences (u(x+he_i) - 2u(x) + u(x-he_i))/h^2 and the mixed
    four-point cross differences (u(x+he_i+he_j) - u(x-he_i+he_j)
    - u(x+he_i-he_j) + u(x-he_i-he_j))/(4h^2) on the interior block, in any
    dimension; exact on quadratics."""
    grid = u.grid
    lat = u.lattice()
    inner = (slice(1, -1),) * grid.ndim

    def at(*steps):
        """u on the interior block, moved one node along axis a by the sign s
        of each (a, s); coordinate axis a is lattice axis ndim-1-a."""
        block = list(inner)
        for a, sign in steps:
            block[grid.ndim - 1 - a] = slice(2, None) if sign > 0 else slice(None, -2)
        return lat[tuple(block)]

    comps = {}
    for i in range(grid.ndim):
        for j in range(i, grid.ndim):
            comp = np.full_like(lat, np.nan)
            if i == j:
                comp[inner] = (at((i, 1)) - 2.0 * at() + at((i, -1))) / grid.h**2
            else:
                comp[inner] = (at((i, 1), (j, 1)) - at((i, -1), (j, 1))
                               - at((i, 1), (j, -1)) + at((i, -1), (j, -1))) / (4.0 * grid.h**2)
            comps[(i, j)] = comp
    return HessianField(grid, comps)


# -- building the scheme ---------------------------------------------------------


def _selling(a):
    """Selling's decomposition of a 2x2 SPD matrix: [(rho, e)] with rho > 0
    and integer vectors e such that a = sum rho e e^T.

    Starts from the superbase (1,0), (0,1), (-1,-1) and flips it until it is
    obtuse, <b_i, a b_j> <= 0 for i != j; then rho_i = -<b_j, a b_k> with
    e_i the perpendicular of b_i."""
    b = [np.array(v) for v in ((1, 0), (0, 1), (-1, -1))]
    triples = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    for _ in range(100):
        flip = next(((i, j, k) for i, j, k in triples if b[i] @ a @ b[j] > 0.0), None)
        if flip is None:
            break
        i, j, k = flip
        b[i], b[k] = -b[i], b[i] - b[j]
    else:
        raise ValueError("Selling's algorithm did not reach an obtuse superbase")
    out = []
    for j, k, i in triples:
        rho = -float(b[j] @ a @ b[k])
        if rho > 0.0:
            out.append((rho, (-int(b[i][1]), int(b[i][0]))))
    return out


def _candidate_matrices(op: EllipticOperator, ndim: int):
    """The matrices A whose tr(A X) F takes the max (min) of: the operator's
    own, or the extreme points of Pucci's lam1 <= A <= lam2 up to the frame
    angles (exactly all of them in 1D)."""
    if op.kind in ("pucci_max", "pucci_min"):
        lam1, lam2 = op.params.lam1, op.params.lam2
        mats = [lam2 * np.eye(ndim), lam1 * np.eye(ndim)]
        if ndim == 2:
            for k in range(_PUCCI_FRAMES):
                # cos t as sin(pi/2 - t), so the frame at t = pi/2 is exactly
                # the lattice's and its matrix has no roundoff off the diagonal
                c = math.sin((_PUCCI_FRAMES / 2 - k) * math.pi / _PUCCI_FRAMES)
                s = math.sin(k * math.pi / _PUCCI_FRAMES)
                e, p = np.array([c, s]), np.array([-s, c])
                mats.append(lam2 * np.outer(e, e) + lam1 * np.outer(p, p))
        return mats
    if op.kind == "trace":
        return [np.eye(ndim)]
    if op.kind in ("linear", "max_of_linear"):
        if op.mats[0].shape[0] != ndim:
            raise ValueError("operator dimension mismatch")
        return list(op.mats)
    raise ValueError(f"unknown operator kind {op.kind!r}")


@dataclass(frozen=True, eq=False)
class _Scheme:
    """F_h of one operator: the pick over ``rows`` of sum c D_e u / h^2.

    A direction is an integer n-tuple e in coordinate order, (1,) in 1D; it
    stands for its whole lattice line, since D_e = D_-e, and the margin is
    the largest |e_a| over the directions."""

    directions: tuple  # integer n-tuples e, one per lattice line
    rows: tuple  # per candidate matrix ((index into directions, c > 0), ...)
    minimize: bool  # pick is the min (pucci_min) rather than the max
    margin: int  # node layers the stencils reach


# built schemes per operator object (operators hash by identity) and ndim
_SCHEMES = weakref.WeakKeyDictionary()


def _scheme(op: EllipticOperator, ndim: int) -> _Scheme:
    cached = _SCHEMES.setdefault(op, {})
    if ndim not in cached:
        cached[ndim] = _build_scheme(op, ndim)
    return cached[ndim]


def _build_scheme(op: EllipticOperator, ndim: int) -> _Scheme:
    if ndim not in (1, 2):
        raise NotImplementedError("the scheme is implemented for 1D and 2D grids")
    # D_e = D_-e: one buffer per lattice line, oriented as first met, so the
    # schemes that never meet both orientations keep their order of additions
    lines, rows = {}, []
    for a in _candidate_matrices(op, ndim):
        parts = _selling(a) if ndim == 2 else [(float(a[0, 0]), (1,))]
        rows.append(tuple((lines.setdefault(max(e, tuple(-x for x in e)), (len(lines), e))[0], rho)
                          for rho, e in parts))
    directions = tuple(e for _, e in lines.values())
    margin = max(abs(x) for e in directions for x in e)
    return _Scheme(directions, tuple(rows), op.kind == "pucci_min", margin)


def _shifts(scheme: _Scheme, grid: Grid) -> list:
    """Each direction's flat-index shift ``e @ Grid.strides``."""
    return [sum(e_a * stride for e_a, stride in zip(e, grid.strides))
            for e in scheme.directions]


def operator_margin(op: EllipticOperator, ndim: int) -> int:
    """Node layers next to the boundary on which the scheme is undefined."""
    return _scheme(op, ndim).margin


# -- evaluating it -----------------------------------------------------------------

# nodes in all of a strip's float buffers together in _envelope: 1 MB, so
# they stay in a core's L2 cache (2 MB on the Xeon it was tuned on) while
# every term of the scheme streams through them; smaller strips cost more in
# per-call overhead than they save
_STRIP = 1 << 17


def _envelope(op, u, track):
    """F_h(u) as a flat node array (NaN on the margin band) and, if ``track``
    and the scheme has more than one candidate, the index of the candidate
    attaining it at every node (0 on the band); otherwise None.

    The interior is walked in strips of whole slabs of the slowest axis
    (rows in 2D, the whole line in 1D), so that the strip's buffers hold
    about ``_STRIP`` nodes between them.  A strip is one contiguous run of
    the flat lattice, from the first interior node of its first slab to the
    last interior node of its last slab, so a term is the lattice shifted by
    ``e @ Grid.strides`` and every operation runs on contiguous memory.  The
    run's nodes on the margin band of the other axes get stencils that wrap
    into the neighbouring line; they are blanked at the end.  Per strip,
    every D_e u goes into a buffer of its own (centre first, then x + e,
    then x - e); each candidate then sums c D_e u in its row's order, in
    place of the best value for the first candidate and in ``acc`` for the
    others, with ``tmp`` holding c D_e u for a coefficient other than 1
    after the first.  Each node sees the same operations in the same order
    whatever the strip, so the values and the policy are those of a
    whole-grid evaluation, bit for bit."""
    grid = u.grid
    scheme = _scheme(op, grid.ndim)
    m = scheme.margin
    if any(2 * m >= n for n in grid.shape):
        raise StencilReachError("stencil exits domain: grid too small for its reach %d" % m)
    *faster, slabs = grid.shape
    *steps, slab = grid.strides
    edge = m * sum(steps)  # from a slab's first node to its first interior one
    several = len(scheme.rows) > 1
    track = track and several
    scaled = any(c != 1.0 for row in scheme.rows for _, c in row[1:])
    better = np.less if scheme.minimize else np.greater
    pick = np.minimum if scheme.minimize else np.maximum
    floats = len(scheme.directions) + scaled + several  # strip buffers sharing _STRIP
    inner = math.prod(n - 2 * m for n in faster)  # interior nodes per slab
    depth = min(max(1, _STRIP // (floats * inner)), slabs - 2 * m)  # slabs per strip
    size = depth * slab - 2 * edge
    diffs = np.empty((len(scheme.directions), size))
    buffers = (np.empty(size) if scaled else None, np.empty(size) if several else None,
               np.empty(size, bool) if track else None,
               np.empty(size, np.int32) if track else None)
    shifts = _shifts(scheme, grid)
    nodes = u.values
    out = np.full(nodes.size, np.nan)
    policy = np.zeros(nodes.size, dtype=np.int32) if track else None
    h2 = grid.h**2
    for top in range(m, slabs - m, depth):
        start, stop = top * slab + edge, min(top + depth, slabs - m) * slab - edge
        d = diffs[:, : stop - start]
        tmp, acc, mask, step = (None if b is None else b[: stop - start] for b in buffers)
        for dk, s in zip(d, shifts):
            np.multiply(nodes[start:stop], -2.0, out=dk)
            dk += nodes[start + s : stop + s]
            dk += nodes[start - s : stop - s]
        best = out[start:stop]
        held = None if policy is None else policy[start:stop]
        for j, row in enumerate(scheme.rows):
            target = acc if j else best
            (k, c), *rest = row
            np.multiply(d[k], c, out=target)
            for k, c in rest:
                target += d[k] if c == 1.0 else np.multiply(d[k], c, out=tmp)
            if j:
                if track:  # where better(target, best), the policy becomes j
                    np.subtract(j, held, out=step)
                    held += np.multiply(step, better(target, best, out=mask), out=step)
                pick(best, target, out=best)
        best /= h2
    # no strip starts on the slowest axis's band; the other axes' bands got
    # wrapped stencils
    for flat, fill in ((out, np.nan), (policy, 0))[: 1 + track]:
        band = grid.lattice(flat)
        for ax in range(1, grid.ndim):
            lead = (slice(None),) * ax
            band[lead + (slice(0, m),)] = band[lead + (slice(band.shape[ax] - m, None),)] = fill
    return out, policy


def eval_discrete(op: EllipticOperator, u: GridFunction) -> GridFunction:
    """Apply the discrete operator; nodes on the margin band are NaN sentinels."""
    vals, _ = _envelope(op, u, False)
    return GridFunction(u.grid, vals, allow_non_finite=True)


def eval_policy(op: EllipticOperator, u: GridFunction):
    """``eval_discrete`` plus, per node, the index into ``frozen_stencils`` of
    the linear stencil attaining F_h(u) there (None if there is only one)."""
    vals, policy = _envelope(op, u, True)
    return GridFunction(u.grid, vals, allow_non_finite=True), policy


def frozen_stencils(op: EllipticOperator, grid: Grid):
    """Every linear stencil a policy can freeze, one per candidate, as flat
    node offsets (int32) and weights of shape (stencils, terms), centre
    first, padded with zero weights.  Applied at a node, stencil
    ``eval_policy`` picked there gives F_h(u) at that node."""
    scheme = _scheme(op, grid.ndim)
    shifts, scale = _shifts(scheme, grid), 1.0 / grid.h**2
    stencils = []
    for row in scheme.rows:
        acc = {0: 0.0}
        for k, c in row:
            for offset, w in ((0, -2.0), (shifts[k], 1.0), (-shifts[k], 1.0)):
                acc[offset] = acc.get(offset, 0.0) + c * w * scale
        stencils.append(acc)
    width = max(len(s) for s in stencils)
    offsets = np.zeros((len(stencils), width), dtype=np.int32)
    weights = np.zeros((len(stencils), width))
    for i, s in enumerate(stencils):
        offsets[i, : len(s)] = list(s)
        weights[i, : len(s)] = list(s.values())
    return offsets, weights
