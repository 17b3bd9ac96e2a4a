"""The monotone finite-difference scheme F_h, defined once.

F_h is built from directional second differences in node units,

    D_e u(x) = u(x + e h) - 2 u(x) + u(x - e h),

as   F_h u(x) = pick_A  sum_{(e, c) in S(A)}  c D_e u(x) / h^2,

where pick is the max (the min for pucci_min) over a set of matrices A and
S(A) is Selling's decomposition A = sum c e e^T, with coefficients c > 0
and integer lattice vectors e (Fehrenbach & Mirebeau, JMIV 49, 2014).  Each
A gives a stencil exact on quadratics with nonnegative off-centre weights,
so F_h is monotone (Barles & Souganidis, Asymptotic Anal. 4, 1991).

- Trace, linear and max-of-linear operators: the operator's own matrices.
- Pucci operators: M+(X) = sup tr(A X) over lam1 <= A <= lam2 is attained
  at lam2 I, at lam1 I or on the rim A_t = m I + d R(t), with m, d the mean
  and half-difference of lam1, lam2 and R(t) = [[cos t, sin t], [sin t,
  -cos t]]; M- is the inf.  On each arc of the rim with one Selling
  superbase the weights are alpha + beta cos t + gamma sin t, and the pick
  over the arc is in closed form (``_Arc``; Bonnans, Ottenwaelter & Zidani,
  M2AN 38, 2004), so F_h is exact on every quadratic.  For lam2 / lam1 <
  3 + 2 sqrt 2 the arcs are t in [0, pi] on the lines (1,0), (0,1), (1,1)
  and t in [pi, 2 pi] on (1,0), (0,1), (1,-1).
- 1D grids: [lam2] and [lam1] for Pucci, a[0, 0] otherwise, on e = (1,).

A direction e is an integer n-tuple in coordinate order; it moves a node's
flat index by the shift ``sum_a e_a * Grid.strides[a]``, so no code here
knows the storage layout.  ``eval_discrete`` evaluates F_h; ``eval_policy``
also returns the policy, the attaining matrix's weights per line and node,
on the lines ``policy_lines`` gives.  The scheme reaches ``operator_margin``
node layers, where F_h is undefined (NaN).  Both walk the interior in
strips of whole slabs of the slowest axis (rows in 2D) through a few
strip-sized buffers, about ``_STRIP`` nodes between them, that stay in
cache, rather than making whole-grid temporaries per term; the values and
the policy do not depend on the strip size, bit for bit.

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
    "StencilReachError",
    "discrete_hessian",
    "eval_discrete",
    "eval_policy",
    "operator_margin",
    "policy_lines",
]


class StencilReachError(ValueError):
    """The grid is too small for the scheme's stencils: a precondition on the
    operator/grid pair, not a failed certificate."""


def discrete_hessian(u: GridFunction) -> dict:
    """(i, j), i <= j -> the lattice array of Hessian entry ij, NaN on the
    ring: second differences (u(x+he_i) - 2u(x) + u(x-he_i))/h^2 and the mixed
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
    return comps


# -- building the scheme ---------------------------------------------------------

# (j, k, i): the pair b_j, b_k of a superbase weighs the line perpendicular to b_i
_TRIPLES = ((0, 1, 2), (0, 2, 1), (1, 2, 0))


def _selling(a):
    """Selling's decomposition of a 2x2 SPD matrix: [(rho, e)] with rho > 0
    and integer vectors e such that a = sum rho e e^T.

    Starts from the superbase (1,0), (0,1), (-1,-1) and flips it until it is
    obtuse, <b_j, a b_k> <= 0 for j != k; then rho_i = -<b_j, a b_k> with
    e_i the perpendicular of b_i."""
    b = [np.array(v) for v in ((1, 0), (0, 1), (-1, -1))]
    for _ in range(100):
        flip = next(((j, k, i) for j, k, i in _TRIPLES if b[j] @ a @ b[k] > 0.0), None)
        if flip is None:
            break
        j, k, i = flip
        b[j], b[i] = -b[j], b[j] - b[k]
    else:
        raise ValueError("Selling's algorithm did not reach an obtuse superbase")
    out = []
    for j, k, i in _TRIPLES:
        rho = -float(b[j] @ a @ b[k])
        if rho > 0.0:
            out.append((rho, (-int(b[i][1]), int(b[i][0]))))
    return out


# arcs shorter than this (radians) are left out of the rim, and a root of
# a weight within it of the walk's angle counts as reached
_TIGHT = 1e-12


def _unit(angle):
    """(cos, sin) of an angle to 15 decimals: pi / 2 gives (0, 1), not (6e-17, 1)."""
    return round(math.cos(angle), 15), round(math.sin(angle), 15)


def _rim_arcs(lam1, lam2):
    """Pucci's rim A_t, 0 <= t <= 2 pi (module docstring), as the arcs [(t0,
    t1, ((e, (alpha, beta, gamma)), ...))] on which Selling's superbase is
    fixed and line e weighs alpha + beta cos t + gamma sin t >= 0; none if
    lam1 = lam2.  From t = 0, where (1,0), (0,1), (-1,-1) is obtuse, the walk
    ends an arc where a weight -<b_j, A_t b_k> = alpha + r cos(t - phi)
    first falls through zero, at phi + acos(-alpha / r), and flips its pair."""
    m, d = (lam2 + lam1) / 2.0, (lam2 - lam1) / 2.0
    if d == 0.0:
        return []
    parts = m * np.eye(2), d * np.diag([1.0, -1.0]), d * np.array([[0.0, 1.0], [1.0, 0.0]])
    b = [np.array(v) for v in ((1, 0), (0, 1), (-1, -1))]
    arcs, t = [], 0.0
    for _ in range(1000):
        if t >= math.tau:
            return arcs
        weights, ends = [], []
        for j, k, i in _TRIPLES:
            alpha, beta, gamma = (-float(b[j] @ a @ b[k]) for a in parts)
            weights.append(((-int(b[i][1]), int(b[i][0])), (alpha, beta, gamma)))
            r = math.hypot(beta, gamma)  # the weight never falls below alpha - r
            ends.append(math.inf if alpha >= r else t - _TIGHT + (
                math.atan2(gamma, beta) + math.acos(min(1.0, -alpha / r)) - t + _TIGHT) % math.tau)
        n = min(range(3), key=ends.__getitem__)
        end = math.tau if ends[n] > math.tau - _TIGHT else max(t, ends[n])
        if end - t > _TIGHT:
            arcs.append((t, end, tuple(weights)))
        j, k, i = _TRIPLES[n]
        b[j], b[i] = -b[j], b[j] - b[k]
        t = end
    raise ValueError("the rim walk did not close")


@dataclass(frozen=True, eq=False)
class _Arc:
    """An arc t = tm + s, |s| <= w, of the rim, on which the stencil S0 + P
    cos t + Q sin t is Sm + A (cos s - 1) + B sin s, with A = P cos tm + Q
    sin tm, B = Q cos tm - P sin tm and Sm = S0 + A, the stencil of A_tm,
    whose weights are nonnegative: unlike S0, it does not cancel against A."""

    terms: tuple  # Sm, A and B as ((index into directions, coefficient), ...)
    # without zeros; A and B change sign for the min, so the gain is a max
    half: tuple  # (cos w, sin w)


@dataclass(frozen=True, eq=False)
class _Scheme:
    """F_h of one operator: the pick over ``rows`` and ``arcs`` of sum c D_e u
    / h^2.

    A direction is an integer n-tuple e in coordinate order, (1,) in 1D; it
    stands for its whole lattice line, since D_e = D_-e, and the margin is
    the largest |e_a| over the directions."""

    directions: tuple  # integer n-tuples e, one per lattice line
    rows: tuple  # per fixed matrix ((index into directions, c > 0), ...)
    arcs: tuple  # _Arc per arc of Pucci's rim, in 2D
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
        raise ValueError("the scheme is implemented for 1D and 2D grids")
    # D_e = D_-e: one buffer per lattice line, oriented as first met, so the
    # schemes that never meet both orientations keep their order of additions
    lines, arcs, pucci = {}, [], op.kind in ("pucci_max", "pucci_min")

    def line(e):
        return lines.setdefault(max(e, tuple(-x for x in e)), (len(lines), e))[0]

    if pucci:  # the rest of Pucci's matrices are the rim's
        mats = [op.params.lam2 * np.eye(ndim), op.params.lam1 * np.eye(ndim)]
    elif op.kind in ("trace", "linear", "max_of_linear"):
        mats = list(op.mats) or [np.eye(ndim)]  # the trace's is I
        if mats[0].shape[0] != ndim:
            raise ValueError("operator dimension mismatch")
    else:
        raise ValueError(f"unknown operator kind {op.kind!r}")
    rows = tuple(tuple((line(e), rho) for rho, e in
                       (_selling(a) if ndim == 2 else [(float(a[0, 0]), (1,))])) for a in mats)
    if pucci and ndim == 2:
        sign = -1.0 if op.kind == "pucci_min" else 1.0
        for t0, t1, weights in _rim_arcs(op.params.lam1, op.params.lam2):
            cm, sm = _unit((t0 + t1) / 2.0)
            terms = tuple(tuple((line(e), c) for e, c in sums if c != 0.0) for sums in (
                [(e, alpha + beta * cm + gamma * sm) for e, (alpha, beta, gamma) in weights],
                [(e, sign * (beta * cm + gamma * sm)) for e, (alpha, beta, gamma) in weights],
                [(e, sign * (gamma * cm - beta * sm)) for e, (alpha, beta, gamma) in weights]))
            arcs.append(_Arc(terms, _unit((t1 - t0) / 2.0)))
    directions = tuple(e for _, e in lines.values())
    margin = max(abs(x) for e in directions for x in e)
    return _Scheme(directions, rows, tuple(arcs), op.kind == "pucci_min", margin)


def _shifts(scheme: _Scheme, grid: Grid) -> list:
    """Each direction's flat-index shift ``e @ Grid.strides``."""
    return [sum(e_a * stride for e_a, stride in zip(e, grid.strides))
            for e in scheme.directions]


def operator_margin(op: EllipticOperator, ndim: int) -> int:
    """Node layers next to the boundary on which the scheme is undefined."""
    return _scheme(op, ndim).margin


def policy_lines(op: EllipticOperator, grid: Grid):
    """The flat shift of each line of ``eval_policy``'s rows, and whether F_h
    is the min over its policies (pucci_min) rather than the max."""
    scheme = _scheme(op, grid.ndim)
    return _shifts(scheme, grid), scheme.minimize


# -- evaluating it -----------------------------------------------------------------

# nodes in all of a strip's float buffers together in _envelope: 1 MB, so
# they stay in a core's L2 cache (2 MB on the Xeon it was tuned on) while
# every term of the scheme streams through them; smaller strips cost more in
# per-call overhead than they save
_STRIP = 1 << 17


def _combine(target, d, terms, tmp):
    """target = sum c D_k u over ``terms`` in their order, with ``tmp``
    holding c D_k u for a coefficient other than 1 after the first term."""
    (k, c), *rest = terms
    np.multiply(d[k], c, out=target)
    for k, c in rest:
        target += d[k] if c == 1.0 else np.multiply(d[k], c, out=tmp)


# keeps _arc_gain's quotient 0, not 0 / 0, where A = B = 0
_TINY = np.finfo(float).tiny


def _arc_gain(arc, a, b, hyp, x, tmp):
    """Into b, the max of A (cos s - 1) + B sin s over |s| <= w (``_Arc``),
    given A, B, B^2 and hypot(A, B) in a, b, tmp and hyp: hyp - A = B^2 /
    (hyp + A) if A >= hyp cos w (the argmax atan2(B, A) is on the arc), else
    the better endpoint's A (cos w - 1) + |B| sin w.  Branch-free, as the
    max of the latter and min(B^2 / max(hyp + A, hyp (1 + cos w) + tiny), hyp
    (1 - cos w)), which off the arc is at most the endpoint's, as hyp - (A
    cos w + |B| sin w) <= hyp cos w - A there.  a, x and tmp are scratch."""
    cw, sw = arc.half
    np.multiply(a, cw - 1.0, out=x)
    np.abs(b, out=b)
    b *= sw
    b += x
    np.multiply(hyp, 1.0 + cw, out=x)
    x += _TINY
    a += hyp
    np.maximum(a, x, out=x)
    tmp /= x
    np.multiply(hyp, 1.0 - cw, out=x)
    np.minimum(tmp, x, out=tmp)
    np.maximum(b, tmp, out=b)


def _arc_argmax(arc, a, b, hyp):
    """(cos s, sin s) at ``_arc_gain``'s max: (A, B) / hyp on the arc (s = 0
    if A = B = 0), else the endpoint s = +-w on B's side."""
    cw, sw = arc.half
    inside = a >= hyp * cw
    cs, sn = np.where(inside, 1.0, cw), np.where(inside, 0.0, np.copysign(sw, b))
    on = inside & (hyp > 0.0)
    np.divide(a, hyp, out=cs, where=on)
    np.divide(b, hyp, out=sn, where=on)
    return cs, sn


def _envelope(op, u, track):
    """F_h(u) as a flat node array (NaN on the margin band) and, if
    ``track``, the policy, shape (lines, nodes) (0 on the band), else None.

    The interior is walked in strips of whole slabs of the slowest axis
    (rows in 2D, the whole line in 1D) whose buffers hold about ``_STRIP``
    nodes between them.  A strip is one contiguous run of the flat lattice,
    from the first interior node of its first slab to the last of its last,
    so a term is the lattice shifted by ``e @ Grid.strides``; the run's
    nodes on the other axes' margin bands get stencils that wrap into the
    neighbouring line and are blanked at the end.  Each node sees the same
    operations in the same order whatever the strip, so the values and the
    policy are those of a whole-grid evaluation, bit for bit."""
    grid = u.grid
    scheme = _scheme(op, grid.ndim)
    m = scheme.margin
    if any(2 * m >= n for n in grid.shape):
        raise StencilReachError("stencil exits domain: grid too small for its reach %d" % m)
    *faster, slabs = grid.shape
    *steps, slab = grid.strides
    edge = m * sum(steps)  # from a slab's first node to its first interior one
    lines, arcs = len(scheme.directions), bool(scheme.arcs)
    several = len(scheme.rows) + len(scheme.arcs) > 1
    scaled = arcs or any(c != 1.0 for row in scheme.rows for _, c in row[1:])
    better = np.less if scheme.minimize else np.greater
    pick = np.minimum if scheme.minimize else np.maximum
    # strip buffers sharing _STRIP: D_e u per line, tmp, acc, and A, B,
    # hypot(A, B) and one more for the arcs
    floats = lines + scaled + several + 4 * arcs
    inner = math.prod(n - 2 * m for n in faster)  # interior nodes per slab
    depth = min(max(1, _STRIP // (floats * inner)), slabs - 2 * m)  # slabs per strip
    size = depth * slab - 2 * edge
    diffs = np.empty((lines, size))
    buffers = [np.empty(size, dtype) if wanted else None for wanted, dtype in
               ((scaled, float), (several, float)) + ((arcs, float),) * 4
               + ((track and several, bool),)]
    shifts = _shifts(scheme, grid)
    nodes = u.values
    out = np.full(nodes.size, np.nan)
    policy = np.zeros((lines, nodes.size)) if track else None
    # each row's and each arc sum's terms as a column of coefficients per line
    fixed = [np.bincount(*zip(*row), lines)[:, None] for row in scheme.rows]
    tables = [[np.bincount(*zip(*t), lines)[:, None] for t in arc.terms] for arc in scheme.arcs]
    h2 = grid.h**2
    for top in range(m, slabs - m, depth):
        start, stop = top * slab + edge, min(top + depth, slabs - m) * slab - edge
        d = diffs[:, : stop - start]
        tmp, acc, a, b, hyp, x, win = (None if buf is None else buf[: stop - start]
                                       for buf in buffers)
        for dk, s in zip(d, shifts):
            np.multiply(nodes[start:stop], -2.0, out=dk)
            dk += nodes[start + s : stop + s]
            dk += nodes[start - s : stop - s]
        best = out[start:stop]
        w = None if policy is None else policy[:, start:stop]
        for j, row in enumerate(scheme.rows):
            target = acc if j else best
            _combine(target, d, row, tmp)
            if j == 0:
                if w is not None:
                    w[...] = fixed[0]
                continue
            if w is not None:
                w[:, better(target, best, out=win)] = fixed[j]
            pick(best, target, out=best)
        for arc, (sm, am, bm) in zip(scheme.arcs, tables):
            for target, terms in zip((acc, a, b), arc.terms):
                _combine(target, d, terms, tmp)
            np.multiply(a, a, out=hyp)
            hyp += np.multiply(b, b, out=tmp)  # tmp keeps B^2 for _arc_gain
            np.sqrt(hyp, out=hyp)
            if w is not None:  # the weights Sm + A (cos s - 1) + B sin s at the argmax
                cs, sn = _arc_argmax(arc, a, b, hyp)
                weights = np.maximum(sm + (-1.0 if scheme.minimize else 1.0)
                                     * (am * (cs - 1.0) + bm * sn), 0.0)
            _arc_gain(arc, a, b, hyp, x, tmp)
            (np.subtract if scheme.minimize else np.add)(acc, b, out=acc)
            if w is not None:
                better(acc, best, out=win)
                w[:, win] = weights[:, win]
            pick(best, acc, out=best)
        best /= h2
    # no strip starts on the slowest axis's band; the other axes' bands got
    # wrapped stencils
    blanks = [(out, np.nan)] + [(row, 0.0) for row in ([] if policy is None else policy)]
    for flat, fill in blanks:
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
    """``eval_discrete`` and the policy: per line of ``policy_lines`` and
    node, the weight c >= 0 of the matrix attaining F_h(u), so that sum c
    D_e u / h^2 is F_h(u) there; shape (lines, nodes), 0 on the band."""
    vals, policy = _envelope(op, u, True)
    return GridFunction(u.grid, vals, allow_non_finite=True), policy
