"""The monotone finite-difference scheme F_h, defined once.

F_h is built from directional second differences in node units,

    D_e u(x) = u(x + e h) - 2 u(x) + u(x - e h),

as   F_h u(x) = pick_g  sum_{(e, C) in g}  pick_{c in C} c D_e u(x) / h^2,

where pick is the max (the min for pucci_min), g runs over a few candidates
and every coefficient c is nonnegative.  Each D_e has nonnegative off-centre
weights, so F_h is monotone (Barles & Souganidis, Asymptotic Anal. 4, 1991).

- Trace, linear and max-of-linear operators: one candidate per matrix A,
  from Selling's decomposition A = sum rho_i e_i e_i^T with rho_i >= 0 and
  integer e_i (Fehrenbach & Mirebeau, JMIV 49, 2014).  Exact on quadratics.
- Pucci operators: PUCCI_ANGLES directions at PUCCI_RADIUS nodes, paired
  orthogonally; a pair contributes max(lam2 D_e, lam1 D_e) / r^2 per
  direction (the min for pucci_min).  Off-lattice sample points are
  bilinearly interpolated, which keeps the weights nonnegative and adds an
  O((h/r)^2) consistency error.
- 1D grids: the same structure with the single direction e = 1.

``eval_discrete`` evaluates F_h; ``eval_policy`` also returns, per node, the
index of the linear stencil attaining the pick, and ``frozen_stencils``
lists those linear stencils for the solvers' sparse assembly.  The scheme
reaches ``operator_margin`` node layers, where F_h is undefined (NaN).
Both walk the interior in strips of whole rows, about ``_STRIP`` nodes
each, through a few strip-sized buffers that stay in cache, rather than
making whole-grid temporaries per term.  Every node gets the same
operations in the same order as in a whole-grid evaluation, so the values
and the policy do not depend on the strip size, bit for bit.

``discrete_hessian`` is not the scheme: it estimates D^2 u by central
differences for the viscosity checks and the Hessian L^p norms.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, SymMatrix
from .operators import EllipticOperator, operator_spec_string

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


PUCCI_ANGLES = 16  # equispaced directions in [0, pi), paired orthogonally
PUCCI_RADIUS = 3  # sample distance of the Pucci directions, in nodes


@dataclass(frozen=True, eq=False)
class HessianField:
    """Central-difference Hessian entries on interior nodes (NaN on the ring)."""

    grid: Grid
    comps: dict  # (i, j) -> lattice array
    margin: int = 1

    def matrix_at(self, multi) -> SymMatrix:
        n = self.grid.ndim
        m = np.zeros((n, n))
        idx = tuple(multi[n - 1 - a] for a in range(n))  # lattice order
        for (i, j), arr in self.comps.items():
            v = arr[idx]
            if not np.isfinite(v):
                raise ValueError("Hessian is undefined on the boundary ring")
            m[i, j] = v
            m[j, i] = v
        return SymMatrix(m)


def discrete_hessian(u: GridFunction) -> HessianField:
    """Second differences (u(x+he) - 2u(x) + u(x-he))/h^2 and the mixed
    four-point cross difference; exact on quadratics."""
    grid = u.grid
    h = grid.h
    lat = u.lattice()
    comps = {}
    if grid.ndim == 1:
        xx = np.full_like(lat, np.nan)
        xx[1:-1] = (lat[2:] - 2.0 * lat[1:-1] + lat[:-2]) / h**2
        comps[(0, 0)] = xx
    elif grid.ndim == 2:
        xx = np.full_like(lat, np.nan)
        yy = np.full_like(lat, np.nan)
        xy = np.full_like(lat, np.nan)
        xx[:, 1:-1] = (lat[:, 2:] - 2.0 * lat[:, 1:-1] + lat[:, :-2]) / h**2
        yy[1:-1, :] = (lat[2:, :] - 2.0 * lat[1:-1, :] + lat[:-2, :]) / h**2
        xy[1:-1, 1:-1] = (
            lat[2:, 2:] - lat[2:, :-2] - lat[:-2, 2:] + lat[:-2, :-2]
        ) / (4.0 * h**2)
        xx[0, :] = xx[-1, :] = np.nan
        yy[:, 0] = yy[:, -1] = np.nan
        comps[(0, 0)] = xx
        comps[(0, 1)] = xy
        comps[(1, 1)] = yy
    else:
        raise NotImplementedError("discrete Hessians are implemented for 1D and 2D grids")
    return HessianField(grid, comps, margin=1)


# -- building the scheme ---------------------------------------------------------


def _interp_shift_terms(offset):
    """A node-unit offset (x, y) as lattice shifts with bilinear weights,
    [(dx, dy, weight), ...]; an integer component gives a single shift."""
    terms = [((), 1.0)]
    for comp in offset:
        base = math.floor(comp)
        frac = comp - base
        if frac < 1e-13:
            pieces = [(base, 1.0)]
        elif frac > 1.0 - 1e-13:
            pieces = [(base + 1, 1.0)]
        else:
            pieces = [(base, 1.0 - frac), (base + 1, frac)]
        terms = [(loc + (i,), w * pw) for loc, w in terms for i, pw in pieces]
    return [(*loc, w) for loc, w in terms]


def _second_difference(offset):
    """D_e as (dx, dy, weight) terms, centre first, for e = offset."""
    terms = [(0, 0, -2.0)]
    for sign in (1.0, -1.0):
        terms += _interp_shift_terms((sign * offset[0], sign * offset[1]))
    return tuple(terms)


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


def _linear_candidate(a, ndim):
    if ndim == 1:
        return ((_second_difference((1, 0)), (float(a[0, 0]),)),)
    return tuple((_second_difference(e), (rho,)) for rho, e in _selling(a))


@dataclass(frozen=True, eq=False)
class _Scheme:
    """F_h of one operator: per candidate, ((terms, coefficients), ...)."""

    candidates: tuple
    minimize: bool  # pick is the min (pucci_min) rather than the max
    margin: int  # node layers the stencils reach

    @functools.cached_property
    def sizes(self):
        """Linear stencils per candidate: one per choice of coefficients."""
        return [math.prod(len(coeffs) for _, coeffs in cand) for cand in self.candidates]

    @functools.cached_property
    def weighted(self):
        """Whether some off-centre weight differs from 1."""
        return any(w != 1.0 for cand in self.candidates for terms, _ in cand
                   for _, _, w in terms[1:])

    @functools.cached_property
    def choosing(self):
        """Whether some part has a choice of coefficients."""
        return any(len(coeffs) > 1 for cand in self.candidates for _, coeffs in cand)


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
    if op.kind in ("pucci_max", "pucci_min"):
        lam = (op.params.lam2, op.params.lam1)
        if ndim == 1:
            cands = [((_second_difference((1, 0)), lam),)]
        else:
            r = PUCCI_RADIUS
            coeffs = tuple(c / r**2 for c in lam)
            cands = []
            for j in range(PUCCI_ANGLES // 2):
                theta = j * math.pi / PUCCI_ANGLES
                cands.append(tuple(
                    (_second_difference((r * math.cos(t), r * math.sin(t))), coeffs)
                    for t in (theta, theta + math.pi / 2.0)))
    elif op.kind == "trace":
        cands = [_linear_candidate(np.eye(ndim), ndim)]
    elif op.kind in ("linear", "max_of_linear"):
        if op.mats[0].shape[0] != ndim:
            raise ValueError("operator dimension mismatch")
        cands = [_linear_candidate(a, ndim) for a in op.mats]
    else:
        raise ValueError(f"unknown operator kind {op.kind!r}")
    parts = [part for cand in cands for part in cand]
    if any(min(coeffs) < 0.0 or any(w < 0.0 for _, _, w in terms[1:])
           for terms, coeffs in parts):
        raise ValueError("operator %s: the scheme has a negative off-centre weight,"
                         " so it is not monotone" % operator_spec_string(op))
    margin = max(max(abs(dx), abs(dy)) for terms, _ in parts for dx, dy, _ in terms)
    return _Scheme(tuple(cands), op.kind == "pucci_min", margin)


def operator_margin(op: EllipticOperator, ndim: int) -> int:
    """Node layers next to the boundary on which the scheme is undefined."""
    return _scheme(op, ndim).margin


# -- evaluating it -----------------------------------------------------------------

# nodes per strip in _envelope: a strip's float64 buffers are 256 kB each, so
# they stay in cache while every term of the scheme streams through them
_STRIP = 1 << 15


def _envelope(op, u, track):
    """F_h(u) as a flat node array (NaN on the margin band) and, if ``track``
    and the scheme has more than one linear stencil, the index of the stencil
    attaining it at every node (0 on the band); otherwise None.

    The interior is walked in strips of whole rows, about ``_STRIP`` nodes
    each.  A strip is one contiguous run of the flat lattice, from the first
    interior node of its top row to the last interior node of its bottom
    row, so a term is a shifted slice of the lattice and every operation
    runs on contiguous memory.  The run's nodes on the margin columns get
    stencils that wrap into the next row; they are blanked at the end.
    Within a strip every term goes into a few reused buffers, each made only
    if the scheme needs it: ``tmp`` for an off-centre weight other than 1,
    ``val`` and ``alt`` for a choice of coefficients, ``acc`` for more than
    one candidate.  Each node sees the same operations in the same order
    whatever the strip (centre first, then the terms in order; ``coeffs[0]``,
    then each alternative; candidates in order), so the values and the
    policy are those of a whole-grid evaluation, bit for bit."""
    grid = u.grid
    scheme = _scheme(op, grid.ndim)
    m = scheme.margin
    my = m if grid.ndim == 2 else 0
    lat = u.lattice().reshape(-1, grid.shape[0])  # 1D grids as one row
    ny, nx = lat.shape
    if 2 * m >= nx or 2 * my >= ny:
        raise StencilReachError("stencil exits domain: grid too small for its reach %d" % m)
    track = track and sum(scheme.sizes) > 1
    better = np.less if scheme.minimize else np.greater
    pick = np.minimum if scheme.minimize else np.maximum
    rows = min(max(1, _STRIP // (nx - 2 * m)), ny - 2 * my)

    def buffer(needed, dtype=float):
        return np.empty(rows * nx - 2 * m, dtype) if needed else None

    buffers = (buffer(True), buffer(scheme.weighted),
               buffer(scheme.choosing), buffer(scheme.choosing),
               buffer(len(scheme.candidates) > 1),
               buffer(track, bool), buffer(track, np.int32),
               buffer(track and max(scheme.sizes[1:], default=1) > 1, np.int32))
    nodes = lat.ravel()
    out = np.full(ny * nx, np.nan)
    policy = np.zeros(ny * nx, dtype=np.int32) if track else None
    h2 = grid.h**2
    for top in range(my, ny - my, rows):
        start, stop = top * nx + m, min(top + rows, ny - my) * nx - m
        d, tmp, val, alt, acc, mask, step, choices = (
            None if b is None else b[: stop - start] for b in buffers)
        best = out[start:stop]
        held = None if policy is None else policy[start:stop]
        base = 0
        for j, (cand, size) in enumerate(zip(scheme.candidates, scheme.sizes)):
            target = best if j == 0 else acc
            if not track or size == 1:
                choice = base
            elif j == 0:
                choice = held
            else:
                choice = choices
                choice.fill(base)
            stride = size
            for i, (terms, coeffs) in enumerate(cand):
                _, _, centre = terms[0]  # the centre term leads
                np.multiply(nodes[start:stop], centre, out=d)
                for dx, dy, w in terms[1:]:
                    shifted = nodes[start + dy * nx + dx : stop + dy * nx + dx]
                    d += shifted if w == 1.0 else np.multiply(shifted, w, out=tmp)
                v = target if i == 0 else d if len(coeffs) == 1 else val
                np.multiply(d, coeffs[0], out=v)
                stride //= len(coeffs)
                for k, c in enumerate(coeffs[1:], 1):
                    np.multiply(d, c, out=alt)
                    if track:  # choice += k * stride * better(alt, v)
                        choice += np.multiply(better(alt, v, out=mask), k * stride, out=step)
                    pick(v, alt, out=v)
                if i:
                    target += v
            if j:
                if track:  # where better(target, best), the policy becomes choice
                    diff = np.subtract(choice, held, out=step)
                    held += np.multiply(diff, better(target, best, out=mask), out=diff)
                pick(best, target, out=best)
            base += size
        best /= h2
    band = out.reshape(ny, nx)
    band[:, :m] = band[:, nx - m :] = np.nan
    if policy is not None:
        band = policy.reshape(ny, nx)
        band[:, :m] = band[:, nx - m :] = 0
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
    """Every linear stencil a policy can freeze, as flat node offsets (int32)
    and weights of shape (stencils, terms), centre first, padded with zero
    weights.  Applied at a node, stencil ``eval_policy`` picked there gives
    F_h(u) at that node."""
    scheme = _scheme(op, grid.ndim)
    nx, scale = grid.shape[0], 1.0 / grid.h**2
    stencils = []
    for cand in scheme.candidates:
        for choice in itertools.product(*(range(len(coeffs)) for _, coeffs in cand)):
            acc = {(0, 0): 0.0}
            for (terms, coeffs), k in zip(cand, choice):
                for dx, dy, w in terms:
                    acc[(dx, dy)] = acc.get((dx, dy), 0.0) + coeffs[k] * w * scale
            stencils.append(acc)
    width = max(len(s) for s in stencils)
    offsets = np.zeros((len(stencils), width), dtype=np.int32)
    weights = np.zeros((len(stencils), width))
    for i, s in enumerate(stencils):
        for t, ((dx, dy), w) in enumerate(s.items()):
            offsets[i, t] = dy * nx + dx
            weights[i, t] = w
    return offsets, weights
