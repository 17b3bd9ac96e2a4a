"""Monotone finite-difference discretizations of second-order operators.

Hessian-based kinds (trace / linear / max-of-linear) use central second
differences, exact on quadratics.  Pucci kinds use a wide stencil: directional
second differences along K equispaced angles, paired orthogonally, with
bilinear interpolation at off-grid sample points.  Interpolation weights are
nonnegative, so the scheme is monotone in the off-node values; its consistency
error carries an O((h/r)^2) interpolation term at fixed physical stencil
radius r.

``policy_stencils`` lists the same scheme as a few candidate linear stencils
whose pointwise max (min for pucci_min) is F_h; the solvers freeze one
candidate per node and assemble it as a sparse matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Grid, GridFunction, SymMatrix
from .operators import EllipticOperator, op_eval_comps2

__all__ = [
    "StencilConfig",
    "HessianField",
    "discrete_hessian",
    "directional_second_difference",
    "eval_discrete",
    "operator_margin",
    "policy_stencils",
]

_HESSIAN_KINDS = ("trace", "linear", "max_of_linear")


@dataclass(frozen=True)
class StencilConfig:
    """Wide-stencil knobs: K direction angles (2D, even) and radius in nodes."""

    angle_count: int = 16
    stencil_radius: int = 3

    def __post_init__(self):
        if self.angle_count < 2 or self.angle_count % 2 != 0:
            raise ValueError("angle_count must be an even integer >= 2")
        if self.stencil_radius < 1:
            raise ValueError("stencil_radius must be a positive integer")


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


def _interp_shift_terms(offset_nodes, radius):
    """Decompose a node-unit offset into lattice shifts + bilinear weights.

    Returns [(dx, dy, weight), ...] with |dx|, |dy| <= radius; exact-integer
    components produce a single term so the stencil never reaches past the
    declared radius.
    """
    terms = [((), 1.0)]
    for comp in offset_nodes:  # component order: x, y
        base = math.floor(comp)
        frac = comp - base
        if frac < 1e-13:
            pieces = [(base, 1.0)]
        elif frac > 1.0 - 1e-13:
            pieces = [(base + 1, 1.0)]
        else:
            pieces = [(base, 1.0 - frac), (base + 1, frac)]
        terms = [(loc + (i,), w * pw) for loc, w in terms for i, pw in pieces]
    if any(abs(i) > radius for loc, _ in terms for i in loc):
        raise ValueError("stencil exits its declared radius")
    return [(*loc, w) for loc, w in terms]


def _directional_terms(theta, radius):
    """u(x+d) - 2u(x) + u(x-d) with d = radius*(cos, sin) in node units, as
    (dx, dy, weight) terms, centre first; off-grid points are interpolated."""
    offset = (radius * math.cos(theta), radius * math.sin(theta))
    terms = [(0, 0, -2.0)]
    for sign in (+1.0, -1.0):
        terms += _interp_shift_terms((sign * offset[0], sign * offset[1]), radius)
    return terms


def _directional_dd_lattice(lat, h, theta, radius):
    """(u(x+d) - 2u(x) + u(x-d))/|d|^2 with d = radius*h*(cos, sin); NaN ring."""
    ny, nx = lat.shape
    m = radius
    if 2 * m >= min(nx, ny):
        raise ValueError("stencil exits domain: grid too small for this radius")
    acc = np.zeros((ny - 2 * m, nx - 2 * m))
    for dx, dy, w in _directional_terms(theta, radius):
        acc += w * lat[m + dy : ny - m + dy, m + dx : nx - m + dx]
    out = np.full_like(lat, np.nan)
    out[m : ny - m, m : nx - m] = acc / (radius * h) ** 2
    return out


def directional_second_difference(u: GridFunction, node, theta: float,
                                  rho_nodes: int) -> float:
    """Directional second difference at one node, offset rho_nodes*h*(cos t, sin t).

    Off-grid sample points are bilinearly interpolated; an offset landing
    outside the domain raises.
    """
    grid = u.grid
    if grid.ndim != 2:
        raise NotImplementedError("directional differences are 2D")
    if rho_nodes < 1:
        raise ValueError("rho_nodes must be a positive integer")
    ix, iy = int(node[0]), int(node[1])
    if not (0 <= ix < grid.shape[0] and 0 <= iy < grid.shape[1]):
        raise IndexError("node index out of range")
    if min(ix, grid.shape[0] - 1 - ix, iy, grid.shape[1] - 1 - iy) < rho_nodes:
        raise ValueError("stencil exits domain")
    lat = u.lattice()
    val = sum(w * lat[iy + dy, ix + dx] for dx, dy, w in _directional_terms(theta, rho_nodes))
    return float(val / (rho_nodes * grid.h) ** 2)


def operator_margin(op: EllipticOperator, cfg: StencilConfig | None, ndim: int) -> int:
    """Node layers next to the boundary on which the scheme is undefined."""
    cfg = cfg or StencilConfig()
    if ndim == 1 or op.kind in _HESSIAN_KINDS:
        return 1
    return cfg.stencil_radius


def _merge_terms(pieces):
    """Sum (dx, dy, weight) terms sharing an offset; the centre comes first."""
    acc = {(0, 0): 0.0}
    for dx, dy, w in pieces:
        acc[(dx, dy)] = acc.get((dx, dy), 0.0) + w
    return [(dx, dy, w) for (dx, dy), w in acc.items()]


def _hessian_stencil(a, h, ndim):
    """<A, D^2_h u> from central differences and the four-point cross term."""
    c = 1.0 / (h * h)
    if ndim == 1:
        return _merge_terms([(1, 0, a[0, 0] * c), (-1, 0, a[0, 0] * c),
                             (0, 0, -2.0 * a[0, 0] * c)])
    a11, a12, a22 = a[0, 0], a[0, 1], a[1, 1]
    pieces = [(1, 0, a11 * c), (-1, 0, a11 * c), (0, 1, a22 * c), (0, -1, a22 * c),
              (0, 0, -2.0 * (a11 + a22) * c)]
    if a12 != 0.0:
        x = 0.5 * a12 * c
        pieces += [(1, 1, x), (-1, -1, x), (-1, 1, -x), (1, -1, -x)]
    return _merge_terms(pieces)


def policy_stencils(op: EllipticOperator, grid: Grid,
                    cfg: StencilConfig | None = None) -> list:
    """The candidate linear stencils of F_h on ``grid``.

    Each candidate is a list of (dx, dy, weight) terms, centre first, with
    F_h u(x) = max over candidates of sum(weight * u(x + (dx, dy))) -- the min
    for pucci_min.  Trace and linear operators have one candidate,
    max_of_linear one per matrix, and Pucci four per orthogonal angle pair
    (lam2 or lam1 along each of the two directions).  On 1D grids dy is 0.
    """
    cfg = cfg or StencilConfig()
    h, ndim = grid.h, grid.ndim
    if ndim not in (1, 2):
        raise NotImplementedError("policy stencils are implemented for 1D and 2D grids")
    if op.kind == "trace":
        return [_hessian_stencil(np.eye(ndim), h, ndim)]
    if op.kind in ("linear", "max_of_linear"):
        if op.mats[0].shape[0] != ndim:
            raise ValueError("operator dimension mismatch")
        return [_hessian_stencil(a, h, ndim) for a in op.mats]
    lam1, lam2 = op.params.lam1, op.params.lam2
    if ndim == 1:
        dd = _hessian_stencil(np.eye(1), h, 1)
        return [[(dx, dy, lam * w) for dx, dy, w in dd] for lam in (lam2, lam1)]
    k, rho = cfg.angle_count, cfg.stencil_radius
    c = 1.0 / (rho * h) ** 2
    out = []
    for j in range(k // 2):
        theta = j * math.pi / k
        d1 = _directional_terms(theta, rho)
        d2 = _directional_terms(theta + math.pi / 2.0, rho)
        for c1 in (lam2 * c, lam1 * c):
            for c2 in (lam2 * c, lam1 * c):
                out.append(_merge_terms([(dx, dy, c1 * w) for dx, dy, w in d1]
                                        + [(dx, dy, c2 * w) for dx, dy, w in d2]))
    return out


def _pucci_wide_lattice(op, lat, h, cfg):
    lam1, lam2 = op.params.lam1, op.params.lam2
    k = cfg.angle_count
    rho = cfg.stencil_radius
    best = None
    for j in range(k // 2):
        theta = j * math.pi / k
        d1 = _directional_dd_lattice(lat, h, theta, rho)
        d2 = _directional_dd_lattice(lat, h, theta + math.pi / 2.0, rho)
        if op.kind == "pucci_max":
            pair = (
                lam2 * np.maximum(d1, 0.0) + lam1 * np.minimum(d1, 0.0)
                + lam2 * np.maximum(d2, 0.0) + lam1 * np.minimum(d2, 0.0)
            )
            best = pair if best is None else np.fmax(best, pair)
        else:
            pair = (
                lam1 * np.maximum(d1, 0.0) + lam2 * np.minimum(d1, 0.0)
                + lam1 * np.maximum(d2, 0.0) + lam2 * np.minimum(d2, 0.0)
            )
            best = pair if best is None else np.fmin(best, pair)
    return best


def eval_discrete(op: EllipticOperator, u: GridFunction,
                  cfg: StencilConfig | None = None) -> GridFunction:
    """Apply the discrete operator; boundary-ring nodes are NaN sentinels."""
    cfg = cfg or StencilConfig()
    grid = u.grid
    if grid.ndim == 1:
        xx = discrete_hessian(u).comps[(0, 0)]
        if op.kind == "trace":
            vals = xx
        elif op.kind in ("linear", "max_of_linear"):
            if op.mats[0].shape[0] != 1:
                raise ValueError("operator dimension mismatch")
            vals = op.mats[0][0, 0] * xx
            for a in op.mats[1:]:
                vals = np.maximum(vals, a[0, 0] * xx)
        else:
            lam1, lam2 = op.params.lam1, op.params.lam2
            pos, neg = np.maximum(xx, 0.0), np.minimum(xx, 0.0)
            vals = lam2 * pos + lam1 * neg if op.kind == "pucci_max" \
                else lam1 * pos + lam2 * neg
        return GridFunction(grid, vals.ravel(), allow_non_finite=True)
    if grid.ndim != 2:
        raise NotImplementedError("discrete evaluation is implemented for 1D and 2D grids")
    if op.kind in _HESSIAN_KINDS:
        hf = discrete_hessian(u)
        vals = op_eval_comps2(op, hf.comps[(0, 0)], hf.comps[(0, 1)], hf.comps[(1, 1)])
        # the mixed difference alone would survive one node beyond the pure ones
        vals = np.where(np.isfinite(hf.comps[(0, 0)]) & np.isfinite(hf.comps[(1, 1)]),
                        vals, np.nan)
        return GridFunction(grid, vals.ravel(), allow_non_finite=True)
    lat = u.lattice()
    vals = _pucci_wide_lattice(op, lat, grid.h, cfg)
    return GridFunction(grid, vals.ravel(), allow_non_finite=True)
