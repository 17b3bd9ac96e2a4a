"""Smoothing lab: discrete mollification and a sweep over a schedule of
smoothing radii that reports, per eps, the sandwich f1 <= g_eps <= f2 for
g_eps = div(A grad u_eps) (constant SPD A, constant bounds) on the shrunken
domain and the L^p Hessian norm of u_eps.

The kernel is the polynomial bump (1 - |x/eps|^2)^4, sampled on lattice
offsets and renormalized to unit mass, so constants are fixed points
(eta * c = c, which is why the bounds are compared as they are) and affine
functions pass through untouched (odd moments cancel by symmetry), up to
roundoff.  The convolution is one FFT product (``numpy.fft``): its roundoff
is global, about 1e-15 sup|u| at every node, and reruns on the same input
give the same bits.
g_eps is the scheme F_h of the linear operator <A, .> (``eval_discrete``)
applied to u_eps.  Because the kernel has constant coefficients, discrete
convolution commutes with that constant-coefficient stencil wherever both
sides are defined; the sandwich verdict for operators certified nodewise is
therefore exact up to roundoff, not up to a consistency error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import Ball, Domain, Grid, GridFunction, SymMatrix, _lock, ball_values
from .operators import linear_operator
from .stencils import discrete_hessian, eval_discrete, operator_margin

__all__ = [
    "SweepRow",
    "check_schedule",
    "mollify",
    "sandwich_tolerance",
    "hessian_lp_norm",
    "stability_sweep",
]

_EMPTY = "mollified domain is empty: the margin removes every interior node"


def _kernel(grid: Grid, eps: float) -> np.ndarray:
    """Unit-mass bump (1 - |x/eps|^2)^4 on lattice offsets: a read-only
    lattice-shaped (2K+1,)^ndim array of nonnegative weights summing to 1."""
    eps = float(eps)
    if eps < 3.0 * grid.h * (1.0 - 1e-12):
        raise ValueError("kernel under-resolved: need eps >= 3h")
    # snap near-integer eps/h so eps = k*h computed in floats lands on k
    k = int(math.floor(eps / grid.h + 1e-9))
    off = np.arange(-k, k + 1) * grid.h
    r2 = np.zeros((2 * k + 1,) * grid.ndim)
    for a in range(grid.ndim):
        shape = [1] * grid.ndim
        shape[grid.ndim - 1 - a] = 2 * k + 1  # lattice order, x fastest
        r2 = r2 + (off**2).reshape(shape)
    w = np.maximum(0.0, 1.0 - r2 / eps**2) ** 4
    w /= w.sum()
    w.setflags(write=False)
    return w


def _trimmed_grid(grid: Grid, trim: int) -> Grid:
    shape = tuple(s - 2 * trim for s in grid.shape)
    if any(s < 3 for s in shape):
        raise ValueError(_EMPTY)
    lower = tuple(lo + trim * grid.h for lo in grid.domain.lower)
    upper = tuple(hi - trim * grid.h for hi in grid.domain.upper)
    return Grid(Domain(lower, upper), shape)


def _correlator(lat: np.ndarray):
    """The map weights -> valid-mode correlation sum_d w(d) lat(x + d), with
    lat transformed once.  Each call is one FFT product, the circular product
    with the flipped weights at the lattice's own size: wrap-around reaches
    only the first m - 1 outputs per axis, which valid mode drops.  The
    roundoff is global, about 1e-15 sup|lat| at every node, and reruns give
    the same bits.  A NaN or inf would spread over the whole output, so a
    lattice that is not finite is rejected."""
    if not np.all(np.isfinite(lat)):
        raise ValueError("cannot mollify a field with non-finite values")
    axes = tuple(range(lat.ndim))
    spec = np.fft.rfftn(lat, axes=axes)

    def correlate(weights: np.ndarray) -> np.ndarray:
        if any(n < m for n, m in zip(lat.shape, weights.shape)):
            raise ValueError(_EMPTY)
        prod = spec * np.fft.rfftn(np.flip(weights), lat.shape, axes=axes)
        full = np.fft.irfftn(prod, lat.shape, axes=axes)
        return full[tuple(slice(m - 1, None) for m in weights.shape)]

    return correlate


def _shrunken(conv: np.ndarray, grid: Grid, k: int) -> GridFunction:
    """u_eps on the nodes strictly farther than eps from the boundary, from
    its valid correlation ``conv`` over ``grid`` trimmed by k layers."""
    sub = _trimmed_grid(grid, k + 1)
    return GridFunction(sub, _lock(conv[(slice(1, -1),) * conv.ndim].ravel()))


def mollify(u: GridFunction, eps: float) -> GridFunction:
    """eta_eps * u, reported on the shrunken domain only (no boundary
    extension; values outside it would need data the grid does not carry)."""
    w = _kernel(u.grid, eps)
    return _shrunken(_correlator(u.lattice())(w), u.grid, w.shape[0] // 2)


def sandwich_tolerance(u: GridFunction, a: SymMatrix, f2: float) -> float:
    """10 h (1 + |f2| + |A|_F sup|u|): the roundoff of the convolution
    algebra with a wide O(h) consistency allowance."""
    return 10.0 * u.grid.h * (1.0 + abs(float(f2)) + a.frobenius() * u.sup_norm())


def hessian_lp_norm(u_eps: GridFunction, p: float, ball: Ball) -> float:
    """(sum_nodes |D2_h u_eps|_F^p h^n)^(1/p) over the discrete ball
    (midpoint quadrature).  The ball must stay where the Hessian exists."""
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, inf)")
    grid = u_eps.grid
    frob2 = None
    for (i, j), arr in discrete_hessian(u_eps).items():
        term = arr**2 if i == j else 2.0 * arr**2
        frob2 = term if frob2 is None else frob2 + term
    vals = ball_values(grid, np.sqrt(frob2), ball)
    if not np.all(np.isfinite(vals)):
        raise ValueError("ball touches nodes where the Hessian is undefined")
    return float(np.sum(vals**p) * grid.h**grid.ndim) ** (1.0 / p)


def check_schedule(schedule, h: float) -> list:
    """The eps of a sweep on a grid of spacing ``h`` as floats: at least one,
    each finite and >= 3h, strictly decreasing; ValueError otherwise."""
    schedule = [float(e) for e in schedule]
    if not schedule:
        raise ValueError("schedule is empty")
    # NaN fails both comparisons and inf the second: neither reaches _kernel
    if not all(3.0 * h * (1.0 - 1e-12) <= e < math.inf for e in schedule):
        raise ValueError("schedule: every eps must be finite and >= 3h, got %r" % schedule)
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    return schedule


@dataclass(frozen=True)
class SweepRow:
    eps: float
    norm_p: float
    passed: bool  # both margins >= -sandwich_tolerance
    worst_lower: float  # min over the nodes of g_eps - f1
    worst_upper: float  # min over the nodes of f2 - g_eps


def stability_sweep(u: GridFunction, a: SymMatrix, f1: float, f2: float, schedule,
                    p: float, r: float) -> list:
    """Sandwich verdict and |D2 u_eps|_{L^p(B(r))} for each eps in a
    decreasing schedule; the norm column staying bounded as eps shrinks is
    the desk-scale version of an eps-independent W^{2,p} estimate.

    The sandwich covers the nodes where g_eps is defined: the shrunken domain
    when the scheme of A reaches one node layer, fewer nodes when it reaches
    further.
    """
    grid = u.grid
    schedule = check_schedule(schedule, grid.h)
    f1, f2 = float(f1), float(f2)
    if not (math.isfinite(f1) and math.isfinite(f2)):
        raise ValueError("sandwich bounds f1 = %r and f2 = %r must be finite" % (f1, f2))
    if f1 > f2:
        raise ValueError("sandwich requires f1 <= f2")
    tol = sandwich_tolerance(u, a, f2)
    op = linear_operator(a.mat)  # one object, so its scheme is built once
    margin = operator_margin(op, grid.ndim)
    center = tuple(0.5 * (lo + hi) for lo, hi in zip(grid.domain.lower, grid.domain.upper))
    ball = Ball(center, r)
    correlate = _correlator(u.lattice())
    rows = []
    for eps in schedule:
        w = _kernel(grid, eps)
        k = w.shape[0] // 2
        conv = correlate(w)  # shared by both columns
        g = eval_discrete(op, GridFunction(_trimmed_grid(grid, k), _lock(conv.ravel()))).lattice()
        if min(g.shape) - 2 * margin < 3:
            raise ValueError(_EMPTY)
        g = g[(slice(margin, -margin),) * g.ndim]
        worst_lower = float(g.min()) - f1
        worst_upper = f2 - float(g.max())
        norm = hessian_lp_norm(_shrunken(conv, grid, k), p, ball)
        rows.append(SweepRow(eps, norm, worst_lower >= -tol and worst_upper >= -tol,
                             worst_lower, worst_upper))
    return rows
