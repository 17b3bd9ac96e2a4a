"""Smoothing lab: discrete mollification, g = div(A grad u_eps) for constant
SPD A, the pointwise sandwich f1*eta <= g_eps <= f2*eta on the shrunken
domain, and L^p Hessian norms tracked across a schedule of smoothing radii.

The kernel is the polynomial bump (1 - |x/eps|^2)^4, sampled on lattice
offsets and renormalized to unit mass, so constants are fixed points and
affine functions pass through untouched (odd moments cancel by symmetry),
up to roundoff.  The convolution is one FFT product (``numpy.fft``): its
roundoff is global, about 1e-15 sup|u| at every node, and reruns on the
same input give the same bits.
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

from .fileio import write_csv
from .grids import (
    Ball,
    Domain,
    Grid,
    GridFunction,
    SymMatrix,
    ball_node_mask,
)
from .operators import linear_operator
from .stencils import discrete_hessian, eval_discrete, operator_margin

__all__ = [
    "MollifierKernel",
    "SandwichReport",
    "SweepRow",
    "mollify",
    "sandwich_check",
    "sandwich_tolerance",
    "hessian_lp_norm",
    "stability_sweep",
]


def _half_width(eps: float, h: float) -> int:
    # snap near-integer eps/h so eps = k*h computed in floats lands on k
    return int(math.floor(eps / h + 1e-9))


@dataclass(frozen=True, eq=False)
class MollifierKernel:
    """Unit-mass bump (1 - |x/eps|^2)^4 discretized on lattice offsets."""

    eps: float
    h: float
    ndim: int
    weights: np.ndarray  # lattice-shaped (2K+1,)^ndim, nonnegative, sum 1

    @classmethod
    def build(cls, grid: Grid, eps: float) -> "MollifierKernel":
        eps = float(eps)
        if eps < 3.0 * grid.h * (1.0 - 1e-12):
            raise ValueError("kernel under-resolved: need eps >= 3h")
        k = _half_width(eps, grid.h)
        off = np.arange(-k, k + 1) * grid.h
        r2 = np.zeros((2 * k + 1,) * grid.ndim)
        for a in range(grid.ndim):
            shape = [1] * grid.ndim
            shape[grid.ndim - 1 - a] = 2 * k + 1  # lattice order, x fastest
            r2 = r2 + (off**2).reshape(shape)
        w = np.maximum(0.0, 1.0 - r2 / eps**2) ** 4
        w /= w.sum()
        w.setflags(write=False)
        return cls(eps, grid.h, grid.ndim, w)

    @property
    def half_width(self) -> int:
        return (self.weights.shape[0] - 1) // 2


def _trimmed_grid(grid: Grid, trim: int) -> Grid:
    shape = tuple(s - 2 * trim for s in grid.shape)
    if any(s < 3 for s in shape):
        raise ValueError("mollified domain is empty: the margin removes every interior node")
    lower = tuple(lo + trim * grid.h for lo in grid.domain.lower)
    upper = tuple(hi - trim * grid.h for hi in grid.domain.upper)
    return Grid(Domain(lower, upper), shape)


def _convolve_valid(lat: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Valid-mode correlation sum_d w(d) lat(x + d) by FFT, as the circular
    product with the flipped weights at the lattice's own size: wrap-around
    reaches only the first m - 1 outputs per axis, which valid mode drops.
    The roundoff is global, about 1e-15 sup|lat| at every node, and reruns
    give the same bits.  A NaN or inf would spread over the whole output, so
    a lattice that is not finite is rejected."""
    out_shape = tuple(n - m + 1 for n, m in zip(lat.shape, weights.shape))
    if any(s < 1 for s in out_shape):
        raise ValueError("mollified domain is empty: the margin removes every interior node")
    if not np.all(np.isfinite(lat)):
        raise ValueError("cannot mollify a field with non-finite values")
    axes = tuple(range(lat.ndim))
    spec = np.fft.rfftn(lat, axes=axes)
    spec *= np.fft.rfftn(np.flip(weights), lat.shape, axes=axes)
    full = np.fft.irfftn(spec, lat.shape, axes=axes)
    return full[tuple(slice(m - 1, None) for m in weights.shape)]


def _crop(lat: np.ndarray, grid: Grid, trim: int, layers: int) -> GridFunction:
    """A lattice array over ``grid`` trimmed by ``trim`` node layers, cut down
    to ``grid`` trimmed by ``trim + layers``."""
    inner = tuple(slice(layers, s - layers) for s in lat.shape)
    return GridFunction(_trimmed_grid(grid, trim + layers), lat[inner].ravel())


def mollify(u: GridFunction, eps: float) -> GridFunction:
    """eta_eps * u, reported on the shrunken domain only (no boundary
    extension; values outside it would need data the grid does not carry)."""
    kern = MollifierKernel.build(u.grid, eps)
    return _crop(_convolve_valid(u.lattice(), kern.weights), u.grid, kern.half_width, 1)


@dataclass(frozen=True, eq=False)
class SandwichReport:
    """Nodewise margins of f1*eta <= g_eps <= f2*eta on the shrunken domain."""

    eps: float
    tolerance: float
    grid: Grid  # the shrunken domain's grid
    lower: GridFunction  # g_eps - f1*eta
    upper: GridFunction  # f2*eta - g_eps
    worst_lower: float
    worst_upper: float
    passed: bool


def _as_data(grid: Grid, data, name: str):
    """Node values of a GridFunction or callable; a scalar stays a float."""
    if isinstance(data, GridFunction):
        if data.grid is not grid and data.grid != grid:
            raise ValueError("%s lives on a different grid" % name)
        return data.values
    if callable(data):
        return GridFunction.from_callable(grid, data).values
    return float(data)


def sandwich_check(u: GridFunction, a: SymMatrix, f1, f2, eps: float) -> SandwichReport:
    """Mollify u, f1, f2; form g_eps = div(A grad u_eps); compare nodewise
    within ``sandwich_tolerance``."""
    kern = MollifierKernel.build(u.grid, eps)
    return _sandwich(u, _convolve_valid(u.lattice(), kern.weights), kern, a, f1, f2)


def sandwich_tolerance(u: GridFunction, a: SymMatrix, f2) -> float:
    """10 h (1 + sup|f2| + |A|_F sup|u|) for f2 a number or node values:
    the roundoff of the convolution algebra with a wide O(h) consistency
    allowance."""
    return 10.0 * u.grid.h * (1.0 + float(np.max(np.abs(f2)))
                              + a.frobenius() * u.sup_norm())


def _sandwich(u, conv, kern, a, f1, f2):
    """sandwich_check given conv = eta_eps * u in valid mode.  The report
    covers the nodes where g_eps is defined: the shrunken domain when the
    scheme of A reaches one node layer, fewer nodes when it reaches further."""
    grid = u.grid
    f1 = _as_data(grid, f1, "f1")
    f2 = _as_data(grid, f2, "f2")
    if np.any(np.asarray(f1) > f2):
        raise ValueError("sandwich requires f1 <= f2 nodewise")
    tol = sandwich_tolerance(u, a, f2)

    op = linear_operator(a.mat)
    trim, margin = kern.half_width, operator_margin(op, grid.ndim)
    mid = GridFunction(_trimmed_grid(grid, trim), conv.ravel())
    g = _crop(eval_discrete(op, mid).lattice(), grid, trim, margin)

    def mollified(f):  # eta_eps * c = c: the kernel has unit mass
        if isinstance(f, float):
            return f
        return _crop(_convolve_valid(grid.lattice(f), kern.weights), grid, trim, margin).values

    sub = g.grid
    lower = g.values - mollified(f1)
    upper = mollified(f2) - g.values
    worst_lower = float(lower.min())
    worst_upper = float(upper.min())
    passed = worst_lower >= -tol and worst_upper >= -tol
    return SandwichReport(kern.eps, float(tol), sub,
                          GridFunction(sub, lower), GridFunction(sub, upper),
                          worst_lower, worst_upper, bool(passed))


def hessian_lp_norm(u_eps: GridFunction, p: float, ball: Ball) -> float:
    """(sum_nodes |D2_h u_eps|_F^p h^n)^(1/p) over the discrete ball
    (midpoint quadrature).  The ball must stay where the Hessian exists."""
    if not (1.0 <= p < math.inf):
        raise ValueError("p must lie in [1, inf)")
    grid = u_eps.grid
    hf = discrete_hessian(u_eps)
    frob2 = None
    for (i, j), arr in hf.comps.items():
        term = arr**2 if i == j else 2.0 * arr**2
        frob2 = term if frob2 is None else frob2 + term
    frob = np.sqrt(frob2).ravel()
    vals = frob[ball_node_mask(grid, ball)]
    if not np.all(np.isfinite(vals)):
        raise ValueError("ball touches nodes where the Hessian is undefined")
    return float(np.sum(vals**p) * grid.h**grid.ndim) ** (1.0 / p)


@dataclass(frozen=True)
class SweepRow:
    eps: float
    norm_p: float
    passed: bool


def stability_sweep(u: GridFunction, a: SymMatrix, f1, f2, schedule, p: float,
                    r: float, path=None) -> list:
    """Sandwich verdict and |D2 u_eps|_{L^p(B(r))} for each eps in a
    decreasing schedule; the norm column staying bounded as eps shrinks is
    the desk-scale version of an eps-independent W^{2,p} estimate.

    Writes a CSV (columns eps, norm_p, pass-flag) when given a path.
    """
    schedule = [float(e) for e in schedule]
    if not schedule:
        raise ValueError("schedule is empty")
    if any(b >= a_ for a_, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly decreasing")
    if schedule[-1] < 3.0 * u.grid.h * (1.0 - 1e-12):
        raise ValueError("schedule under-resolved: every eps must be >= 3h")
    center = tuple(0.5 * (lo + hi) for lo, hi in
                   zip(u.grid.domain.lower, u.grid.domain.upper))
    rows = []
    for eps in schedule:
        kern = MollifierKernel.build(u.grid, eps)
        conv = _convolve_valid(u.lattice(), kern.weights)  # shared by both columns
        report = _sandwich(u, conv, kern, a, f1, f2)
        u_eps = _crop(conv, u.grid, kern.half_width, 1)
        norm = hessian_lp_norm(u_eps, p, Ball(center, r))
        rows.append(SweepRow(eps, norm, report.passed))
    if path is not None:
        write_csv(path, ["eps", "norm_p", "pass-flag"],
                  [(row.eps, row.norm_p, row.passed) for row in rows])
    return rows
