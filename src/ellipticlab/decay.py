"""Oscillation-decay diagnostics: best affine fits on balls, the dyadic decay
profile, blow-up rescaling with slope bookkeeping, and kappa-normalization.

The raw quantity is psi(r) = inf_q osc_{B_r}(u - q . x); C^{1,beta} behaviour
at the center appears as psi ~ r^(1+beta).  The normalized functional
Phi(r) = r^(-1-beta) psi(r) then decays like r^sigma with
sigma = log 2 / (-log lam) along the dyadic ladder r_k = lam^k R, and the
blow-up copies

    u_k(x) = 2^k lam^(-k(1+beta)) (u(lam^k x) - q_k . lam^k x)

keep oscillation below 1 on the unit ball, with the slope corrections
accumulated by q_k = q_{k-1} + 2^(1-k) lam^((k-1) beta) q~_k.  (The update
exponent is re-derived from the two oscillation displays rather than copied:
the zoom at level k-1 magnifies slopes by 2^(k-1) lam^(-(k-1) beta), so the
fitted slope q~_k of that zoom converts back with the reciprocal factor; the
correction adds — it removes the slope the fit found.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import Ball, GridFunction, ball_samples, oscillation, resample, square_grid
from .simplex import MinimaxFit, minimax_affine

__all__ = [
    "CertificationError",
    "best_affine",
    "DecayConfig",
    "DecayProfile",
    "decay_profile",
    "verify_decay_chain",
    "RescaleState",
    "RescaleSequence",
    "rescale_sequence",
    "normalize",
]


class CertificationError(ValueError):
    """The input was measured and failed a certificate: a verdict on the
    data, not a precondition on how it was called."""


def best_affine(u: GridFunction, ball: Ball) -> MinimaxFit:
    """Minimize osc over the ball's nodes of u - q . x (a minimax LP): the
    optimal slope q, the minimized oscillation (``width``) and the pivots.

    Note the optimum is over the discrete node set: for u = x^2/2 on a 1D
    ball of radius r the value is r^2/2 (q = 0), not the continuum Chebyshev
    remainder.
    """
    return minimax_affine(*ball_samples(u, ball))


MIN_RADIUS_NODES = 4  # grid steps spanned by the deepest radius or blow-up scale
CHAIN_REL_TOL = 1e-9  # relative slack of each step of the decay chain


@dataclass(frozen=True)
class DecayConfig:
    """Parameters of the dyadic decay induction.

    The induction closes when 2 lam^(1-beta) <= 1; equality is admitted
    (the quadratic model case lam = 1/4, beta = 1/2 sits exactly on it).
    """

    lam: float = 0.25
    beta: float = 0.5
    levels: int = 4  # deepest dyadic level K; radii run lam^0 R .. lam^K R

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError("need 0 < lam < 1")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if 2.0 * self.lam ** (1.0 - self.beta) > 1.0 + 1e-12:
            raise ValueError("decay induction does not close: need 2 lam^(1-beta) <= 1")
        if self.levels < 1:
            raise ValueError("levels must be positive")

    @property
    def sigma(self) -> float:
        return math.log(2.0) / (-math.log(self.lam))


@dataclass(frozen=True, eq=False)
class DecayProfile:
    center: tuple
    lam: float
    beta: float
    radius0: float
    radii: tuple  # r_k = lam^k radius0, k = 0..K
    psi: tuple  # raw inf_q osc per level
    phi: tuple  # normalized r^(-1-beta) psi
    usable: tuple  # levels entering the slope fit
    slope: float  # d log psi / d log r
    beta_hat: float  # slope - 1
    sigma: float  # log 2 / (-log lam)
    spread: float  # max deviation of leave-one-level-out slopes
    pivots: tuple  # simplex pivots of each level's affine fit


def _slope_fit(log_r, log_psi) -> float:
    a = np.column_stack([log_r, np.ones_like(log_r)])
    coef, *_ = np.linalg.lstsq(a, log_psi, rcond=None)
    return float(coef[0])


def decay_profile(u: GridFunction, center, cfg: DecayConfig,
                  radius0: float) -> DecayProfile:
    """psi/Phi down the ladder plus a log-log slope with leave-one-out spread.

    Levels with psi below 100 eps_machine ||u||_inf are flagged unusable and
    excluded from the fit (they are numerical zeros — e.g. every level of an
    affine input).  Fewer than 3 usable levels is an error, as is a ladder
    whose deepest radius the grid cannot resolve.
    """
    grid = u.grid
    center = tuple(float(c) for c in center)
    if radius0 <= 0:
        raise ValueError("radius0 must be positive")
    if cfg.lam**cfg.levels * radius0 < MIN_RADIUS_NODES * grid.h * (1 - 1e-12):
        raise ValueError("resolution floor violated: lam^K radius0 < %d h" % MIN_RADIUS_NODES)
    tiny = 100.0 * np.finfo(float).eps * u.sup_norm()
    radii, psis, usable, pivots = [], [], [], []
    for k in range(cfg.levels + 1):
        r = radius0 * cfg.lam**k
        fit = best_affine(u, Ball(center, r))
        radii.append(r)
        psis.append(fit.width)
        usable.append(fit.width > tiny)
        pivots.append(fit.iterations)
    good = [k for k, f in enumerate(usable) if f]
    if len(good) < 3:
        raise CertificationError("fewer than 3 usable levels")
    lr = np.log(np.asarray(radii)[good])
    lp = np.log(np.asarray(psis)[good])
    slope = _slope_fit(lr, lp)
    loo = [_slope_fit(np.delete(lr, i), np.delete(lp, i)) for i in range(len(good))] \
        if len(good) > 3 else [slope]
    spread = max(abs(s - slope) for s in loo)
    phis = [p / r ** (1.0 + cfg.beta) for p, r in zip(psis, radii)]
    return DecayProfile(center, cfg.lam, cfg.beta, radius0, tuple(radii),
                        tuple(psis), tuple(phis), tuple(bool(f) for f in usable),
                        slope, slope - 1.0, cfg.sigma, float(spread), tuple(pivots))


def verify_decay_chain(profile: DecayProfile) -> list:
    """Check Phi(r_k) <= C(lam) 2^-k Phi(r_0) level by level,
    C(lam) = lam^(-1-beta).  Returns (level, phi, bound, ok) tuples."""
    c_lam = profile.lam ** (-(1.0 + profile.beta))
    phi0 = profile.phi[0]
    out = []
    for k in range(len(profile.phi)):
        bound = c_lam * 2.0**-k * phi0
        ok = profile.phi[k] <= bound * (1.0 + CHAIN_REL_TOL) + 1e-300
        out.append((k, profile.phi[k], bound, bool(ok)))
    return out


@dataclass(frozen=True, eq=False)
class RescaleState:
    level: int
    q: tuple  # accumulated slope correction, original coordinates
    u: GridFunction  # the zoomed copy on the fixed unit-ball grid
    osc: float  # its oscillation over B(0, 1)


@dataclass(frozen=True, eq=False)
class RescaleSequence:
    states: tuple
    truncated: bool  # resolution ran out before the requested level
    requested: int


def rescale_sequence(u: GridFunction, cfg: DecayConfig,
                     levels: Optional[int] = None) -> RescaleSequence:
    """Blow-up copies u_k at scales lam^k, resampled on a fixed unit grid.

    u must contain the unit ball with osc_{B(0,1)} u < 1 (error otherwise) —
    run ``normalize`` first.  Every level resamples the *original* u
    (bilinear), never the previous zoom, so interpolation error does not
    compound; the previous zoom is used only to fit the slope correction.
    The zoom is the lattice lam^k * unit, so it goes through ``resample``:
    the values are the multilinear interpolant of u at lam^k * unit.points().
    Along an axis where that lattice steps through u's nodes by an integral
    stride (u finite, as ``normalize`` returns it; on [-1, 1]^2 with 1025
    source and 65 unit nodes and lam = 1/4, strides 16, 4 and 1 at k = 0, 1,
    2), ``resample`` gathers those nodes instead of interpolating them.
    Levels the grid cannot resolve (lam^k < MIN_RADIUS_NODES h) are not
    fabricated: the list truncates and says so.
    """
    levels = cfg.levels if levels is None else int(levels)
    grid = u.grid
    n = grid.ndim
    unit = square_grid(65, ndim=n)
    unit_pts = unit.points()
    unit_ball = Ball((0.0,) * n, 1.0)
    entry_osc = oscillation(u, unit_ball)
    if not entry_osc < 1.0:
        raise ValueError("oscillation over the unit ball must be < 1 (got %g)" % entry_osc)
    floor = MIN_RADIUS_NODES * grid.h

    states = []
    truncated = False
    q = np.zeros(n)
    for k in range(levels + 1):
        r = cfg.lam**k
        if r < floor * (1 - 1e-12):
            truncated = True
            break
        amp = 2.0**k * cfg.lam ** (-k * (1.0 + cfg.beta))
        vals = amp * (resample(u, unit, r) - (r * unit_pts) @ q)
        uk = GridFunction(unit, vals)
        states.append(RescaleState(k, tuple(q.tolist()), uk,
                                   float(oscillation(uk, unit_ball))))
        if k == levels:
            break
        fit = best_affine(uk, Ball((0.0,) * n, cfg.lam))
        q = q + fit.slope * (2.0**-k * cfg.lam ** (k * cfg.beta))
    return RescaleSequence(tuple(states), truncated, levels)


def normalize(u: GridFunction, radius: float, lam: float, eps: float,
              unit_nodes: int = 65):
    """kappa-rescaling onto the unit ball: returns (u_scaled, kappa) with
    u_scaled(x) = u(radius x) / kappa on B(0, 1) and

        kappa = lam/eps + radius^2 + osc_{B(0,radius)} u + 1.

    By construction osc_{B(0,1)} of the result is < 1, and for an operator
    that is 1-homogeneous, bounds |F_h(u)| <= lam turn into
    |F_h(u_scaled)| <= radius^2 lam / kappa <= eps whenever radius <= 1.
    u(radius x) is sampled on the unit lattice through ``resample``: the
    multilinear interpolant of u at radius * unit.points().  When
    radius * unit lands on u's nodes along an axis and u is finite (radius
    = 1 with the unit lattice u's own, say), that axis is a gather of those
    nodes, not an interpolation: the identity zoom is a copy.
    """
    # NaN fails every comparison, so these refuse it too
    if not (eps > 0 and radius > 0):
        raise ValueError("radius and eps must be positive, got %r and %r" % (radius, eps))
    if not 0 <= lam < math.inf:
        raise ValueError("lam is a magnitude bound and must be finite and >= 0, got %r" % lam)
    grid = u.grid
    n = grid.ndim
    osc0 = oscillation(u, Ball((0.0,) * n, radius))
    kappa = lam / eps + radius**2 + osc0 + 1.0
    unit = square_grid(unit_nodes, ndim=n)
    vals = resample(u, unit, radius) / kappa
    return GridFunction(unit, vals), float(kappa)
