"""Discrete viscosity certification of -Lam_lo <= F(D^2 u) <= Lam_hi.

Two schemes are exposed.  ``check_pointwise`` evaluates the discrete operator
on u directly — the right tool for solver output, meaningless for kinked
data.  ``check_touching`` never differentiates u: it tries a dictionary of
quadratic test functions phi(x) = u(x0) + p.(x-x0) + (1/2)(x-x0)' M (x-x0)
and, whenever phi - u attains its maximum over the rho-neighborhood at x0
(within slack h^2, since discrete maxima are resolution-limited), requires
F(M) <= Lam_hi; minima symmetrically require F(M) >= Lam_lo.  That is the
comparison-with-smooth-functions definition made finite.

The neighborhood radius rho should stay O(1) as the grid refines: with the
h^2 trigger slack, a radius of a few h lets parabolas with O(1) opening slip
through the slack and produce false failures.  The dictionary builder
uses 1/8 of the shortest domain extent, floored at 4h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction
from .operators import EllipticOperator, op_eval
from .stencils import discrete_hessian, eval_discrete, operator_margin

__all__ = [
    "Bounds",
    "TouchingDictionary",
    "ViscosityReport",
    "default_tolerance",
    "check_pointwise",
    "check_touching",
    "make_touching_dictionary",
    "quartic_perturb",
    "LimitStabilityReport",
    "limit_stability_experiment",
]

TRIGGER_SLACK = 1.0  # multiplies h^2 when deciding "attains its maximum"


@dataclass(frozen=True)
class Bounds:
    lam_lo: float
    lam_hi: float

    def __post_init__(self):
        if not -math.inf < self.lam_lo <= self.lam_hi < math.inf:
            raise ValueError("bounds must be finite with lam_lo <= lam_hi, got %r and %r"
                             % (self.lam_lo, self.lam_hi))

    @classmethod
    def symmetric(cls, lam: float) -> "Bounds":
        """[-lam, lam]; lam is a magnitude, so a negative one is refused."""
        if lam < 0:
            raise ValueError("a symmetric bound must be >= 0, got %r" % lam)
        return cls(-lam, lam)


@dataclass(frozen=True, eq=False)
class TouchingDictionary:
    """Candidate quadratics as arrays.  At node ``nodes[k]`` every gradient
    ``grads[k, g]`` meets every Hessian ``hessians[k] -/+ shifts[l] I``, the
    lower one tried from below (phi - u maximal at the node), the upper one
    from above; ``len`` counts these K (2n+1) L 2 candidates."""

    nodes: np.ndarray  # (K,) flat node indices
    grads: np.ndarray  # (K, 2n+1, n): central difference, then +/- h e_i
    hessians: np.ndarray  # (K, n, n): discrete Hessians
    shifts: np.ndarray  # (L,): 0, then h, 2h, 4h, ... up through the first >= 1
    rho: float  # neighborhood radius (physical units)

    def __len__(self):
        return self.nodes.size * self.grads.shape[1] * self.shifts.size * 2


@dataclass(frozen=True, eq=False)
class ViscosityReport:
    scheme: str  # "pointwise" | "touching"
    passed: bool
    worst_upper: float  # max of F - lam_hi over checked entities
    worst_lower: float  # max of lam_lo - F
    tolerance: float
    node_indices: np.ndarray  # flat indices of nodes with a verdict
    node_upper: np.ndarray  # per-node worst upper margin (-inf if untested)
    node_lower: np.ndarray
    verdicts: np.ndarray  # per-node bool
    triggered: int = 0  # touching only: how many candidates fired
    candidates: int = 0  # touching only: how many candidates were tried

    @property
    def worst_node(self) -> int:
        """Flat index of the node with the largest margin, -1 if none has one."""
        if self.node_indices.size == 0:
            return -1
        margin = np.maximum(self.node_upper, self.node_lower)
        k = int(np.argmax(margin))
        return int(self.node_indices[k]) if np.isfinite(margin[k]) else -1


def default_tolerance(op: EllipticOperator, u: GridFunction) -> float:
    """c0 * h with c0 = 10 lam2 (1 + sup|u|)."""
    return 10.0 * op.params.lam2 * (1.0 + u.sup_norm()) * u.grid.h


def _finish(scheme, tol, idx, upper, lower, triggered=0, candidates=0):
    verdicts = (upper <= tol) & (lower <= tol)
    w_up = float(np.max(upper)) if idx.size else float("-inf")
    w_lo = float(np.max(lower)) if idx.size else float("-inf")
    passed = bool(w_up <= tol and w_lo <= tol)
    return ViscosityReport(scheme, passed, w_up, w_lo, tol,
                           idx, upper, lower, verdicts, triggered, candidates)


def check_pointwise(u: GridFunction, op: EllipticOperator, bounds: Bounds,
                    tol: float | None = None) -> ViscosityReport:
    """Evaluate F_h(u) on interior nodes and check membership in
    [lam_lo - tol, lam_hi + tol]; tol defaults to c0 h."""
    grid = u.grid
    if tol is None:
        tol = default_tolerance(op, u)
    idx = np.flatnonzero(grid.interior_mask(operator_margin(op, grid.ndim)))
    vals = eval_discrete(op, u).values[idx]
    upper = vals - bounds.lam_hi
    lower = bounds.lam_lo - vals
    return _finish("pointwise", tol, idx, upper, lower)


def _shift_ladder(h: float) -> np.ndarray:
    """Geometric Hessian shifts {h, 2h, 4h, ...} up through the first >= 1."""
    out = [0.0]
    s = h
    while True:
        out.append(s)
        if s >= 1.0:
            break
        s *= 2.0
    return np.array(out)


def _ball_offsets(grid, rho: float) -> np.ndarray:
    """Integer lattice offsets (excluding 0) with |d| h <= rho."""
    m = int(math.floor(rho / grid.h + 1e-9))
    offs = (np.indices((2 * m + 1,) * grid.ndim) - m)[::-1].reshape(grid.ndim, -1)
    d2 = np.einsum("ij,ij->j", offs, offs)
    keep = (d2 > 0) & (d2 <= (rho / grid.h) ** 2 * (1 + 1e-12))
    return offs[:, keep].T


def _require_inside(grid, nodes, reach):
    """Every node's reach-ball of nodes must stay inside the grid."""
    outside = ~grid.interior_mask(reach)[nodes]
    if outside.any():
        flat = nodes[np.argmax(outside)]
        multi = tuple(int(i) for i in np.unravel_index(flat, grid.shape, order="F"))
        raise ValueError("touching ball exits domain at node %r" % (multi,))


def make_touching_dictionary(u: GridFunction, node_budget: int) -> TouchingDictionary:
    """Deterministic test dictionary: at each selected node, gradients from
    the central difference +/- h e_i and Hessians from discrete_hessian
    shifted by +/- s I over a geometric ladder of s.

    The radius rho is 1/8 of the shortest domain extent, floored at 4h; the
    nodes are at most ``node_budget`` spread evenly, first to last, over all
    nodes whose rho-ball stays inside the domain.
    """
    grid = u.grid
    h = grid.h
    n = grid.ndim
    extent = min(grid.domain.extent(a) for a in range(n))
    rho = max(0.125 * extent, 4.0 * h)
    margin = int(math.ceil(rho / h - 1e-9))
    eligible = np.flatnonzero(grid.interior_mask(margin))
    if eligible.size == 0:
        raise ValueError("no node has its touching ball inside the domain")
    k = min(node_budget, eligible.size)
    flat = eligible[np.arange(k) * (eligible.size - 1) // max(k - 1, 1)]

    grads = np.empty((flat.size, 2 * n + 1, n))
    for a, stride in enumerate(grid.strides):
        grads[:, :, a] = ((u.values[flat + stride] - u.values[flat - stride])
                          / (2.0 * h))[:, None]
        grads[:, 1 + 2 * a, a] += h
        grads[:, 2 + 2 * a, a] -= h
    hessians = np.empty((flat.size, n, n))
    for (i, j), comp in discrete_hessian(u).items():
        hessians[:, i, j] = hessians[:, j, i] = comp.ravel()[flat]
    return TouchingDictionary(flat, grads, hessians, _shift_ladder(h), float(rho))


# entries per temporary array in check_touching (2 MB of float64)
_TOUCH_BLOCK = 1 << 18


def check_touching(u: GridFunction, op: EllipticOperator, bounds: Bounds,
                   dictionary: TouchingDictionary,
                   tol: float | None = None) -> ViscosityReport:
    """Run every touching candidate; triggered maxima must respect lam_hi,
    triggered minima lam_lo.  Verdict tolerance defaults to c0 h.

    Relative to the node x0, phi - u at x0 + d is
    p.d + d'M0 d/2 -/+ s|d|^2/2 - (u(x0 + d) - u(x0)); a candidate fires when
    that is at most h^2 over the rho-ball (from below), or at least -h^2
    (from above).  Nodes are processed in blocks of bounded size.
    """
    if len(dictionary) == 0:
        raise ValueError("touching dictionary is empty")
    grid = u.grid
    h = grid.h
    n = grid.ndim
    if tol is None:
        tol = default_tolerance(op, u)
    slack = TRIGGER_SLACK * h * h
    if dictionary.rho < 2.0 * h * (1 - 1e-12):
        raise ValueError("touching radius under-resolved: need rho >= 2h")
    offs = _ball_offsets(grid, dictionary.rho)
    _require_inside(grid, dictionary.nodes, int(np.max(np.abs(offs))))
    delta = offs * h  # physical offsets, (B, n)
    flat_off = offs @ grid.strides
    quad = 0.5 * delta[:, :, None] * delta[:, None, :]  # (B, n, n)
    bowl = 0.5 * dictionary.shifts[:, None] * np.sum(delta * delta, axis=1)  # (L, B)

    # F on the shifted Hessians, (K, L) from below and from above
    eye = np.eye(n)
    shift = dictionary.shifts[None, :, None, None] * eye
    m0 = dictionary.hessians[:, None]
    f_below = op_eval(op, m0 - shift)
    f_above = op_eval(op, m0 + shift)

    k_all, g_count = dictionary.grads.shape[:2]
    fired_below = np.empty((k_all, dictionary.shifts.size), dtype=bool)
    fired_above = np.empty_like(fired_below)
    triggered = 0
    block = max(1, _TOUCH_BLOCK // (g_count * bowl.size))
    for start in range(0, k_all, block):
        part = slice(start, start + block)
        nodes = dictionary.nodes[part]
        du = u.values[nodes[:, None] + flat_off[None, :]] - u.values[nodes][:, None]
        hess = dictionary.hessians[part]
        curv = sum(hess[:, i, j, None] * quad[None, :, i, j]
                   for i in range(n) for j in range(n))
        grads = dictionary.grads[part]
        slope = sum(grads[:, :, a, None] * delta[None, None, :, a] for a in range(n))
        base = (slope + (curv - du)[:, None, :])[:, :, None, :]  # (k, G, 1, B)
        below = (base - bowl).max(axis=-1) <= slack  # (k, G, L)
        above = (base + bowl).min(axis=-1) >= -slack
        triggered += int(np.count_nonzero(below)) + int(np.count_nonzero(above))
        fired_below[part] = below.any(axis=1)
        fired_above[part] = above.any(axis=1)

    row_upper = np.where(fired_below, f_below - bounds.lam_hi, -np.inf).max(axis=1)
    row_lower = np.where(fired_above, bounds.lam_lo - f_above, -np.inf).max(axis=1)
    idx, row = np.unique(dictionary.nodes, return_inverse=True)
    upper = np.full(idx.size, -np.inf)
    lower = np.full(idx.size, -np.inf)
    np.maximum.at(upper, row, row_upper)
    np.maximum.at(lower, row, row_lower)
    return _finish("touching", tol, idx, upper, lower, triggered, len(dictionary))


def quartic_perturb(phi: GridFunction, x0) -> GridFunction:
    """phi - |x - x0|^4: localizes maxima without moving value/gradient/Hessian
    at x0 (the quartic vanishes to third order there)."""
    d = phi.grid.points().T - np.asarray(x0, dtype=float)[:, None]
    r2 = np.einsum("ij,ij->j", d, d)
    return phi.with_values(phi.values - r2 * r2)


@dataclass(frozen=True, eq=False)
class LimitStabilityReport:
    lam_seq: tuple
    lam_limit: float
    deltas: tuple  # delta_k = sup_{j>=k} |lam_j - lam_limit| + c0 h
    self_pass: tuple  # each u_k pointwise-certified for (-lam_k, lam_k)
    pointwise_pass: tuple  # u_inf vs widened bounds, per k
    touching_pass: tuple
    passed: bool


# the node budgets of the touching dictionaries that certify a stored
# solution (``visc``) and the limit
VISC_NODE_BUDGET = 400
LIMIT_NODE_BUDGET = 300


def limit_stability_experiment(generator, k_max: int, op: EllipticOperator,
                               u_limit: GridFunction, lam_limit: float) -> LimitStabilityReport:
    """Stability of certificates under locally uniform limits.

    The generator maps k = 1..k_max to (u_k, lam_k), each certified for
    symmetric bounds (-lam_k, lam_k); the limit is then certified with every tail bound
    lam_limit + delta_k, delta_k = sup_{j>=k} |lam_j - lam_limit| + c0 h.
    Deltas are nonincreasing by construction (monotone reporting).
    """
    pairs = [generator(k) for k in range(1, k_max + 1)]
    us = [p[0] for p in pairs]
    lams = [float(p[1]) for p in pairs]
    u_inf, lam_inf = u_limit, float(lam_limit)

    c0h = default_tolerance(op, u_inf)
    gaps = [abs(l - lam_inf) for l in lams]
    deltas = [max(gaps[k:]) + c0h for k in range(len(gaps))]

    self_pass = tuple(
        check_pointwise(uk, op, Bounds.symmetric(lk)).passed
        for uk, lk in zip(us, lams)
    )
    base_pw = check_pointwise(u_inf, op, Bounds.symmetric(lam_inf))
    dictionary = make_touching_dictionary(u_inf, node_budget=LIMIT_NODE_BUDGET)
    base_tt = check_touching(u_inf, op, Bounds.symmetric(lam_inf), dictionary)
    # widening the bounds by delta shifts every violation down by delta
    pw_pass = tuple(bool(max(base_pw.worst_upper, base_pw.worst_lower) - d
                         <= base_pw.tolerance) for d in deltas)
    tt_pass = tuple(bool(max(base_tt.worst_upper, base_tt.worst_lower) - d
                         <= base_tt.tolerance) for d in deltas)
    passed = all(self_pass) and all(pw_pass) and all(tt_pass)
    return LimitStabilityReport(tuple(lams), lam_inf, tuple(deltas),
                                self_pass, pw_pass, tt_pass, bool(passed))
