"""Uniformly elliptic operators acting on symmetric matrices.

Built-in kinds: trace, a fixed linear operator <A, M>, the Pucci extremal
operators, and a max of finitely many linear operators.  All are positively
1-homogeneous and uniformly elliptic with constants 0 < lam1 <= lam2; the
randomized checkers below verify both properties sample-wise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import SymMatrix

__all__ = [
    "EllipticityParams",
    "EllipticOperator",
    "PropertyReport",
    "trace_operator",
    "linear_operator",
    "pucci_max",
    "pucci_min",
    "max_of_linear",
    "op_eval",
    "check_uniform_ellipticity",
    "check_homogeneity",
    "parse_operator",
    "operator_spec_string",
]


@dataclass(frozen=True)
class EllipticityParams:
    """Ellipticity constants 0 < lam1 <= lam2 < inf."""

    lam1: float
    lam2: float

    def __post_init__(self):
        if not (0.0 < self.lam1 <= self.lam2 < math.inf):
            raise ValueError("need 0 < lam1 <= lam2 < inf")


@dataclass(frozen=True, eq=False)
class EllipticOperator:
    kind: str
    params: EllipticityParams
    mats: tuple = ()

    def __call__(self, m):
        return op_eval(self, m)


def trace_operator() -> EllipticOperator:
    return EllipticOperator("trace", EllipticityParams(1.0, 1.0))


def linear_operator(a, params: EllipticityParams | None = None) -> EllipticOperator:
    """F(M) = <A, M> for a fixed symmetric positive definite A."""
    sym = SymMatrix(np.asarray(a, dtype=float))
    a, eigs = sym.mat, sym.eigenvalues()
    if eigs[0] <= 0:
        raise ValueError("linear operator matrix must be positive definite")
    if params is None:
        params = EllipticityParams(float(eigs[0]), float(eigs[-1]))
    elif eigs[0] < params.lam1 - 1e-12 or eigs[-1] > params.lam2 + 1e-12:
        raise ValueError("matrix spectrum falls outside the declared ellipticity band")
    return EllipticOperator("linear", params, (a,))


def pucci_max(lam1: float, lam2: float) -> EllipticOperator:
    return EllipticOperator("pucci_max", EllipticityParams(lam1, lam2))


def pucci_min(lam1: float, lam2: float) -> EllipticOperator:
    return EllipticOperator("pucci_min", EllipticityParams(lam1, lam2))


def max_of_linear(mats, params: EllipticityParams | None = None) -> EllipticOperator:
    """F(M) = max_j <A_j, M> over a finite family of SPD matrices."""
    syms = [SymMatrix(np.asarray(a, dtype=float)) for a in mats]
    if not syms:
        raise ValueError("need at least one matrix")
    mats = tuple(s.mat for s in syms)
    lo, hi = math.inf, -math.inf
    for s in syms:
        eigs = s.eigenvalues()
        if eigs[0] <= 0:
            raise ValueError("every matrix in the family must be positive definite")
        lo, hi = min(lo, float(eigs[0])), max(hi, float(eigs[-1]))
    if params is None:
        params = EllipticityParams(lo, hi)
    return EllipticOperator("max_of_linear", params, mats)


def op_eval(op: EllipticOperator, m) -> float:
    """Evaluate the operator on one symmetric matrix."""
    sym = m if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m, dtype=float))
    a = sym.mat
    if op.kind == "trace":
        return float(np.trace(a))
    if op.kind == "linear":
        if a.shape != op.mats[0].shape:
            raise ValueError("matrix dimension mismatch")
        return float(np.sum(op.mats[0] * a))
    if op.kind == "max_of_linear":
        if a.shape != op.mats[0].shape:
            raise ValueError("matrix dimension mismatch")
        return float(max(np.sum(mat * a) for mat in op.mats))
    eigs = sym.eigenvalues()
    pos = eigs[eigs > 0].sum()
    neg = eigs[eigs < 0].sum()
    lam1, lam2 = op.params.lam1, op.params.lam2
    if op.kind == "pucci_max":
        return float(lam2 * pos + lam1 * neg)
    if op.kind == "pucci_min":
        return float(lam1 * pos + lam2 * neg)
    raise ValueError(f"unknown operator kind {op.kind!r}")


# -- vectorized 2D evaluation (shared with the finite-difference schemes) -----


def eig2_arrays(m11, m12, m22):
    """Closed-form eigenvalues of many 2x2 symmetric matrices; returns (lo, hi)."""
    mean = 0.5 * (m11 + m22)
    rad = np.hypot(0.5 * (m11 - m22), m12)
    return mean - rad, mean + rad


def op_eval_comps2(op: EllipticOperator, m11, m12, m22):
    """Vectorized evaluation on stacked 2x2 symmetric matrices."""
    if op.kind == "trace":
        return m11 + m22
    if op.kind == "linear":
        a = op.mats[0]
        return a[0, 0] * m11 + 2.0 * a[0, 1] * m12 + a[1, 1] * m22
    if op.kind == "max_of_linear":
        vals = [a[0, 0] * m11 + 2.0 * a[0, 1] * m12 + a[1, 1] * m22 for a in op.mats]
        return np.max(np.stack(vals), axis=0)
    lo, hi = eig2_arrays(m11, m12, m22)
    lam1, lam2 = op.params.lam1, op.params.lam2
    if op.kind == "pucci_max":
        return lam2 * np.maximum(hi, 0.0) + lam1 * np.minimum(hi, 0.0) \
            + lam2 * np.maximum(lo, 0.0) + lam1 * np.minimum(lo, 0.0)
    if op.kind == "pucci_min":
        return lam1 * np.maximum(hi, 0.0) + lam2 * np.minimum(hi, 0.0) \
            + lam1 * np.maximum(lo, 0.0) + lam2 * np.minimum(lo, 0.0)
    raise ValueError(f"unknown operator kind {op.kind!r}")


# -- randomized property checks ------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    name: str
    passed: bool
    worst_violation: float
    worst_normalized: float
    samples: int
    seed: int


def _op_callable(op, dim):
    if isinstance(op, EllipticOperator):
        return lambda m: op_eval(op, SymMatrix(m))
    if callable(op):
        return op
    raise TypeError("operator must be an EllipticOperator or a callable on matrices")


def _random_symmetric(rng, dim, scale):
    g = rng.uniform(-scale, scale, size=(dim, dim))
    return 0.5 * (g + g.T)


def check_uniform_ellipticity(op, params: EllipticityParams | None = None,
                              sample_count: int = 10_000, seed: int = 0,
                              dim: int = 2) -> PropertyReport:
    """Sample (M, N >= 0) pairs and test lam1 tr N <= F(M+N) - F(M) <= lam2 tr N.

    Per-sample tolerance is 1e-10 * (1 + |tr N|); the report carries the worst
    signed violation and the worst violation normalized by that scale.
    """
    if params is None:
        if not isinstance(op, EllipticOperator):
            raise ValueError("params are required for a bare callable")
        params = op.params
    rng = np.random.default_rng(seed)
    f = _op_callable(op, dim)
    worst = -math.inf
    worst_norm = -math.inf
    for _ in range(sample_count):
        m = _random_symmetric(rng, dim, 3.0)
        g = rng.uniform(-1.5, 1.5, size=(dim, dim))
        n = g.T @ g
        n = 0.5 * (n + n.T)
        trn = float(np.trace(n))
        df = f(m + n) - f(m)
        low_viol = params.lam1 * trn - df
        up_viol = df - params.lam2 * trn
        v = max(low_viol, up_viol)
        scale = 1.0 + abs(trn)
        worst = max(worst, v)
        worst_norm = max(worst_norm, v / scale)
    return PropertyReport(
        name="uniform_ellipticity",
        passed=bool(worst_norm <= 1e-10),
        worst_violation=float(worst),
        worst_normalized=float(worst_norm),
        samples=sample_count,
        seed=seed,
    )


def check_homogeneity(op, sample_count: int = 10_000, seed: int = 0,
                      dim: int = 2) -> PropertyReport:
    """Test positive 1-homogeneity F(sigma N) = sigma F(N) for sigma in (0, 10]."""
    rng = np.random.default_rng(seed)
    f = _op_callable(op, dim)
    worst = -math.inf
    worst_norm = -math.inf
    for _ in range(sample_count):
        n = _random_symmetric(rng, dim, 3.0)
        sigma = max(10.0 * rng.random(), 1e-12)
        lhs = f(sigma * n)
        rhs = sigma * f(n)
        v = abs(lhs - rhs)
        scale = 1.0 + abs(rhs)
        worst = max(worst, v)
        worst_norm = max(worst_norm, v / scale)
    return PropertyReport(
        name="homogeneity",
        passed=bool(worst_norm <= 1e-10),
        worst_violation=float(worst),
        worst_normalized=float(worst_norm),
        samples=sample_count,
        seed=seed,
    )


# -- operator spec strings ------------------------------------------------------


def parse_operator(spec: str) -> EllipticOperator:
    """Parse ``trace``, ``linear:a11,a12,a22`` or ``pucci+:l1,l2`` / ``pucci-:l1,l2``."""
    spec = spec.strip()
    head, _, tail = spec.partition(":")
    head = head.strip()
    if head == "trace":
        if tail:
            raise ValueError(f"operator 'trace' takes no arguments, got {tail!r}")
        return trace_operator()
    if head in ("linear", "pucci+", "pucci-"):
        tokens = [t.strip() for t in tail.split(",")] if tail else []
        vals = []
        for tok in tokens:
            try:
                vals.append(float(tok))
            except ValueError as exc:
                raise ValueError(f"bad numeric token {tok!r} in operator spec {spec!r}") from exc
        if head == "linear":
            if len(vals) == 1:
                return linear_operator([[vals[0]]])
            if len(vals) == 3:
                a11, a12, a22 = vals
                return linear_operator([[a11, a12], [a12, a22]])
            raise ValueError(f"'linear' needs a11,a12,a22 (or a single 1D entry), got {tail!r}")
        if len(vals) != 2:
            raise ValueError(f"{head!r} needs two ellipticity constants, got {tail!r}")
        l1, l2 = vals
        if not (0 < l1 <= l2):
            raise ValueError(f"ellipticity constants must satisfy 0 < l1 <= l2, got {tail!r}")
        return pucci_max(l1, l2) if head == "pucci+" else pucci_min(l1, l2)
    raise ValueError(f"unknown operator {head!r} in spec {spec!r}")


def operator_spec_string(op: EllipticOperator) -> str:
    if op.kind == "trace":
        return "trace"
    if op.kind == "linear":
        a = op.mats[0]
        if a.shape[0] == 1:
            return "linear:%r" % float(a[0, 0])
        return "linear:%r,%r,%r" % (float(a[0, 0]), float(a[0, 1]), float(a[1, 1]))
    if op.kind == "pucci_max":
        return "pucci+:%r,%r" % (float(op.params.lam1), float(op.params.lam2))
    if op.kind == "pucci_min":
        return "pucci-:%r,%r" % (float(op.params.lam1), float(op.params.lam2))
    return op.kind
