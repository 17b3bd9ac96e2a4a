"""Uniformly elliptic operators acting on symmetric matrices.

Built-in kinds: trace, a fixed linear operator <A, M>, the Pucci extremal
operators, and a max of finitely many linear operators.  All are positively
1-homogeneous and uniformly elliptic with constants 0 < lam1 <= lam2; the
randomized checkers below verify both properties sample-wise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grids import SymMatrix, _spectrum

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


def linear_operator(a) -> EllipticOperator:
    """F(M) = <A, M> for a fixed symmetric positive definite A; its
    ellipticity constants are A's extreme eigenvalues."""
    sym = SymMatrix(np.asarray(a, dtype=float))
    a, eigs = sym.mat, sym.eigenvalues()
    if eigs[0] <= 0:
        raise ValueError("linear operator matrix must be positive definite")
    return EllipticOperator("linear", EllipticityParams(float(eigs[0]), float(eigs[-1])), (a,))


def pucci_max(lam1: float, lam2: float) -> EllipticOperator:
    return EllipticOperator("pucci_max", EllipticityParams(lam1, lam2))


def pucci_min(lam1: float, lam2: float) -> EllipticOperator:
    return EllipticOperator("pucci_min", EllipticityParams(lam1, lam2))


def max_of_linear(mats) -> EllipticOperator:
    """F(M) = max_j <A_j, M> over a finite family of SPD matrices; its
    ellipticity constants are the family's extreme eigenvalues."""
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
    return EllipticOperator("max_of_linear", EllipticityParams(lo, hi), mats)


def op_eval(op: EllipticOperator, m):
    """Evaluate the operator on one symmetric matrix (a float) or on a stack
    of them, shape (..., n, n) (an array of shape (...))."""
    a = m.mat if isinstance(m, SymMatrix) else np.asarray(m, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("matrix must be square")
    # |a_ij - a_ji| against 1e-12 (1 + max |a_ij|), entry slice by entry slice
    n = a.shape[-1]
    size = functools.reduce(np.maximum, (np.abs(a[..., i, j])
                                         for i in range(n) for j in range(n)), 0.0)
    skew = functools.reduce(np.maximum, (np.abs(a[..., i, j] - a[..., j, i])
                                         for i in range(n) for j in range(i + 1, n)), 0.0)
    if np.any(skew > 1e-12 * (1.0 + size)):
        raise ValueError("matrix is not symmetric")
    if op.kind == "trace":
        out = np.trace(a, axis1=-2, axis2=-1)
    elif op.kind in ("linear", "max_of_linear"):
        if a.shape[-2:] != op.mats[0].shape:
            raise ValueError("matrix dimension mismatch")
        out = _inner(op.mats[0], a)
        for mat in op.mats[1:]:
            out = np.maximum(out, _inner(mat, a))
    elif op.kind in ("pucci_max", "pucci_min"):
        lam1, lam2 = op.params.lam1, op.params.lam2
        up, down = (lam2, lam1) if op.kind == "pucci_max" else (lam1, lam2)
        eigs = _spectrum(a)
        out = np.sum(np.where(eigs > 0, up * eigs, down * eigs), axis=-1)
    else:
        raise ValueError(f"unknown operator kind {op.kind!r}")
    return float(out) if a.ndim == 2 else out


def _inner(a, m):
    """<A, M> for stacked symmetric M, summed over the upper triangle with the
    off-diagonal terms doubled."""
    n = a.shape[0]
    out = 0.0
    for i in range(n):
        for j in range(i, n):
            out = out + (a[i, j] if i == j else 2.0 * a[i, j]) * m[..., i, j]
    return out


# -- randomized property checks ------------------------------------------------


@dataclass(frozen=True)
class PropertyReport:
    name: str
    passed: bool
    worst_violation: float
    worst_normalized: float
    samples: int
    seed: int


def _stacked(op):
    """The operator as a function of stacked matrices; a bare callable on one
    matrix is mapped over the stack."""
    if isinstance(op, EllipticOperator):
        return lambda ms: op_eval(op, ms)
    if callable(op):
        return lambda ms: np.array([op(m) for m in ms], dtype=float)
    raise TypeError("operator must be an EllipticOperator or a callable on matrices")


def _symmetrized(g):
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _report(name, violation, scale, sample_count, seed):
    worst = float(np.max(violation, initial=-math.inf))
    worst_norm = float(np.max(violation / scale, initial=-math.inf))
    return PropertyReport(name=name, passed=bool(worst_norm <= 1e-10),
                          worst_violation=worst, worst_normalized=worst_norm,
                          samples=sample_count, seed=seed)


# Samples are drawn in one block of uniforms on [0, 1) and scaled as
# low + (high - low) r, numpy's own uniform formula, so each check sees the
# stream a per-sample rng.uniform loop would see, in the same order.


def check_uniform_ellipticity(op, params: EllipticityParams | None = None,
                              sample_count: int = 10_000, seed: int = 0,
                              dim: int = 2) -> PropertyReport:
    """Sample (M, N >= 0) pairs and test lam1 tr N <= F(M+N) - F(M) <= lam2 tr N.

    M has uniform entries on [-3, 3] and N = G'G with G uniform on [-1.5, 1.5],
    both symmetrized.  Per-sample tolerance is 1e-10 * (1 + |tr N|); the
    report carries the worst signed violation and the worst violation
    normalized by that scale.
    """
    if params is None:
        if not isinstance(op, EllipticOperator):
            raise ValueError("params are required for a bare callable")
        params = op.params
    f = _stacked(op)
    r = np.random.default_rng(seed).random((sample_count, 2, dim, dim))
    m = _symmetrized(-3.0 + 6.0 * r[:, 0])
    g = -1.5 + 3.0 * r[:, 1]
    n = np.empty_like(g)  # G'G, symmetric as built: (G'G)_ij = sum_k g_ki g_kj
    for i in range(dim):
        for j in range(i, dim):
            n[:, i, j] = n[:, j, i] = sum(g[:, k, i] * g[:, k, j] for k in range(dim))
    trn = np.trace(n, axis1=-2, axis2=-1)
    df = f(m + n) - f(m)
    violation = np.maximum(params.lam1 * trn - df, df - params.lam2 * trn)
    return _report("uniform_ellipticity", violation, 1.0 + np.abs(trn),
                   sample_count, seed)


def check_homogeneity(op, sample_count: int = 10_000, seed: int = 0,
                      dim: int = 2) -> PropertyReport:
    """Test positive 1-homogeneity F(sigma N) = sigma F(N) for sigma in (0, 10]."""
    f = _stacked(op)
    r = np.random.default_rng(seed).random((sample_count, dim * dim + 1))
    n = _symmetrized(-3.0 + 6.0 * r[:, :-1].reshape(-1, dim, dim))
    sigma = np.maximum(10.0 * r[:, -1], 1e-12)
    lhs = f(sigma[:, None, None] * n)
    rhs = sigma * f(n)
    return _report("homogeneity", np.abs(lhs - rhs), 1.0 + np.abs(rhs),
                   sample_count, seed)


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
