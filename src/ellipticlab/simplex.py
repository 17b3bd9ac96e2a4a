"""Minimax affine fitting via a revised simplex on the equilibration dual.

For samples (x_i, u_i) we want the slope q minimizing the band width

    w(q) = max_i (u_i - q . x_i) - min_i (u_i - q . x_i),

a piecewise-linear convex program.  Its LP dual asks for two probability
vectors lam, mu over the samples with equal barycenters, maximizing
sum (mu_i - lam_i) u_i; the equality multipliers at the optimum recover
(q, band).  The dual has only n + 2 equality rows, so the basis stays tiny
no matter how many samples there are, and pricing is a single mat-vec over
the sample coordinates — nothing of size N x N is ever formed.

Columns (never materialized):  index i in [0, N)   ->  (x_i, 1, 0), cost u_i
                               index N + i         ->  (-x_i, 0, 1), cost -u_i

A feasible starting basis always exists without artificial variables: put
both unit masses on the same sample s0 and pad the lambda block with an
affinely independent spanning set, giving basic values (1, 0, ..., 0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MinimaxFit", "minimax_affine"]

_BLAND_AFTER = 40  # consecutive degenerate pivots before switching rules
_MAX_PIVOTS = 2000


@dataclass(frozen=True)
class MinimaxFit:
    slope: np.ndarray  # (n,)
    width: float  # max_i - min_i of the residuals u_i - slope . x_i at the optimum
    iterations: int


def _spanning_subset(x: np.ndarray) -> list:
    """Indices of n+1 affinely independent samples (greedy Gram-Schmidt)."""
    big, n = x.shape
    scale = float(np.max(np.abs(x))) + 1.0
    chosen = [int(np.argmax(np.einsum("ij,ij->i", x, x)))]  # any point works
    basis = []  # orthonormal directions spanning the chosen affine set
    for _ in range(n):
        rel = x - x[chosen[0]]
        for b in basis:
            rel = rel - np.outer(rel @ b, b)
        norms = np.einsum("ij,ij->i", rel, rel)
        j = int(np.argmax(norms))
        if norms[j] <= (1e-9 * scale) ** 2:
            raise ValueError(
                "affine fit underdetermined: samples span a lower-dimensional set"
            )
        chosen.append(j)
        basis.append(rel[j] / np.sqrt(norms[j]))
    return chosen


def _column(x: np.ndarray, j: int) -> np.ndarray:
    big, n = x.shape
    col = np.empty(n + 2)
    if j < big:
        col[:n] = x[j]
        col[n] = 1.0
        col[n + 1] = 0.0
    else:
        col[:n] = -x[j - big]
        col[n] = 0.0
        col[n + 1] = 1.0
    return col


def minimax_affine(points, values) -> MinimaxFit:
    """Best uniform affine approximation of scattered samples.

    Returns the optimal slope q and the band width, the spread of the
    residuals u_i - q . x_i, which is the minimized quantity; the Chebyshev
    fit is q . x plus the midpoint of the residuals.
    """
    x = np.ascontiguousarray(points, dtype=float)
    u = np.ascontiguousarray(values, dtype=float).reshape(-1)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != u.size:
        raise ValueError("points must be (N, n) with one value per point")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u))):
        raise ValueError("samples must be finite")
    big, n = x.shape
    m = n + 2
    if big < n + 1:
        raise ValueError(
            "affine fit underdetermined: samples span a lower-dimensional set"
        )

    span = _spanning_subset(x)
    basis = list(span) + [span[0] + big]
    bmat = np.column_stack([_column(x, j) for j in basis])
    b_eq = np.zeros(m)
    b_eq[n] = 1.0
    b_eq[n + 1] = 1.0
    xb = np.linalg.solve(bmat, b_eq)
    costs_b = np.array([u[j] if j < big else -u[j - big] for j in basis])

    rc_tol = 1e-12 * (1.0 + float(np.max(np.abs(u))))
    piv_tol = 1e-11
    degenerate_run = 0
    for it in range(1, _MAX_PIVOTS + 1):
        y = np.linalg.solve(bmat.T, costs_b)
        q = y[:n]
        resid = u - x @ q  # pricing mat-vec: the only O(N) work per pivot
        rc_lo = resid - y[n]  # lambda columns
        rc_hi = -resid - y[n + 1]  # mu columns
        for pos, j in enumerate(basis):  # basic columns price to exactly zero
            (rc_lo if j < big else rc_hi)[j % big] = 0.0
        if degenerate_run < _BLAND_AFTER:
            cand_lo = int(np.argmin(rc_lo))
            cand_hi = int(np.argmin(rc_hi))
            entering, rc_min = (cand_lo, rc_lo[cand_lo]) \
                if rc_lo[cand_lo] <= rc_hi[cand_hi] else (cand_hi + big, rc_hi[cand_hi])
        else:  # Bland's rule: least index with a negative reduced cost
            neg_lo = np.flatnonzero(rc_lo < -rc_tol)
            neg_hi = np.flatnonzero(rc_hi < -rc_tol)
            if neg_lo.size == 0 and neg_hi.size == 0:
                rc_min = 0.0
            else:
                entering = int(neg_lo[0]) if neg_lo.size else int(neg_hi[0]) + big
                rc_min = -np.inf
        if rc_min >= -rc_tol:
            return MinimaxFit(q.copy(), float(resid.max()) - float(resid.min()), it - 1)

        col = _column(x, entering)
        d = np.linalg.solve(bmat, col)
        rows = np.flatnonzero(d > piv_tol)
        if rows.size == 0:
            raise ArithmeticError("simplex step unbounded: numerical breakdown")
        ratios = xb[rows] / d[rows]
        best = ratios.min()
        leave_pos = int(rows[np.argmin(ratios)])
        if degenerate_run >= _BLAND_AFTER:  # smallest basis index among ties
            tied = rows[ratios <= best + piv_tol]
            leave_pos = int(min(tied, key=lambda r: basis[r]))
        degenerate_run = degenerate_run + 1 if best <= piv_tol else 0
        xb = xb - best * d
        xb[leave_pos] = best
        xb = np.maximum(xb, 0.0)
        basis[leave_pos] = entering
        bmat[:, leave_pos] = col
        costs_b[leave_pos] = u[entering] if entering < big else -u[entering - big]
    raise ArithmeticError("simplex failed to converge within %d pivots" % _MAX_PIVOTS)
