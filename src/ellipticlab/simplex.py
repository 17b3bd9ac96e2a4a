"""Minimax affine fitting via a revised simplex on the equilibration dual.

For samples (x_i, u_i) we want the slope q minimizing the band width

    w(q) = max_i (u_i - q . x_i) - min_i (u_i - q . x_i),

a piecewise-linear convex program.  Its LP dual asks for two probability
vectors lam, mu over the samples with equal barycenters, maximizing
sum (mu_i - lam_i) u_i; the equality multipliers at the optimum recover
(q, band).  The dual has only n + 2 equality rows, so the basis stays tiny
no matter how many samples there are.  The samples are read coordinate-major,
one contiguous row of N values per axis: a pivot prices every column with one
mat-vec over those n rows, and nothing of size N x N is ever formed.

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


def _spanning_subset(xt: np.ndarray) -> list:
    """Indices of n+1 affinely independent samples (greedy Gram-Schmidt on
    the coordinate rows ``xt``, shape (n, N))."""
    n = xt.shape[0]
    scale = max(float(xt.max()), -float(xt.min())) + 1.0
    chosen = [int(np.argmax(np.einsum("ij,ij->j", xt, xt)))]  # any point works
    rel = xt - xt[:, chosen[0], None]  # offsets from the first sample
    for k in range(n):
        norms = np.einsum("ij,ij->j", rel, rel)
        j = int(np.argmax(norms))
        if norms[j] <= (1e-9 * scale) ** 2:
            raise ValueError("affine fit underdetermined: samples span a lower-dimensional set")
        chosen.append(j)
        if k < n - 1:  # remove the new direction from every offset
            b = rel[:, j] / np.sqrt(norms[j])
            rel -= np.outer(b, b @ rel)
    return chosen


def _column(xt: np.ndarray, j: int) -> np.ndarray:
    """Column j of the dual: (x_j, 1, 0) for j < N, else (-x_{j-N}, 0, 1)."""
    n, big = xt.shape
    col = np.zeros(n + 2)
    col[:n] = xt[:, j] if j < big else -xt[:, j - big]
    col[n if j < big else n + 1] = 1.0
    return col


def minimax_affine(points, values) -> MinimaxFit:
    """Best uniform affine approximation of scattered samples.

    Returns the optimal slope q and the band width, the spread of the
    residuals u_i - q . x_i, which is the minimized quantity; the Chebyshev
    fit is q . x plus the midpoint of the residuals.  The (N, n) points are
    read by coordinate: free for a coordinate-major cloud (``Grid.points``),
    one transposing copy for a row-major one.
    """
    x = np.asarray(points, dtype=float)
    u = np.ascontiguousarray(values, dtype=float).reshape(-1)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] != u.size:
        raise ValueError("points must be (N, n) with one value per point")
    xt = np.ascontiguousarray(x.T)  # (n, N): one contiguous row per coordinate
    if not (np.all(np.isfinite(xt)) and np.all(np.isfinite(u))):
        raise ValueError("samples must be finite")
    n, big = xt.shape
    if big < n + 1:
        raise ValueError("affine fit underdetermined: samples span a lower-dimensional set")

    span = _spanning_subset(xt)
    basis = list(span) + [span[0] + big]
    bmat = np.column_stack([_column(xt, j) for j in basis])
    b_eq = np.zeros(n + 2)
    b_eq[n:] = 1.0
    xb = np.linalg.solve(bmat, b_eq)
    costs_b = np.array([u[j] if j < big else -u[j - big] for j in basis])

    rc_tol = 1e-12 * (1.0 + max(float(u.max()), -float(u.min())))
    piv_tol = 1e-11
    degenerate_run = 0
    resid, rc_lo, rc_hi = np.empty((3, big))  # rewritten by every pricing
    for it in range(1, _MAX_PIVOTS + 1):
        y = np.linalg.solve(bmat.T, costs_b)
        q = y[:n]
        # pricing reads the n coordinate rows once, in one mat-vec, and
        # writes the residuals and both blocks' reduced costs in place
        np.subtract(u, np.matmul(q, xt, out=resid), out=resid)
        np.subtract(resid, y[n], out=rc_lo)  # lambda columns
        np.subtract(-y[n + 1], resid, out=rc_hi)  # mu columns: -resid - y[n+1]
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

        col = _column(xt, entering)
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
