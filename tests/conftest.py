import numpy as np
import pytest
from scipy.optimize import linprog

from ellipticlab import Domain, Grid, GridFunction


def unit_square_grid(res=33, half=1.0, ndim=2):
    return Grid(Domain((-half,) * ndim, (half,) * ndim), (res,) * ndim)


def field(grid, fn):
    """Sample a callable over flat (N, n) points into a GridFunction."""
    return GridFunction.from_callable(grid, fn)


def quadratic_field(grid, mat, p=None, c=0.0):
    """x -> 0.5 x.M.x + p.x + c as a GridFunction (exact on any grid)."""
    m = np.asarray(mat, dtype=float)
    p = np.zeros(grid.ndim) if p is None else np.asarray(p, dtype=float)

    def fn(pts):
        return 0.5 * np.einsum("ni,ij,nj->n", pts, m, pts) + pts @ p + c

    return field(grid, fn)


def affine_residual_width(points, values, q):
    """(max - min) of u - q.x over the samples."""
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    r = np.asarray(values, dtype=float) - x @ np.asarray(q, dtype=float)
    return float(r.max() - r.min())


def dense_minimax_width(points, values, q_box=8.0, rounds=60, pts_per_axis=31):
    """Nested grid search for min_q (max - min)(u - q.x).

    Deliberately independent of the simplex solver.  The window shrinks while
    the incumbent stays strictly interior and expands again whenever the argmin
    lands on the window edge, so an off-center valley cannot strand the search
    after the window has already collapsed (the objective is convex, which
    makes this adaptive pattern search globally convergent).
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    u = np.asarray(values, dtype=float)
    n = x.shape[1]
    center = np.zeros(n)
    half = float(q_box)
    best_w = np.inf
    for _ in range(rounds):
        axes = [np.linspace(center[a] - half, center[a] + half, pts_per_axis)
                for a in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        resid = u[None, :] - mesh @ x.T
        widths = resid.max(axis=1) - resid.min(axis=1)
        k = int(np.argmin(widths))
        best_w = min(best_w, float(widths[k]))
        multi = np.unravel_index(k, (pts_per_axis,) * n)
        on_edge = any(i == 0 or i == pts_per_axis - 1 for i in multi)
        center = mesh[k]
        half = min(half * 2.5, float(q_box)) if on_edge else half * 0.4
    return center, best_w


def lp_minimax_width(points, values):
    """min_q (max - min)(u - q.x) as a linear program solved by HiGHS.

    Variables (q, t_lo, t_hi) minimize t_hi - t_lo subject to
    t_lo <= u_i - q.x_i <= t_hi.  The width is then read off the samples at
    HiGHS's optimal slope, so solver tolerances do not blur it.  Independent
    of the package's simplex.
    """
    x = np.asarray(points, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    u = np.asarray(values, dtype=float)
    count, n = x.shape
    cost = np.zeros(n + 2)
    cost[n], cost[n + 1] = -1.0, 1.0
    ones = np.ones((count, 1))
    zeros = np.zeros((count, 1))
    a_ub = np.vstack([np.hstack([-x, zeros, -ones]),   # u_i - q.x_i <= t_hi
                      np.hstack([x, ones, zeros])])    # t_lo <= u_i - q.x_i
    b_ub = np.concatenate([-u, u])
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * (n + 2),
                  method="highs")
    assert res.status == 0, res.message
    return affine_residual_width(x, u, res.x[:n])


@pytest.fixture
def grid33():
    return unit_square_grid(33)


@pytest.fixture
def grid65():
    return unit_square_grid(65)
