"""Computations made apart from ellipticlab that the benchmark checks its
outputs against: lattice coordinates, the 5-point Laplacian, a sparse direct
Poisson solve, a linear-programming minimax fit, and parsers for the files
the command line writes.  None of them calls into the package.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import spsolve


def square_lattice(n: int, half_width: float = 1.0):
    """Coordinates (x, y) of the n x n lattice on [-a, a]^2 as (ny, nx) arrays."""
    c = -half_width + np.arange(n) * (2.0 * half_width / (n - 1))
    y, x = np.meshgrid(c, c, indexing="ij")
    return x, y


def laplacian_5pt(lat: np.ndarray, h: float) -> np.ndarray:
    """The 5-point Laplacian on the interior nodes, shape (ny - 2, nx - 2)."""
    return (lat[1:-1, 2:] + lat[1:-1, :-2] + lat[2:, 1:-1] + lat[:-2, 1:-1]
            - 4.0 * lat[1:-1, 1:-1]) / (h * h)


def poisson_dirichlet(n: int, half_width: float, f: float) -> np.ndarray:
    """Solve the 5-point Laplacian = f with zero boundary values by a sparse
    direct solve; returns the (n, n) lattice."""
    m = n - 2
    h = 2.0 * half_width / (n - 1)
    t = sparse.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1])
    eye = sparse.identity(m)
    lap = (sparse.kron(eye, t) + sparse.kron(t, eye)).tocsc() / (h * h)
    inner = spsolve(lap, np.full(m * m, float(f)))
    out = np.zeros((n, n))
    out[1:-1, 1:-1] = inner.reshape(m, m)
    return out


def minimax_width(points: np.ndarray, values: np.ndarray) -> float:
    """min over slopes q of max_i (u_i - q.x_i) - min_i (u_i - q.x_i).

    Solved as the linear program min t_hi - t_lo subject to
    t_lo <= u_i - q.x_i <= t_hi by HiGHS, with constraint generation: start
    from an evenly spaced subset, add the most violated samples, repeat until
    the subset's optimum is feasible for every sample.  The width is then
    read off all samples at the final slope.
    """
    n, dim = points.shape
    active = np.zeros(n, dtype=bool)
    active[np.linspace(0, n - 1, min(n, 256)).astype(int)] = True
    cost = np.zeros(dim + 2)
    cost[dim], cost[dim + 1] = -1.0, 1.0
    scale = 1.0 + float(np.max(np.abs(values)))
    for _ in range(100):
        x, u = points[active], values[active]
        k = x.shape[0]
        # rows: -q.x - t_hi <= -u  and  q.x + t_lo <= u
        a_ub = np.block([[-x, np.zeros((k, 1)), -np.ones((k, 1))],
                         [x, np.ones((k, 1)), np.zeros((k, 1))]])
        res = linprog(cost, A_ub=a_ub, b_ub=np.concatenate([-u, u]),
                      bounds=[(None, None)] * (dim + 2), method="highs")
        if res.status != 0:
            raise ArithmeticError("linprog failed: %s" % res.message)
        q, t_lo, t_hi = res.x[:dim], res.x[dim], res.x[dim + 1]
        resid = values - points @ q
        over = np.flatnonzero((resid > t_hi + 1e-13 * scale) | (resid < t_lo - 1e-13 * scale))
        if over.size == 0:
            return float(resid.max() - resid.min())
        worst = over[np.argsort(-np.maximum(resid[over] - t_hi, t_lo - resid[over]))]
        active[worst[:64]] = True
    raise ArithmeticError("constraint generation did not settle")


def read_grid_file(path):
    """Parse the grid text format: header ``2 nx ny xmin xmax ymin ymax`` and
    one value per line, x fastest.  Returns (lattice (ny, nx), lower, upper)."""
    with open(path) as fh:
        head = fh.readline().split()
        values = np.array([float(line) for line in fh])
    if head[0] != "2" or len(head) != 7:
        raise ValueError("not a 2D grid file: %r" % head)
    nx, ny = int(head[1]), int(head[2])
    lower = (float(head[3]), float(head[5]))
    upper = (float(head[4]), float(head[6]))
    return values.reshape(ny, nx), lower, upper


def read_key_values(path) -> dict:
    """``key=value`` lines of a run manifest."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.strip().partition("=")
            if sep:
                out[key] = value
    return out


def csv_rows_and_footer(path):
    """Data rows (header excluded) and the ``# key,value`` footer of a report."""
    rows, footer = [], {}
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    for line in lines:
        cells = line.split(",")
        if cells[0].startswith("# "):
            footer[cells[0][2:]] = cells[1]
        else:
            rows.append(cells)
    return rows, footer
