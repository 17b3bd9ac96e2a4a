import math

import numpy as np
import pytest
from scipy.optimize import linprog

from ellipticlab import Domain, Grid, GridFunction


def unit_square_grid(res=33, half=1.0, ndim=2):
    return Grid(Domain((-half,) * ndim, (half,) * ndim), (res,) * ndim)


def field(grid, fn):
    """Sample a callable over flat (N, n) points into a GridFunction."""
    return GridFunction.from_callable(grid, fn)


def sample_bilinear(u, points):
    """Multilinear interpolation of u at scattered points inside the domain
    box, one corner of the cell at a time: the bitwise oracle of
    ``grids.resample`` (which evaluates the same formula from per-axis
    arrays) and of criterion 2's interpolator."""
    from ellipticlab.grids import _cells

    grid = u.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != grid.ndim:
        raise ValueError("point rank mismatch")
    cells = [_cells(grid, a, pts[:, a]) for a in range(grid.ndim)]
    lattice = u.lattice()
    out = np.zeros(pts.shape[0])
    for corner in range(1 << grid.ndim):
        weight = np.ones(pts.shape[0])
        loc = [None] * grid.ndim
        for a, (i0, frac) in enumerate(cells):
            bit = (corner >> a) & 1
            weight = weight * (frac if bit else 1.0 - frac)
            loc[grid.ndim - 1 - a] = i0 + bit
        out += weight * lattice[tuple(loc)]
    return out


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


def row_major_spanning_subset(x):
    """Indices of n+1 affinely independent samples by greedy Gram-Schmidt
    over the rows of an (N, n) C-ordered cloud, one sample per row, with the
    offsets from the first sample recomputed at every step: the oracle of
    ``simplex._spanning_subset``, which reads the cloud by coordinate."""
    big, n = x.shape
    scale = float(np.max(np.abs(x))) + 1.0
    chosen = [int(np.argmax(np.einsum("ij,ij->i", x, x)))]
    basis = []
    for _ in range(n):
        rel = x - x[chosen[0]]
        for b in basis:
            rel = rel - np.outer(rel @ b, b)
        norms = np.einsum("ij,ij->i", rel, rel)
        j = int(np.argmax(norms))
        if norms[j] <= (1e-9 * scale) ** 2:
            raise ValueError("affine fit underdetermined")
        chosen.append(j)
        basis.append(rel[j] / np.sqrt(norms[j]))
    return chosen


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


# ---------------------------------------------------------------------------
# per-sample oracles for the batched certification layer


def loop_op_eval(op, m):
    """F(M) for one matrix, the textbook way: <A, M> as a full elementwise
    sum, Pucci from the LAPACK spectrum split into its positive and negative
    parts."""
    m = np.asarray(m, dtype=float)
    if op.kind == "trace":
        return float(np.trace(m))
    if op.kind in ("linear", "max_of_linear"):
        return float(max(np.sum(a * m) for a in op.mats))
    w = np.linalg.eigvalsh(m)
    pos, neg = w[w > 0].sum(), w[w < 0].sum()
    lam1, lam2 = op.params.lam1, op.params.lam2
    if op.kind == "pucci_max":
        return float(lam2 * pos + lam1 * neg)
    return float(lam1 * pos + lam2 * neg)


def loop_uniform_ellipticity(op, sample_count, seed, dim=2):
    """(passed, worst, worst normalized) of the ellipticity check, one
    rng.uniform draw and one F evaluation per sample."""
    rng = np.random.default_rng(seed)
    worst = worst_norm = -math.inf
    for _ in range(sample_count):
        g = rng.uniform(-3.0, 3.0, size=(dim, dim))
        m = 0.5 * (g + g.T)
        g = rng.uniform(-1.5, 1.5, size=(dim, dim))
        n = g.T @ g
        n = 0.5 * (n + n.T)
        trn = float(np.trace(n))
        df = loop_op_eval(op, m + n) - loop_op_eval(op, m)
        v = max(op.params.lam1 * trn - df, df - op.params.lam2 * trn)
        worst = max(worst, v)
        worst_norm = max(worst_norm, v / (1.0 + abs(trn)))
    return worst_norm <= 1e-10, worst, worst_norm


def loop_homogeneity(op, sample_count, seed, dim=2):
    rng = np.random.default_rng(seed)
    worst = worst_norm = -math.inf
    for _ in range(sample_count):
        g = rng.uniform(-3.0, 3.0, size=(dim, dim))
        n = 0.5 * (g + g.T)
        sigma = max(10.0 * rng.random(), 1e-12)
        rhs = sigma * loop_op_eval(op, n)
        v = abs(loop_op_eval(op, sigma * n) - rhs)
        worst = max(worst, v)
        worst_norm = max(worst_norm, v / (1.0 + abs(rhs)))
    return worst_norm <= 1e-10, worst, worst_norm


def loop_touching(u, op, bounds, dictionary):
    """(triggered, {flat node: (upper margin, lower margin)}) with one
    quadratic per candidate: phi(x0 + d) - phi(x0) = p.d + d'M d / 2 over
    the rho-ball, a maximum of phi - u at x0 (within h^2) checking
    F(M) <= lam_hi for M = M0 - sI, a minimum F(M) >= lam_lo for M0 + sI."""
    grid = u.grid
    h, n = grid.h, grid.ndim
    reach = int(math.floor(dictionary.rho / h + 1e-9))
    axes = np.meshgrid(*[np.arange(-reach, reach + 1)] * n, indexing="ij")
    offs = np.stack([a.ravel() for a in axes], axis=-1)
    d2 = np.sum(offs * offs, axis=1)
    offs = offs[(d2 > 0) & (d2 <= (dictionary.rho / h) ** 2 * (1 + 1e-12))]
    strides = [1, grid.shape[0]][:n]
    delta = offs * h
    slack = h * h
    triggered = 0
    margins = {}
    for k, node in enumerate(dictionary.nodes):
        node = int(node)
        du = u.values[node + offs @ strides] - u.values[node]
        upper, lower = margins.get(node, (-math.inf, -math.inf))
        for p in dictionary.grads[k]:
            for s in dictionary.shifts:
                for sign in (-1.0, 1.0):
                    m = dictionary.hessians[k] + sign * s * np.eye(n)
                    phi = delta @ p + 0.5 * np.einsum("bi,ij,bj->b", delta, m, delta)
                    if sign < 0 and np.max(phi - du) <= slack:
                        triggered += 1
                        upper = max(upper, op(m) - bounds.lam_hi)
                    if sign > 0 and np.max(du - phi) <= slack:
                        triggered += 1
                        lower = max(lower, bounds.lam_lo - op(m))
        margins[node] = (upper, lower)
    return triggered, margins


def csv_cell(v):
    """One CSV cell in the file format, formatted value by value: booleans
    as 1/0, floats with 17 significant digits, anything else by str."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


@pytest.fixture
def grid33():
    return unit_square_grid(33)


@pytest.fixture
def grid65():
    return unit_square_grid(65)


def whole_grid_envelope(op, u, track):
    """F_h(u) and its policy (line weights per node, shape (lines, nodes), 0
    on the margin band; None unless ``track``) the way ``stencils._envelope``
    computes them but in one whole-grid pass: one whole-grid temporary per
    term, the same arithmetic in the same order."""
    from ellipticlab.stencils import _scheme

    grid = u.grid
    scheme = _scheme(op, grid.ndim)
    m = scheme.margin
    my = m if grid.ndim == 2 else 0
    lat = u.lattice().reshape(-1, grid.shape[0])
    ny, nx = lat.shape
    better = np.less if scheme.minimize else np.greater
    pick = np.minimum if scheme.minimize else np.maximum
    diffs = [-2.0 * lat[my : ny - my, m : nx - m]
             + lat[my + dy : ny - my + dy, m + dx : nx - m + dx]
             + lat[my - dy : ny - my - dy, m - dx : nx - m - dx]
             for dx, dy in ((e + (0,))[:2] for e in scheme.directions)]  # (1,) in 1D

    def combine(terms):
        acc = None
        for k, c in terms:
            acc = c * diffs[k] if acc is None else acc + c * diffs[k]
        return acc

    def column(terms):  # one coefficient per line
        out = np.zeros(len(diffs))
        for k, c in terms:
            out[k] = c
        return out

    weights = np.zeros((len(diffs),) + diffs[0].shape)
    best = None
    for row in scheme.rows:
        val = combine(row)
        win = np.ones(val.shape, bool) if best is None else better(val, best)
        weights[:, win] = column(row)[:, None]
        best = val if best is None else pick(best, val)
    sign = -1.0 if scheme.minimize else 1.0
    for arc in scheme.arcs:
        s_mid, a, b = (combine(terms) for terms in arc.terms)
        cw, sw = arc.half
        hyp = np.sqrt(a * a + b * b)
        den = np.maximum(a + hyp, hyp * (1.0 + cw) + np.finfo(float).tiny)
        gain = np.maximum(np.abs(b) * sw + a * (cw - 1.0),
                          np.minimum(b * b / den, hyp * (1.0 - cw)))
        val = s_mid - gain if scheme.minimize else s_mid + gain
        inside = a >= hyp * cw
        cs, sn = np.where(inside, 1.0, cw), np.where(inside, 0.0, np.copysign(sw, b))
        on = inside & (hyp > 0.0)
        cs[on], sn[on] = a[on] / hyp[on], b[on] / hyp[on]
        win = better(val, best)
        for k, (c_mid, c_a, c_b) in enumerate(zip(*(column(t) for t in arc.terms))):
            weights[k][win] = np.maximum(c_mid + sign * (c_a * (cs - 1.0) + c_b * sn), 0.0)[win]
        best = pick(best, val)
    out = np.full((ny, nx), np.nan)
    out[my : ny - my, m : nx - m] = best / grid.h**2
    if not track:
        return out.ravel(), None
    full = np.zeros((len(diffs), ny, nx))
    full[:, my : ny - my, m : nx - m] = weights
    return out.ravel(), full.reshape(len(diffs), -1)


def dense_rim_envelope(op, u, count=2048):
    """Pucci's F_h sampled: the max (min for pucci_min) of Selling's
    tr(A D^2_h u) over lam2 I, lam1 I and the rim matrices A_t = m I + d R(t)
    at t = 2 pi k / count, on the nodes inside the scheme's margin (flat
    node indices, returned with it)."""
    from ellipticlab.stencils import _selling, operator_margin

    grid = u.grid
    nodes = np.flatnonzero(grid.interior_mask(operator_margin(op, 2)))
    lam1, lam2 = op.params.lam1, op.params.lam2
    m, d = (lam2 + lam1) / 2.0, (lam2 - lam1) / 2.0
    mats = [lam2 * np.eye(2), lam1 * np.eye(2)]
    for t in 2.0 * np.pi * np.arange(count) / count:
        mats.append(m * np.eye(2) + d * np.array([[np.cos(t), np.sin(t)],
                                                  [np.sin(t), -np.cos(t)]]))
    seconds = {}

    def second(e):  # D_e u at the nodes, in node units
        if e not in seconds:
            s = e[0] * grid.strides[0] + e[1] * grid.strides[1]
            seconds[e] = u.values[nodes + s] - 2.0 * u.values[nodes] + u.values[nodes - s]
        return seconds[e]

    vals = np.array([sum(rho * second(e) for rho, e in _selling(a)) for a in mats])
    pick = vals.min(axis=0) if op.kind == "pucci_min" else vals.max(axis=0)
    return pick / grid.h**2, nodes


def shift_add_convolve(lat, weights):
    """Valid-mode correlation sum_d w(d) lat(x + d) the direct way, one
    whole-array shifted add per nonzero weight; the reference for
    ``mollify._correlator``."""
    out_shape = tuple(n - m + 1 for n, m in zip(lat.shape, weights.shape))
    if any(s < 1 for s in out_shape):
        raise ValueError("mollified domain is empty: the margin removes every interior node")
    out = np.zeros(out_shape)
    for idx in np.ndindex(weights.shape):
        wv = weights[idx]
        if wv == 0.0:
            continue
        out += wv * lat[tuple(slice(i, i + s) for i, s in zip(idx, out_shape))]
    return out


def zeros_ball_mask(grid, ball):
    """Flat mask of the nodes of a closed ball the way ``grids._ball_box``
    selects them, but from a whole-grid ``zeros`` to which each axis's
    squared distances are added in turn; the reference for its broadcast
    sum over the box."""
    d2 = np.zeros(grid.shape[::-1])
    for a in range(grid.ndim):
        diff = grid.coords(a) - ball.center[a]
        shape = [1] * grid.ndim
        shape[grid.ndim - 1 - a] = grid.shape[a]
        d2 = d2 + (diff ** 2).reshape(shape)
    return (d2 <= ball.radius ** 2 * (1.0 + 1e-12)).ravel()


def renumbered_matrix(weights, shifts, scale, nodes, node_count, shift):
    """The frozen-policy system over the free ``nodes`` assembled the direct
    way, renumbered per step: the CSR matrix of scale * sum c D_e minus
    diag(shift) over ``nodes``, with c the line weights (``weights``, shape
    (lines, nodes)) on the lines of ``shifts``; zero weights and couplings
    to any other node are dropped (its correction is zero).  The reference
    for ``solvers._FrozenSystem``'s truncated layout."""
    import functools

    from scipy import sparse

    c = (weights * scale).T  # per node: the centre, -2 sum c, then c at x + e and x - e
    terms = np.column_stack([-2.0 * functools.reduce(np.add, c.T, 0.0), np.repeat(c, 2, 1)])
    offsets = np.array([0] + [o for s in shifts for o in (s, -s)])
    index = np.full(node_count, -1, dtype=np.int32)
    index[nodes] = np.arange(nodes.size, dtype=np.int32)
    cols = index[nodes[:, None] + offsets]
    keep = (cols >= 0) & (terms != 0.0)
    indptr = np.zeros(nodes.size + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    data = terms[keep]
    data[indptr[:-1]] -= shift  # the centre term leads every row
    return sparse.csr_matrix((data, cols[keep], indptr), shape=(nodes.size, nodes.size))
