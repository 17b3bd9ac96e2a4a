"""Uniform grids on axis-aligned boxes, the functions living on them, discrete
balls, and small symmetric matrices.

Storage convention: values are flat, row-major with the x index fastest, i.e.
node (i_0, ..., i_{n-1}) sits at flat index ``sum_a i_a * Grid.strides[a]``.
``Grid.strides`` is the one place where lattice offsets become flat indices;
the lattice view reverses the axes, so coordinate axis a is its axis n-1-a.
The text format serializes with 17 significant digits so values round-trip
exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fileio import FLOAT_FMT, atomic_write_text

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "Ball",
    "SymMatrix",
    "ball_node_mask",
    "oscillation",
    "resample",
    "restrict",
    "sample_bilinear",
    "read_grid_function",
    "write_grid_function",
]


def _lock(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Domain:
    """Axis-aligned closed box [lower_i, upper_i], i = 0..n-1."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(np.asarray(self.lower, dtype=float)))
        up = tuple(float(v) for v in np.atleast_1d(np.asarray(self.upper, dtype=float)))
        if len(lo) == 0 or len(lo) != len(up):
            raise ValueError("domain corners must be nonempty and of equal length")
        if any(u <= l for l, u in zip(lo, up)):
            raise ValueError("domain upper corner must exceed lower corner on every axis")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def ndim(self) -> int:
        return len(self.lower)

    def extent(self, axis: int) -> float:
        return self.upper[axis] - self.lower[axis]


@dataclass(frozen=True)
class Grid:
    """Isotropic uniform lattice over a Domain; every axis shares one spacing h."""

    domain: Domain
    shape: tuple

    def __post_init__(self):
        shape = tuple(int(s) for s in np.atleast_1d(np.asarray(self.shape)))
        if len(shape) != self.domain.ndim:
            raise ValueError("grid shape rank must match domain dimension")
        if any(s < 3 for s in shape):
            raise ValueError("grids need at least 3 nodes per axis")
        spacings = [self.domain.extent(a) / (shape[a] - 1) for a in range(len(shape))]
        h = spacings[0]
        if any(abs(s - h) > 1e-12 * h for s in spacings):
            raise ValueError(
                "grid must be isotropic: per-axis spacings %s differ" % (spacings,)
            )
        object.__setattr__(self, "shape", shape)

    @property
    def ndim(self) -> int:
        return self.domain.ndim

    @property
    def h(self) -> float:
        return self.domain.extent(0) / (self.shape[0] - 1)

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)

    @cached_property
    def strides(self) -> tuple:
        """Flat-index step of one node along each coordinate axis, x first:
        an integer offset d moves a node's flat index by ``d @ strides``."""
        return tuple(math.prod(self.shape[:a]) for a in range(self.ndim))

    def coords(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        return self.domain.lower[axis] + np.arange(n) * (self.domain.extent(axis) / (n - 1))

    def points(self) -> np.ndarray:
        """All node coordinates, shape (node_count, ndim), in storage order."""
        axes = [self.coords(a) for a in range(self.ndim)]
        # x must vary fastest: make it the last index of the C-ordered lattice.
        mesh = np.meshgrid(*axes[::-1], indexing="ij")[::-1]
        return np.stack([m.ravel() for m in mesh], axis=1)

    def points_at(self, flat_indices) -> np.ndarray:
        """Coordinates of the given nodes, shape (len(flat_indices), ndim):
        ``points()[flat_indices]`` looked up per axis, without the full cloud."""
        multi = np.unravel_index(flat_indices, self.shape, order="F")
        return np.stack([self.coords(a)[multi[a]] for a in range(self.ndim)], axis=1)

    def lattice(self, flat_values: np.ndarray) -> np.ndarray:
        """View flat storage as the (…, ny, nx) C-ordered lattice array."""
        return np.asarray(flat_values).reshape(self.shape[::-1])

    def interior_mask(self, margin: int) -> np.ndarray:
        """Flat mask of nodes at least ``margin`` node layers from every face."""
        mask = np.ones(self.shape[::-1], dtype=bool)
        for axis in range(self.ndim):
            ax = self.ndim - 1 - axis  # lattice axis for coordinate axis
            sl = [slice(None)] * self.ndim
            sl[ax] = slice(0, margin)
            mask[tuple(sl)] = False
            sl[ax] = slice(self.shape[axis] - margin, None)
            mask[tuple(sl)] = False
        return mask.ravel()


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Real values attached to every node of a Grid (flat, x fastest)."""

    grid: Grid
    values: np.ndarray
    allow_non_finite: bool = field(default=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).reshape(-1)
        if vals.size != self.grid.node_count:
            raise ValueError(
                "value count mismatch: got %d values for %d nodes"
                % (vals.size, self.grid.node_count)
            )
        if not self.allow_non_finite and not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", _lock(vals.copy()))

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample ``fn(points)`` (vectorized over an (N, n) point array)."""
        return cls(grid, np.asarray(fn(grid.points()), dtype=float))

    def with_values(self, values, allow_non_finite=False) -> "GridFunction":
        return GridFunction(self.grid, values, allow_non_finite)

    def lattice(self) -> np.ndarray:
        return self.grid.lattice(self.values)

    def sup_norm(self) -> float:
        """max |u| over the finite values (0.0 if there are none)."""
        if not self.allow_non_finite:  # every value was checked finite
            return float(np.max(np.abs(self.values)))
        finite = self.values[np.isfinite(self.values)]
        if finite.size == 0:
            return 0.0
        return float(np.max(np.abs(finite)))


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball; on a grid it collects nodes with |x - center| <= radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        radius = float(self.radius)
        if radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


def ball_node_mask(grid: Grid, ball: Ball) -> np.ndarray:
    """Flat boolean mask of grid nodes inside the closed ball.

    Raises if the ball is not contained in the domain box or catches no node.
    Distance ties at the boundary are included (closed ball, with a relative
    1e-12 grace for rounding).
    """
    if len(ball.center) != grid.ndim:
        raise ValueError("ball center rank must match grid dimension")
    slack = 1e-9 * grid.h
    for a in range(grid.ndim):
        if ball.center[a] - ball.radius < grid.domain.lower[a] - slack or \
           ball.center[a] + ball.radius > grid.domain.upper[a] + slack:
            raise ValueError("ball exits domain")
    d2 = 0.0  # grows to the whole lattice by broadcasting, one axis at a time
    for a in range(grid.ndim):
        diff = grid.coords(a) - ball.center[a]
        shape = [1] * grid.ndim
        shape[grid.ndim - 1 - a] = grid.shape[a]
        d2 = d2 + (diff ** 2).reshape(shape)
    mask = (d2 <= ball.radius ** 2 * (1.0 + 1e-12)).ravel()
    if not mask.any():
        raise ValueError("ball resolves to no nodes")
    return mask


def oscillation(u: GridFunction, ball: Ball) -> float:
    """max - min of u over the nodes of the discrete ball."""
    vals = u.values[ball_node_mask(u.grid, ball)]
    return float(vals.max() - vals.min())


def restrict(u: GridFunction, ball: Ball):
    """List of (point, value) pairs over the discrete ball, storage order."""
    mask = ball_node_mask(u.grid, ball)
    pts = u.grid.points_at(np.flatnonzero(mask))
    vals = u.values[mask]
    return [(tuple(p), float(v)) for p, v in zip(pts, vals)]


def _cells(grid: Grid, axis: int, x: np.ndarray):
    """Lower cell index and fraction along one axis for coordinates x, which
    must lie in the domain box (up to a 1e-9 h grace); NaN lies in none."""
    slack = 1e-9 * grid.h
    lo, hi = grid.domain.lower[axis], grid.domain.upper[axis]
    if not np.all((x >= lo - slack) & (x <= hi + slack)):
        raise ValueError("interpolation point exits domain")
    t = (x - lo) / grid.h
    i0 = np.clip(np.floor(t).astype(np.int64), 0, grid.shape[axis] - 2)
    return i0, np.clip(t - i0, 0.0, 1.0)


def sample_bilinear(u: GridFunction, points) -> np.ndarray:
    """Multilinear interpolation of u at scattered points inside the domain box.

    Points on a lattice go through ``resample``, which evaluates the same
    formula, bit for bit, from per-axis arrays.
    """
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


def _taps(grid: Grid, axis: int, x: np.ndarray, finite: bool):
    """(weight, index) per corner bit along one axis for coordinates x; a
    node-aligned axis of a finite field gets one unweighted tap (``resample``)."""
    i0, frac = _cells(grid, axis, x)
    if finite and np.all((frac == 0.0) | (frac == 1.0)):
        idx = i0 + (frac == 1.0)
        step = int(idx[1] - idx[0])
        if step > 0 and np.all(np.diff(idx) == step):
            idx = slice(int(idx[0]), int(idx[-1]) + 1, step)
        return ((None, idx),)
    return ((1.0 - frac, i0), (frac, i0 + 1))


def resample(u: GridFunction, target: Grid, scale: float) -> np.ndarray:
    """u at the nodes of ``target`` scaled by ``scale``, in target storage order:
    ``sample_bilinear(u, scale * target.points())`` bit for bit, on finite and
    non-finite fields alike.

    The cell indices and fractions are computed once per axis; each corner's
    weight is their broadcast product in the same order, and its values are
    gathered with one ``take`` per lattice axis.  An axis whose target nodes
    all sit on source nodes (every fraction exactly 0, or 1 at the top node,
    as in a zoom by an integral stride) is gathered from those nodes alone
    when u was built finite (``not u.allow_non_finite``): a basic slice when
    they step evenly, no weight, and no corner on its far side.  Each term so
    skipped is 0.0 times a finite value, a signed zero that leaves the sum,
    started at +0.0, unchanged.  With NaN or inf allowed, 0.0 times a value
    need not be zero, so every axis keeps both corners.
    """
    grid = u.grid
    n = grid.ndim
    if target.ndim != n:
        raise ValueError("target rank mismatch")
    taps = [_taps(grid, a, scale * target.coords(a), not u.allow_non_finite)
            for a in range(n)]
    lattice = u.lattice()
    out = np.zeros(target.shape[::-1])
    # the taps taken in lattice-axis order vary coordinate axis 0 fastest,
    # which is the corner order of sample_bilinear
    for corner in itertools.product(*taps[::-1]):
        weight = None  # no factor yet: 1.0, which is never multiplied in
        block = lattice
        for a, (w, idx) in enumerate(reversed(corner)):
            ax = n - 1 - a  # coordinate axis a is lattice axis n-1-a
            if w is not None:  # shaped to broadcast along lattice axis ax
                w = w.reshape((-1,) + (1,) * a)
                weight = w if weight is None else weight * w
            if isinstance(idx, slice):
                block = block[(slice(None),) * ax + (idx,)]
            else:
                block = block.take(idx, axis=ax)
        out += block if weight is None else weight * block
    return out.ravel()


# -- symmetric matrices -------------------------------------------------------


class SymMatrix:
    """Exactly symmetric n x n matrix; stores the upper triangle."""

    __slots__ = ("n", "_upper")

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        scale = 1.0 + float(np.max(np.abs(m))) if m.size else 1.0
        if np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("matrix is not symmetric")
        self.n = m.shape[0]
        self._upper = tuple(float(m[i, j]) for i in range(self.n) for j in range(i, self.n))

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n))

    @property
    def mat(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        k = 0
        for i in range(self.n):
            for j in range(i, self.n):
                m[i, j] = self._upper[k]
                m[j, i] = self._upper[k]
                k += 1
        return _lock(m)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.mat))

    def eigenvalues(self) -> np.ndarray:
        if self.n == 1:
            return np.array([self._upper[0]])
        if self.n == 2:
            a, b, c = self._upper  # m11, m12, m22
            mean = 0.5 * (a + c)
            rad = math.hypot(0.5 * (a - c), b)
            return np.array([mean - rad, mean + rad])
        return np.linalg.eigvalsh(self.mat)

    def __repr__(self):
        return f"SymMatrix({self.mat.tolist()})"


# -- text serialization -------------------------------------------------------


def write_grid_function(u: GridFunction, path):
    """Header: ``n nx [ny] xmin xmax [ymin ymax]``; then one value per line."""
    grid = u.grid
    head = [str(grid.ndim)] + [str(s) for s in grid.shape]
    for a in range(grid.ndim):
        head.append(FLOAT_FMT % grid.domain.lower[a])
        head.append(FLOAT_FMT % grid.domain.upper[a])
    if not np.all(np.isfinite(u.values)):
        raise ValueError("refusing to serialize non-finite values")
    lines = [" ".join(head)]
    lines.extend(map(FLOAT_FMT.__mod__, u.values.tolist()))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_grid_function(path) -> GridFunction:
    with open(path) as fh:
        tokens = fh.readline().split()
        if not tokens:
            raise ValueError("empty grid file")
        try:
            ndim = int(tokens[0])
            shape = tuple(int(t) for t in tokens[1 : 1 + ndim])
            bounds = [float(t) for t in tokens[1 + ndim :]]
        except (ValueError, IndexError) as exc:
            raise ValueError(f"malformed grid header: {tokens!r}") from exc
        if len(shape) != ndim or len(bounds) != 2 * ndim:
            raise ValueError(f"malformed grid header: {tokens!r}")
        lower = tuple(bounds[2 * a] for a in range(ndim))
        upper = tuple(bounds[2 * a + 1] for a in range(ndim))
        grid = Grid(Domain(lower, upper), shape)
        values = np.loadtxt(fh, dtype=float, ndmin=1)
    if values.size != grid.node_count:
        raise ValueError(
            "value count mismatch: got %d values for %d nodes" % (values.size, grid.node_count)
        )
    return GridFunction(grid, values)
