"""Uniform grids on axis-aligned boxes, the functions living on them, discrete
balls, and small symmetric matrices.

Storage convention: values are flat, row-major with the x index fastest, i.e.
node (i_0, ..., i_{n-1}) sits at flat index ``sum_a i_a * Grid.strides[a]``.
``Grid.strides`` is the one place where lattice offsets become flat indices;
the lattice view reverses the axes, so coordinate axis a is its axis n-1-a.
The text format serializes with 17 significant digits so values round-trip
exactly.

A GridFunction keeps a flat float64 array that is C-contiguous, read-only and
owns its data (``_lock`` of a fresh array) without a copy; it copies any other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .fileio import FLOAT_FMT, atomic_write_text

__all__ = [
    "Domain",
    "Grid",
    "GridFunction",
    "Ball",
    "SymMatrix",
    "ball_samples",
    "ball_values",
    "oscillation",
    "resample",
    "square_grid",
    "read_grid_function",
    "write_grid_function",
]

_CHUNK = 1 << 13  # floats per chunk of a slab loop: 64 KiB temporaries, reused warm


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
        """All node coordinates, shape (node_count, ndim), in storage order,
        coordinate-major: the transpose of a C-ordered (ndim, node_count) array."""
        axes = [self.coords(a) for a in range(self.ndim)]
        # x must vary fastest: make it the last index of the C-ordered lattice.
        mesh = np.meshgrid(*axes[::-1], indexing="ij", copy=False)[::-1]
        return np.stack(mesh).reshape(self.ndim, -1).T

    def points_at(self, flat_indices) -> np.ndarray:
        """``points()[flat_indices]``, coordinate-major like it, looked up per
        axis without the full cloud: shape (len(flat_indices), ndim)."""
        multi = np.unravel_index(flat_indices, self.shape, order="F")
        return np.stack([self.coords(a)[multi[a]] for a in range(self.ndim)]).T

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


def square_grid(resolution: int, half_width: float = 1.0, ndim: int = 2) -> Grid:
    """[-half_width, half_width]^ndim with ``resolution`` nodes per axis."""
    return Grid(Domain((-half_width,) * ndim, (half_width,) * ndim),
                (int(resolution),) * ndim)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Read-only real values on every node of a Grid (flat, x fastest).  A flat
    float64 array that is C-contiguous, read-only and owns its data is kept, not
    copied; any other is copied, so later writes to it never show here."""

    grid: Grid
    values: np.ndarray
    allow_non_finite: bool = field(default=False, repr=False)

    def __post_init__(self):
        vals = self.values
        if not (isinstance(vals, np.ndarray) and vals.dtype == float and vals.ndim == 1
                and vals.flags.c_contiguous and vals.flags.owndata and not vals.flags.writeable):
            vals = _lock(np.asarray(vals, dtype=float).flatten())
        if vals.size != self.grid.node_count:
            raise ValueError(
                "value count mismatch: got %d values for %d nodes"
                % (vals.size, self.grid.node_count)
            )
        # min and max carry NaN and +-inf through
        if not (self.allow_non_finite or math.isfinite(vals.min()) and math.isfinite(vals.max())):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        """Sample ``fn`` at every node: it maps (M, n) points, coordinate-major
        like ``Grid.points``, to M values and runs on a chunk of slabs of the
        last axis at a time, into the output, so it must act on each point
        alone, not on the cloud."""
        size, last = grid.strides[-1], grid.coords(grid.ndim - 1)  # size: nodes per slab
        step = max(1, _CHUNK // size)  # slabs per call
        pts = np.tile(grid.points_at(np.arange(size)).T, min(step, last.size)).T
        out = np.empty(grid.node_count)
        for j in range(0, last.size, step):
            chunk = pts[:last[j:j + step].size * size]
            chunk.T[-1].reshape(-1, size)[:] = last[j:j + step, None]
            out[j * size:j * size + len(chunk)] = np.reshape(fn(chunk), len(chunk))
        return cls(grid, _lock(out))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.grid, values)

    def lattice(self) -> np.ndarray:
        return self.grid.lattice(self.values)

    def sup_norm(self) -> float:
        """max |u| over the finite values (0.0 if there are none): the larger of
        max u and -min u, +0.0 and never -0.0 when they are all zeros."""
        vals = self.values[np.isfinite(self.values)] if self.allow_non_finite else self.values
        return abs(max(float(vals.max()), -float(vals.min()))) if vals.size else 0.0


@dataclass(frozen=True)
class Ball:
    """Closed Euclidean ball; on a grid it collects nodes with |x - center| <= radius."""

    center: tuple
    radius: float

    def __post_init__(self):
        center = tuple(float(c) for c in np.atleast_1d(np.asarray(self.center, dtype=float)))
        radius = float(self.radius)
        if not all(map(math.isfinite, center)):
            raise ValueError("ball center must be finite, got %r" % (center,))
        if not 0 < radius < math.inf:
            raise ValueError("ball radius must be positive and finite, got %r" % radius)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "radius", radius)


@lru_cache(maxsize=8)
def _ball_box(grid: Grid, ball: Ball):
    """The ball's bounding box of nodes, as a tuple of slices into the values
    reshaped to ``grid.shape[::-1]``, and the (read-only) mask of the closed
    ball over it.  Kept for the last few (grid, ball) pairs: a blow-up
    sequence measures every zoom on the same unit ball of the same lattice.

    A node's squared distance is summed from 0.0 and axis 0 up, a chunk of
    slabs of the last axis at a time.  A node off the box has one axis's square
    above r^2 alone, and a sum of nonnegative floats is no smaller than any of
    its terms, so no node outside the box is in the ball.
    """
    if len(ball.center) != grid.ndim:
        raise ValueError("ball center rank must match grid dimension")
    slack = 1e-9 * grid.h
    for a in range(grid.ndim):
        if ball.center[a] - ball.radius < grid.domain.lower[a] - slack or \
           ball.center[a] + ball.radius > grid.domain.upper[a] + slack:
            raise ValueError("ball exits domain")
    bound = ball.radius ** 2 * (1.0 + 1e-12)
    box, d2 = [], 0.0  # d2 grows over all axes but the last by broadcasting
    for a in range(grid.ndim):
        sq = (grid.coords(a) - ball.center[a]) ** 2
        near = np.flatnonzero(sq <= bound)
        if near.size == 0:
            raise ValueError("ball resolves to no nodes")
        box.append(slice(near[0], near[-1] + 1))
        sq = sq[box[-1]].reshape((-1,) + (1,) * a)
        d2 = d2 + sq if a < grid.ndim - 1 else d2
    inside = np.empty(sq.shape[:1] + np.shape(d2), dtype=bool)
    step = max(1, _CHUNK // np.size(d2))  # slabs per chunk
    for j in range(0, len(sq), step):
        np.less_equal(d2 + sq[j:j + step], bound, out=inside[j:j + step])
    if not inside.any():
        raise ValueError("ball resolves to no nodes")
    inside.flags.writeable = False
    return tuple(box[::-1]), inside


def ball_values(grid: Grid, values: np.ndarray, ball: Ball) -> np.ndarray:
    """Per-node ``values`` (flat or lattice-shaped) on the discrete ball's nodes
    in storage order, gathered from the ball's bounding box of nodes alone.

    Raises if the ball is not contained in the domain box or catches no node.
    Distance ties at the boundary are included (closed ball, with a relative
    1e-12 grace for rounding).
    """
    box, inside = _ball_box(grid, ball)
    return grid.lattice(values)[box][inside]


def ball_samples(u: GridFunction, ball: Ball):
    """(points, values) of u on the discrete ball's nodes in storage order, the
    points coordinate-major like ``Grid.points``, gathered from its box alone."""
    grid = u.grid
    box, inside = _ball_box(grid, ball)
    pts = np.empty((grid.ndim, np.count_nonzero(inside)))
    for a in range(grid.ndim):  # broadcast along lattice axis n-1-a
        axis = grid.coords(a)[box[grid.ndim - 1 - a]].reshape((-1,) + (1,) * a)
        pts[a] = np.broadcast_to(axis, inside.shape)[inside]
    return pts.T, ball_values(grid, u.values, ball)


def oscillation(u: GridFunction, ball: Ball) -> float:
    """max - min of u over the nodes of the discrete ball, each taken over the
    ball's box under its mask, without gathering the ball's values."""
    box, inside = _ball_box(u.grid, ball)
    vals = u.lattice()[box]
    return float(vals.max(where=inside, initial=-math.inf)
                 - vals.min(where=inside, initial=math.inf))


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
    the multilinear interpolant sum_c (prod_a w_a) u(c) over the 2^d corners c
    of the cell holding each point, with w_a = 1 - t or t along axis a (t the
    point's fraction across the cell), the product taken from axis 0 up and
    the sum from +0.0 with axis 0's corner bit varying fastest, bit for bit,
    on finite and non-finite fields alike.

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
    out = np.zeros(target.node_count)
    sums = target.lattice(out)
    # the taps taken in lattice-axis order vary coordinate axis 0 fastest,
    # which is the corner order of the sum
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
        sums += block if weight is None else weight * block
    return out


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
        upper = np.triu_indices(self.n)  # row by row, as __init__ stores it
        m[upper] = m.T[upper] = self._upper
        return _lock(m)

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.mat))

    def eigenvalues(self) -> np.ndarray:
        return _spectrum(self.mat)

    def __repr__(self):
        return f"SymMatrix({self.mat.tolist()})"


def _spectrum(a):
    """Ascending eigenvalues of stacked symmetric matrices (..., n, n), read
    from the upper triangle: closed form for n <= 2, LAPACK otherwise."""
    n = a.shape[-1]
    if n == 1:
        return a[..., 0, :]
    if n == 2:
        m11, m12, m22 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 1]
        mean = 0.5 * (m11 + m22)
        rad = np.hypot(0.5 * (m11 - m22), m12)
        return np.stack([mean - rad, mean + rad], axis=-1)
    return np.linalg.eigvalsh(a, UPLO="U")


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
    values = u.values.tolist()  # one format over all values, one line each
    body = (FLOAT_FMT + "\n") * len(values) % tuple(values)
    atomic_write_text(path, " ".join(head) + "\n" + body)


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
