import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import (
    Ball,
    Domain,
    Grid,
    GridFunction,
    SymMatrix,
    ball_values,
    oscillation,
    resample,
    read_grid_function,
    write_grid_function,
)
from ellipticlab import grids
from ellipticlab.fileio import read_manifest, write_manifest

from conftest import field, sample_bilinear, unit_square_grid, zeros_ball_mask


def ball_nodes(grid, ball):
    """Flat indices of the ball's nodes, gathered from its box like values."""
    return ball_values(grid, np.arange(grid.node_count), ball)


def random_field(grid, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return GridFunction(grid, scale * rng.standard_normal(grid.node_count))


# ---------------------------------------------------------------------------
# grids and domains


def test_grid_spacing_and_counts():
    g = unit_square_grid(33)
    assert g.h == pytest.approx(2.0 / 32)
    assert g.node_count == 33 * 33
    assert g.coords(0)[0] == -1.0 and g.coords(0)[-1] == 1.0


def test_grid_rejects_too_few_nodes():
    with pytest.raises(ValueError, match="at least 3 nodes"):
        Grid(Domain((0.0,), (1.0,)), (2,))


def test_grid_rejects_anisotropic_shape():
    with pytest.raises(ValueError, match="isotropic"):
        Grid(Domain((0.0, 0.0), (1.0, 2.0)), (11, 11))


def test_domain_orientation_validated():
    with pytest.raises(ValueError):
        Domain((0.0, 0.0), (1.0, -1.0))


def test_points_storage_order_x_fastest():
    g = Grid(Domain((0.0, 0.0), (1.0, 1.0)), (3, 3))
    pts = g.points()
    # flat index iy*nx + ix: the second point moves along x
    assert pts[1][0] == pytest.approx(0.5)
    assert pts[1][1] == 0.0
    assert pts[3][1] == pytest.approx(0.5)


@pytest.mark.parametrize("domain, shape", [
    (Domain((0.0,), (1.0,)), (7,)),
    (Domain((0.0, 0.0), (1.0, 1.5)), (5, 7)),
    (Domain((0.0, 0.0, 0.0), (1.0, 2.0, 0.5)), (5, 9, 3)),
])
def test_strides_step_flat_indices(domain, shape):
    g = Grid(domain, shape)
    multi = np.stack(np.unravel_index(np.arange(g.node_count), shape, order="F"), axis=1)
    flat = np.ravel_multi_index(tuple(multi.T), shape, order="F")
    assert np.array_equal(multi @ g.strides, flat)
    assert all(isinstance(s, int) for s in g.strides)


# ---------------------------------------------------------------------------
# grid functions


def test_grid_function_rejects_non_finite_by_default(grid33):
    vals = np.zeros(grid33.node_count)
    vals[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        GridFunction(grid33, vals)
    GridFunction(grid33, vals, allow_non_finite=True)  # opt-in is fine


def test_grid_function_value_count_checked(grid33):
    with pytest.raises(ValueError, match="value count mismatch"):
        GridFunction(grid33, np.zeros(7))


def test_sup_norm_ignores_nan(grid33):
    vals = np.full(grid33.node_count, 0.25)
    vals[::7] = np.nan
    assert GridFunction(grid33, vals, allow_non_finite=True).sup_norm() == 0.25


def test_sup_norm_of_a_finite_function(grid33):
    vals = np.linspace(-3.0, 2.0, grid33.node_count)
    assert GridFunction(grid33, vals).sup_norm() == 3.0
    assert GridFunction(grid33, vals, allow_non_finite=True).sup_norm() == 3.0


def test_values_are_write_locked(grid33):
    u = random_field(grid33, 0)
    with pytest.raises(ValueError):
        u.values[0] = 1.0


# ---------------------------------------------------------------------------
# balls, oscillation, restriction


@pytest.mark.parametrize("ndim, res", [(1, 33), (2, 33), (3, 9)])
def test_points_at_matches_point_cloud(ndim, res):
    g = unit_square_grid(res, ndim=ndim)
    ball = ball_nodes(g, Ball((0.1,) * ndim, 0.6))
    unsorted = np.random.default_rng(5).permutation(g.node_count)[:50]
    for idx in (ball, unsorted):
        assert np.array_equal(g.points_at(idx), g.points()[idx])


def row_major_points(g):
    """The point cloud stacked sample by sample: (N, n) and C-ordered."""
    mesh = np.meshgrid(*[g.coords(a) for a in range(g.ndim)][::-1], indexing="ij")[::-1]
    return np.stack([m.ravel() for m in mesh], axis=1)


@pytest.mark.parametrize("ndim, res", [(1, 33), (2, 33), (3, 9)])
def test_point_clouds_are_coordinate_major(ndim, res):
    """points(), points_at() and ball_samples() hold the row-major cloud's
    values, with one contiguous row per coordinate."""
    g = unit_square_grid(res, ndim=ndim)
    want = row_major_points(g)
    u = random_field(g, 2)
    ball = Ball((0.1,) * ndim, 0.6)
    mask = zeros_ball_mask(g, ball)
    idx = np.random.default_rng(3).permutation(g.node_count)[:40]
    pts, vals = grids.ball_samples(u, ball)
    for got, ref in ((g.points(), want), (g.points_at(idx), want[idx]), (pts, want[mask])):
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)
        assert got.T.flags.c_contiguous
    assert np.array_equal(vals, u.values[mask])


def test_ball_mask_counts_nodes_inside_closed_ball():
    g = unit_square_grid(65)
    nodes = ball_nodes(g, Ball((0.0, 0.0), 0.5))
    pts = g.points()
    inside = np.sum(np.hypot(pts[:, 0], pts[:, 1]) <= 0.5 + 1e-12)
    assert nodes.size == inside
    # closed ball: the four axis nodes at exactly r = 0.5 are included
    assert nodes.size >= 4


def test_ball_must_stay_inside_domain(grid33):
    with pytest.raises(ValueError, match="ball exits domain"):
        ball_nodes(grid33, Ball((0.9, 0.0), 0.5))


@pytest.mark.parametrize("center, radius, match", [
    ((math.nan, 0.0), 0.5, "ball center must be finite"),
    ((0.0, math.inf), 0.5, "ball center must be finite"),
    ((0.0, 0.0), math.nan, "ball radius must be positive and finite"),
    ((0.0, 0.0), math.inf, "ball radius must be positive and finite"),
])
def test_ball_refuses_non_finite_geometry(center, radius, match):
    """A NaN center was accepted, and a ball round it then resolved to no
    nodes; a NaN radius passed the check too."""
    with pytest.raises(ValueError, match=match):
        Ball(center, radius)


def test_ball_too_small_resolves_to_no_nodes():
    g = unit_square_grid(33)
    with pytest.raises(ValueError, match="no nodes"):
        ball_nodes(g, Ball((g.h / 2, g.h / 2), g.h / 4))


OFF_CENTRE_BALLS = [
    (unit_square_grid(41, ndim=1), Ball((0.3,), 0.55)),
    (unit_square_grid(41, ndim=1), Ball((-0.25,), 0.5)),
    (unit_square_grid(33), Ball((0.1, -0.3), 0.6)),
    (unit_square_grid(33), Ball((0.25, -0.125), 0.625)),
    (Grid(Domain((-1.0, -0.5), (1.0, 0.5)), (33, 17)), Ball((-0.4, 0.05), 0.41)),
    (unit_square_grid(17, ndim=3), Ball((0.2, -0.1, 0.35), 0.6)),
    (unit_square_grid(17, ndim=3), Ball((0.25, -0.125, 0.0), 0.5)),
]


@pytest.mark.parametrize("grid, ball", OFF_CENTRE_BALLS)
def test_ball_mask_is_the_whole_grid_zeros_sum(grid, ball):
    """Off-centre balls, some with nodes exactly at distance r (node-aligned
    centres, radii a whole number of h): the box gather reads the nodes of
    the zeros oracle's mask, in storage order."""
    assert np.array_equal(ball_nodes(grid, ball), np.flatnonzero(zeros_ball_mask(grid, ball)))


@pytest.mark.parametrize("grid, ball", OFF_CENTRE_BALLS)
def test_oscillation_is_max_minus_min_over_the_whole_grid_mask(grid, ball):
    """Gathered from the ball's bounding box alone, the oscillation is max -
    min over the whole-grid mask bit for bit, on balls through nodes too."""
    u = random_field(grid, 7)
    vals = u.values[zeros_ball_mask(grid, ball)]
    assert oscillation(u, ball) == float(vals.max() - vals.min())


def test_a_returned_ball_mask_is_the_callers_own(grid33):
    """The ball's mask is kept for the next call on the same ball; what
    ``ball_values`` returns is a fresh array, so changing it changes neither
    a later gather nor an oscillation."""
    ball = Ball((0.1, -0.3), 0.6)
    u = random_field(grid33, 4)
    first = ball_nodes(grid33, ball)
    osc = oscillation(u, ball)
    first[:] = -1
    want = np.flatnonzero(zeros_ball_mask(grid33, ball))
    assert np.array_equal(ball_nodes(grid33, ball), want)
    assert np.array_equal(ball_values(grid33, u.values, ball), u.values[want])
    assert oscillation(u, ball) == osc


def test_oscillation_exact_on_known_field():
    g = unit_square_grid(65)
    u = field(g, lambda p: p[:, 0])
    assert oscillation(u, Ball((0.0, 0.0), 0.5)) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-50, 50), st.floats(0.1, 10.0))
def test_oscillation_translation_and_scale(seed, shift, scale):
    """osc(a*u + c) = a * osc(u): affine changes act the obvious way."""
    g = unit_square_grid(17)
    u = random_field(g, seed)
    ball = Ball((0.0, 0.0), 0.75)
    base = oscillation(u, ball)
    moved = oscillation(u.with_values(scale * u.values + shift), ball)
    assert moved == pytest.approx(scale * base, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.2, 0.45), st.floats(0.5, 0.95))
def test_oscillation_monotone_in_radius(seed, r_small, r_big):
    g = unit_square_grid(33)
    u = random_field(g, seed)
    c = (0.0, 0.0)
    assert oscillation(u, Ball(c, r_small)) <= oscillation(u, Ball(c, r_big)) + 1e-15


# ---------------------------------------------------------------------------
# bilinear sampling


def test_sample_bilinear_exact_on_bilinear(grid33):
    u = field(grid33, lambda p: 0.5 - 2.0 * p[:, 0] + 0.25 * p[:, 1] + 3.0 * p[:, 0] * p[:, 1])
    rng = np.random.default_rng(7)
    q = rng.uniform(-0.99, 0.99, size=(200, 2))
    want = 0.5 - 2.0 * q[:, 0] + 0.25 * q[:, 1] + 3.0 * q[:, 0] * q[:, 1]
    np.testing.assert_allclose(sample_bilinear(u, q), want, rtol=0, atol=1e-13)


def test_sample_bilinear_rejects_exterior_points(grid33):
    u = random_field(grid33, 0)
    with pytest.raises(ValueError, match="exits domain"):
        sample_bilinear(u, np.array([[1.5, 0.0]]))


def test_sample_bilinear_rejects_nan_points():
    """A NaN coordinate lies in no cell; it must not be cast to an index."""
    u = random_field(unit_square_grid(9), 0)
    with pytest.raises(ValueError, match="interpolation point exits domain"):
        sample_bilinear(u, [[np.nan, 0.0]])


@pytest.mark.parametrize("scale", [1.0, 0.25, 0.37])
@pytest.mark.parametrize("ndim, source, target, half", [
    (1, 33, 33, 1.0), (1, 33, 20, 1.0),
    (2, 33, 33, 1.0), (2, 33, 17, 1.0), (2, 17, 40, 1.0), (2, 33, 21, 0.5),
    (3, 9, 9, 1.0), (3, 9, 6, 1.0),
])
def test_resample_is_sample_bilinear_bitwise(ndim, source, target, half, scale):
    u = random_field(unit_square_grid(source, ndim=ndim), source + target)
    lattice = unit_square_grid(target, half, ndim)
    want = sample_bilinear(u, scale * lattice.points())
    assert np.array_equal(resample(u, lattice, scale), want)


def _gathers(u, target, scale):
    """How resample gathers each coordinate axis: 'slice' or 'take' for one
    node-aligned tap, 'corners' for the two weighted ones."""
    kinds = []
    for a in range(u.grid.ndim):
        taps = grids._taps(u.grid, a, scale * target.coords(a), not u.allow_non_finite)
        if len(taps) == 2:
            kinds.append("corners")
        else:
            kinds.append("slice" if isinstance(taps[0][1], slice) else "take")
    return kinds


def signed_zero_field(grid, seed):
    """Random values with a sprinkling of -0.0 and +0.0."""
    vals = random_field(grid, seed).values.copy()
    rng = np.random.default_rng(seed + 1)
    vals[rng.random(vals.size) < 0.2] = -0.0
    vals[rng.random(vals.size) < 0.1] = 0.0
    return GridFunction(grid, vals)


@pytest.mark.parametrize("source, target, scale, gathers", [
    # x on source nodes, y a fraction 0.16 off them, and the transpose
    (unit_square_grid(33), Grid(Domain((-1.0, -0.49), (1.0, 0.51)), (17, 9)), 1.0,
     ["slice", "corners"]),
    (unit_square_grid(33), Grid(Domain((-0.49, -1.0), (0.51, 1.0)), (9, 17)), 1.0,
     ["corners", "slice"]),
    (unit_square_grid(33), unit_square_grid(33), 1.0, ["slice", "slice"]),
    (unit_square_grid(65), unit_square_grid(17), 1.0, ["slice", "slice"]),  # stride 4
    (unit_square_grid(65), unit_square_grid(17), 0.25, ["slice", "slice"]),  # stride 1
    # aligned but not ascending: reflected (step -1), collapsed (step 0)
    (unit_square_grid(33), unit_square_grid(17), -1.0, ["take", "take"]),
    (unit_square_grid(33), unit_square_grid(17), 0.0, ["take", "take"]),
    (unit_square_grid(33, ndim=1), unit_square_grid(9, ndim=1), 0.5, ["slice"]),
    (unit_square_grid(33, ndim=1), unit_square_grid(9, ndim=1), 0.3, ["corners"]),
    (unit_square_grid(9, ndim=3), unit_square_grid(5, ndim=3), 1.0, ["slice"] * 3),
    (unit_square_grid(9, ndim=3), Grid(Domain((-1.0, -1.0, -0.95), (0.0, 0.0, 0.05)), (5, 5, 5)),
     1.0, ["slice", "slice", "corners"]),
])
def test_resample_node_aligned_axes_are_sample_bilinear_bytewise(source, target, scale, gathers):
    """Node-aligned axes are gathered, not interpolated, with the same bytes
    as sample_bilinear, signed zeros included."""
    for u in (random_field(source, 11), signed_zero_field(source, 12)):
        assert _gathers(u, target, scale) == gathers
        got = resample(u, target, scale)
        assert got.tobytes() == sample_bilinear(u, scale * target.points()).tobytes()


def test_resample_reaches_the_top_node_with_fraction_one():
    """The last node of an aligned axis is cell n-2 at fraction 1: it is
    gathered as node n-1, and the identity zoom returns u with -0.0 as +0.0."""
    u = signed_zero_field(unit_square_grid(33), 3)
    assert np.array_equal(grids._cells(u.grid, 0, u.grid.coords(0))[1][[0, -1]], [0.0, 1.0])
    got = resample(u, u.grid, 1.0)
    assert got.tobytes() == (u.values + 0.0).tobytes()
    assert np.signbit(u.values).any() and not np.signbit(got[u.values == 0.0]).any()


def test_resample_non_finite_field_keeps_every_corner():
    """With NaN allowed, 0.0 * NaN is NaN, so an aligned axis keeps both
    corners and the NaN spreads exactly as in sample_bilinear."""
    g = unit_square_grid(33)
    vals = signed_zero_field(g, 5).values.copy()
    vals[[40, 300, 301, 1000]] = np.nan
    u = GridFunction(g, vals, allow_non_finite=True)
    for target, scale in ((g, 1.0), (unit_square_grid(17), 1.0),
                          (Grid(Domain((-1.0, -0.49), (1.0, 0.51)), (17, 9)), 1.0)):
        assert "slice" not in _gathers(u, target, scale)
        got = resample(u, target, scale)
        assert got.tobytes() == sample_bilinear(u, scale * target.points()).tobytes()
    assert np.isnan(resample(u, g, 1.0)).sum() > 4  # the neighbours of each NaN


def test_resample_rejects_lattice_leaving_domain(grid33):
    u = random_field(grid33, 0)
    with pytest.raises(ValueError, match="exits domain"):
        resample(u, unit_square_grid(17), 1.5)
    with pytest.raises(ValueError, match="rank mismatch"):
        resample(u, unit_square_grid(17, ndim=3), 1.0)


def test_resample_rejects_nan_scale():
    u = random_field(unit_square_grid(9), 0)
    with pytest.raises(ValueError, match="interpolation point exits domain"):
        resample(u, u.grid, np.nan)


# ---------------------------------------------------------------------------
# symmetric matrices


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_symmatrix_eigenvalues_match_lapack(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    m = SymMatrix((a + a.T) / 2)
    mine = np.sort(m.eigenvalues())
    ref = np.linalg.eigvalsh(m.mat)
    np.testing.assert_allclose(mine, ref, rtol=0, atol=1e-10 * (1 + np.abs(ref).max()))


def test_symmatrix_frobenius():
    m = SymMatrix([[2.0, -1.0], [-1.0, 0.5]])
    assert m.frobenius() == pytest.approx(np.sqrt(4 + 1 + 1 + 0.25))


# ---------------------------------------------------------------------------
# serialization


def test_grid_function_round_trip_is_bit_exact(tmp_path, grid33):
    u = random_field(grid33, 11, scale=np.pi)
    p = tmp_path / "u.txt"
    write_grid_function(u, p)
    v = read_grid_function(p)
    assert v.grid == grid33
    np.testing.assert_array_equal(v.values, u.values)


@pytest.mark.parametrize("ndim", [1, 2])
def test_grid_function_text_is_formatted_value_by_value(tmp_path, ndim):
    g = Grid(Domain((-0.5,) * ndim, (1.0,) * ndim), (13,) * ndim)
    vals = np.pi * np.random.default_rng(3).standard_normal(g.node_count)
    vals[:6] = [0.1, -0.0, 3.0, 1e-300, -1e22, 2.0 / 3.0]
    u = GridFunction(g, vals)
    p = tmp_path / "u.txt"
    write_grid_function(u, p)
    head = [str(ndim)] + ["13"] * ndim + ["%.17g" % b for b in (-0.5, 1.0) * ndim]
    text = p.read_text()
    assert text.endswith("\n")
    assert text.splitlines() == [" ".join(head)] + ["%.17g" % v for v in u.values]


def test_grid_file_bytes_are_the_per_value_formatting(tmp_path):
    """One format over all values writes the bytes that formatting value by
    value and joining the lines wrote: -0.0, the smallest subnormal, the
    largest magnitudes and integral floats included."""
    vals = [-0.0, 5e-324, 1e308, 0.1, 3.0, -7.0, 2.0**53, -1e308, 0.0]
    u = GridFunction(Grid(Domain((-1.0,), (2.5,)), (len(vals),)), np.array(vals))
    p = tmp_path / "u.txt"
    write_grid_function(u, p)
    lines = ["1 9 -1 2.5"] + list(map("%.17g".__mod__, vals))
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_write_is_deterministic(tmp_path, grid33):
    u = random_field(grid33, 5)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_grid_function(u, a)
    write_grid_function(u, b)
    assert a.read_bytes() == b.read_bytes()


def test_manifest_round_trip(tmp_path):
    p = tmp_path / "m.txt"
    write_manifest(p, {"b": 2, "a": "x y", "c": 0.125})
    got = read_manifest(p)
    assert got == {"a": "x y", "b": "2", "c": "0.125"}
    # keys come out sorted in the file itself
    lines = p.read_text().strip().splitlines()
    assert lines == sorted(lines)
