import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import Ball, GridFunction, minimax_affine
from ellipticlab.grids import ball_samples
from ellipticlab.simplex import _spanning_subset

from conftest import affine_residual_width as width_at
from conftest import lp_minimax_width, row_major_spanning_subset, unit_square_grid


def test_parabola_chebyshev_width_1d():
    x = np.linspace(-0.5, 0.5, 21)
    fit = minimax_affine(x, 0.5 * x ** 2)
    assert fit.slope[0] == pytest.approx(0.0, abs=1e-12)
    assert fit.width == pytest.approx(0.125, abs=1e-12)
    # residual extremes really are attained by the returned envelope
    assert width_at(x, 0.5 * x ** 2, fit.slope) == pytest.approx(fit.width, abs=1e-12)


def test_exact_affine_data_has_zero_width():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, size=(40, 2))
    u = 0.75 - 2.0 * x[:, 0] + 0.5 * x[:, 1]
    fit = minimax_affine(x, u)
    assert fit.width == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(fit.slope, [-2.0, 0.5], rtol=0, atol=1e-10)


def test_three_point_interpolation_is_tight():
    # n+1 = 3 points in 2D: an affine interpolant exists, width 0
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    u = np.array([1.0, 3.0, -1.0])
    fit = minimax_affine(x, u)
    assert fit.width == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(fit.slope, [2.0, -2.0], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 2))
def test_matches_brute_force_oracle(seed, ndim):
    rng = np.random.default_rng(seed)
    count = int(rng.integers(ndim + 2, 30))
    x = rng.uniform(-1, 1, size=(count, ndim))
    u = rng.standard_normal(count)
    fit = minimax_affine(x, u)
    oracle = lp_minimax_width(x, u)
    # the LP value is feasible and agrees with an independent LP solver
    assert width_at(x, u, fit.slope) == pytest.approx(fit.width, abs=1e-10)
    assert abs(fit.width - oracle) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_reported_width_is_a_true_minimum(seed):
    """Random probe slopes can never beat the LP optimum."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, size=(25, 2))
    u = rng.standard_normal(25)
    fit = minimax_affine(x, u)
    for _ in range(25):
        q = fit.slope + rng.standard_normal(2) * rng.choice([1e-6, 1e-3, 1.0])
        assert width_at(x, u, q) >= fit.width - 1e-11


def test_underdetermined_samples_rejected():
    x = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])  # collinear in 2D
    with pytest.raises(ValueError, match="underdetermined"):
        minimax_affine(x, np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError, match="underdetermined"):
        minimax_affine(np.array([[0.0, 0.0]]), np.array([1.0]))


def test_input_validation():
    with pytest.raises(ValueError, match="one value per point"):
        minimax_affine(np.zeros((5, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        minimax_affine(np.array([0.0, 1.0, np.nan]), np.zeros(3))


def _ball_cloud(res, radius):
    """The coordinate-major points of a centred ball on the res^2 square."""
    grid = unit_square_grid(res)
    zero = GridFunction(grid, np.zeros(grid.node_count))
    return ball_samples(zero, Ball((0.0, 0.0), radius))[0]


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_fit_is_the_same_for_either_memory_layout(ndim):
    """C- and F-ordered copies of one cloud give the same fit, bit for bit."""
    rng = np.random.default_rng(ndim)
    x = rng.uniform(-1, 1, size=(4001, ndim))
    u = np.sin(3.0 * x).sum(axis=1) + rng.standard_normal(4001)
    c, f = minimax_affine(np.ascontiguousarray(x), u), minimax_affine(np.asfortranarray(x), u)
    assert c.slope.tobytes() == f.slope.tobytes()
    assert (c.width, c.iterations) == (f.width, f.iterations)
    pts = _ball_cloud(65, 0.75)
    vals = np.hypot(*pts.T) ** 1.5
    c, f = minimax_affine(np.ascontiguousarray(pts), vals), minimax_affine(pts, vals)
    assert c.slope.tobytes() == f.slope.tobytes()
    assert (c.width, c.iterations) == (f.width, f.iterations)


@pytest.mark.parametrize("radius", [0.25 ** k for k in range(4)])
def test_greedy_start_matches_the_row_major_oracle_on_decay_balls(radius):
    """The decay ladder's balls at 257^2 (perfbench's regularity workload
    fits the first three): the start picks the oracle's samples."""
    pts = _ball_cloud(257, radius)
    assert _spanning_subset(pts.T) == row_major_spanning_subset(np.ascontiguousarray(pts))


@pytest.mark.parametrize("r2", [25, 50, 65, 325])
def test_greedy_start_breaks_exact_ties_like_the_oracle(r2):
    """A planar integer lattice ball, scaled by 1/8: r2 is a sum of two
    squares in several ways, so many extreme points lie at exactly the same
    distance, and the start breaks each tie the same way."""
    m = int(np.sqrt(r2))
    axes = np.meshgrid(*[np.arange(-m, m + 1)] * 2, indexing="ij")
    lattice = np.stack([a.ravel() for a in axes], axis=1)
    pts = lattice[np.sum(lattice ** 2, axis=1) <= r2] / 8.0
    assert _spanning_subset(np.ascontiguousarray(pts.T)) == row_major_spanning_subset(pts)
