import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import minimax_affine

from conftest import affine_residual_width as width_at
from conftest import lp_minimax_width


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
