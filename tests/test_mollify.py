import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import (
    Ball,
    GridFunction,
    MollifierKernel,
    SymMatrix,
    build_fixture,
    hessian_lp_norm,
    mollify,
    sandwich_check,
    stability_sweep,
)

from conftest import field, shift_add_convolve, unit_square_grid

mollify_module = sys.modules["ellipticlab.mollify"]  # ellipticlab.mollify is the function


# ---------------------------------------------------------------------------
# kernels


def test_kernel_has_unit_mass(grid65):
    k = MollifierKernel.build(grid65, 8 * grid65.h)
    assert k.weights.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all(k.weights >= 0)


def test_kernel_under_resolved(grid65):
    with pytest.raises(ValueError, match="need eps >= 3h"):
        MollifierKernel.build(grid65, 2.5 * grid65.h)


def test_kernel_half_width_rounding(grid65):
    h = grid65.h
    assert MollifierKernel.build(grid65, 3 * h).half_width == 3
    assert MollifierKernel.build(grid65, 3.9 * h).half_width == 3
    assert MollifierKernel.build(grid65, 4 * h).half_width == 4


def test_shrunken_domain_geometry(grid65):
    """mollify reports on the nodes strictly farther than eps from the
    boundary: trim is half_width + 1."""
    u = GridFunction(grid65, np.zeros(grid65.node_count))
    grid = mollify(u, 8 * grid65.h).grid
    assert grid.shape == (65 - 2 * 9, 65 - 2 * 9)
    assert grid.domain.lower == (grid65.domain.lower[0] + 9 * grid65.h,) * 2


def test_shrunken_domain_empty():
    g = unit_square_grid(17)
    with pytest.raises(ValueError, match="margin removes every interior node"):
        mollify(GridFunction(g, np.zeros(g.node_count)), 7 * g.h)


# ---------------------------------------------------------------------------
# the FFT convolution against the shift-and-add oracle


def _assert_matches_oracle(lat, weights):
    got = mollify_module._convolve_valid(lat, weights)
    want = shift_add_convolve(lat, weights)
    assert got.shape == want.shape
    tol = 1e-13 * np.max(np.abs(lat)) * np.sum(np.abs(weights))
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def _zero_bordered(rng, shape):
    w = np.zeros(shape)
    w[(slice(1, -1),) * len(shape)] = rng.random(tuple(s - 2 for s in shape))
    return w


@pytest.mark.parametrize("lat_shape, w_shape, border", [
    ((301,), (17,), False),
    ((301,), (9,), True),
    ((33, 33), (7, 7), False),
    ((33, 33), (9, 5), True),
    ((41, 33), (5, 11), False),
    ((41, 33), (13, 7), True),
    ((301,), (301,), False),        # one output node left
    ((41, 33), (41, 33), False),    # one output node per axis left
])
def test_convolve_matches_shift_and_add(lat_shape, w_shape, border):
    """Random lattices and asymmetric (or zero-bordered) weights: the FFT
    product equals the direct sum to 1e-13 |lat|_inf |w|_1."""
    rng = np.random.default_rng(sum(lat_shape) * 31 + sum(w_shape))
    lat = rng.standard_normal(lat_shape)
    weights = _zero_bordered(rng, w_shape) if border else rng.random(w_shape) - 0.3
    _assert_matches_oracle(lat, weights)


@pytest.mark.parametrize("keps", [24, 16, 12, 8])
def test_convolve_matches_shift_and_add_on_the_sweep_kernels(keps):
    u = build_fixture("kink", 129)
    kern = MollifierKernel.build(u.grid, keps * u.grid.h)
    _assert_matches_oracle(u.lattice(), kern.weights)


def test_convolve_rejects_an_empty_output():
    with pytest.raises(ValueError, match="margin removes every interior node"):
        mollify_module._convolve_valid(np.zeros((17, 17)), np.ones((19, 19)))
    g = unit_square_grid(17)
    with pytest.raises(ValueError, match="margin removes every interior node"):
        mollify(field(g, lambda p: p[:, 0]), 9 * g.h)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mollify_rejects_non_finite_values(bad):
    """The FFT would spread one bad value over every output node."""
    g = unit_square_grid(33)
    vals = np.zeros(g.node_count)
    vals[g.node_count // 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        mollify(GridFunction(g, vals, allow_non_finite=True), 4 * g.h)


@pytest.mark.parametrize("name, f1, f2, r", [("quad", 0.0, 4.0, 0.25),
                                             ("kink", -1.0, 1.0, 0.3)])
def test_sweep_matches_the_shift_and_add_sweep(monkeypatch, name, f1, f2, r):
    u = build_fixture(name, 129)
    h = u.grid.h
    args = (u, SymMatrix.identity(2), f1, f2, [24 * h, 16 * h, 12 * h, 8 * h])
    rows = stability_sweep(*args, p=4.0, r=r)
    monkeypatch.setattr(mollify_module, "_convolve_valid", shift_add_convolve)
    want = stability_sweep(*args, p=4.0, r=r)
    assert [row.passed for row in rows] == [row.passed for row in want]
    for row, ref in zip(rows, want):
        assert row.eps == ref.eps
        assert row.norm_p == pytest.approx(ref.norm_p, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# mollification


def test_mollify_affine_is_exact():
    g = unit_square_grid(65)
    u = field(g, lambda p: 0.25 - 2.0 * p[:, 0] + 0.5 * p[:, 1])
    ue = mollify(u, 6 * g.h)
    want = field(ue.grid, lambda p: 0.25 - 2.0 * p[:, 0] + 0.5 * p[:, 1])
    np.testing.assert_allclose(ue.values, want.values, rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 8))
def test_mollify_is_a_sup_norm_contraction(seed, keps):
    g = unit_square_grid(33)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    ue = mollify(u, keps * g.h)
    assert ue.sup_norm() <= u.sup_norm() + 1e-12


def test_mollified_parabola_shift_is_the_second_moment():
    """eta * x^2 = x^2 + m2(eta), spatially constant: a sharp kernel check."""
    g = unit_square_grid(129)
    u = field(g, lambda p: p[:, 0] ** 2)
    eps = 8 * g.h
    ue = mollify(u, eps)
    kern = MollifierKernel.build(g, eps)
    # the per-axis second moment sum_d w(d) (d_x h)^2; x varies fastest
    k = kern.half_width
    m2 = float(np.sum(kern.weights * ((np.arange(-k, k + 1) * g.h) ** 2)[None, :]))
    shift = ue.values - field(ue.grid, lambda p: p[:, 0] ** 2).values
    assert np.max(shift) - np.min(shift) <= 1e-13
    assert np.mean(shift) == pytest.approx(m2, abs=1e-10)


# ---------------------------------------------------------------------------
# sandwich checks


def test_sandwich_passes_on_exact_equation():
    u = build_fixture("quad", 65)
    rep = sandwich_check(u, SymMatrix.identity(2), 2.0, 2.0, 6 * u.grid.h)
    assert rep.passed
    assert rep.worst_lower >= -1e-10
    assert rep.worst_upper >= -1e-10


def test_sandwich_fails_when_bounds_lie():
    """u = |x|^2/2 has A:D^2u = 2; claiming 0 <= g <= 0 must be refuted with
    a worst upper margin of about -2."""
    u = build_fixture("quad", 65)
    rep = sandwich_check(u, SymMatrix.identity(2), 0.0, 0.0, 6 * u.grid.h)
    assert not rep.passed
    assert rep.worst_upper == pytest.approx(-2.0, abs=1e-9)
    assert rep.worst_lower == pytest.approx(2.0, abs=1e-9)


def test_sandwich_rejects_crossed_bounds():
    u = build_fixture("quad", 65)
    with pytest.raises(ValueError, match="f1 <= f2"):
        sandwich_check(u, SymMatrix.identity(2), 1.0, -1.0, 6 * u.grid.h)


def test_sandwich_commutation_is_exact_for_linear_fields():
    """The discrete Hessian commutes with convolution, so mollifying the
    realized field and mollifying u give identical sandwiches up to roundoff."""
    g = unit_square_grid(65)
    rng = np.random.default_rng(7)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    from ellipticlab import eval_discrete, linear_operator

    a = np.array([[1.5, 0.25], [0.25, 1.0]])
    realized = eval_discrete(linear_operator(a), u)
    fvals = np.nan_to_num(realized.values)
    f = GridFunction(g, fvals)
    rep = sandwich_check(u, SymMatrix(a), f, f, 6 * g.h)
    scale = 1.0 + np.max(np.abs(fvals))
    assert rep.worst_lower >= -1e-9 * scale
    assert rep.worst_upper >= -1e-9 * scale
    assert rep.passed


def test_sandwich_report_shrinks_with_a_wider_stencil():
    """Selling's decomposition of [[1, 1.9], [1.9, 4]] reaches two node layers:
    the report covers the nodes where g_eps is defined, and convolution still
    commutes with the scheme exactly."""
    from ellipticlab import eval_discrete, linear_operator

    g = unit_square_grid(65)
    u = GridFunction(g, np.random.default_rng(8).standard_normal(g.node_count))
    a = np.array([[1.0, 1.9], [1.9, 4.0]])
    f = GridFunction(g, np.nan_to_num(eval_discrete(linear_operator(a), u).values))
    rep = sandwich_check(u, SymMatrix(a), f, f, 6 * g.h)
    assert rep.grid.shape == (65 - 2 * (6 + 2),) * 2
    scale = 1.0 + np.max(np.abs(f.values))
    assert min(rep.worst_lower, rep.worst_upper) >= -1e-9 * scale


# ---------------------------------------------------------------------------
# Hessian L^p norms


def test_hessian_norm_affine_is_zero():
    g = unit_square_grid(65)
    u_eps = mollify(field(g, lambda p: 1.0 + p[:, 0]), 6 * g.h)
    assert hessian_lp_norm(u_eps, 4.0, Ball((0.0, 0.0), 0.3)) == pytest.approx(0.0, abs=1e-12)


def test_hessian_norm_half_square_matches_area():
    # D^2(x1^2/2) = e11: |H|_F = 1, so the L^2 norm over B(0,1) is sqrt(pi);
    # the box is padded so the unit ball survives the mollification trim
    g = unit_square_grid(321, half=1.25)
    u_eps = mollify(field(g, lambda p: 0.5 * p[:, 0] ** 2), 6 * g.h)
    got = hessian_lp_norm(u_eps, 2.0, Ball((0.0, 0.0), 1.0))
    assert got == pytest.approx(np.sqrt(np.pi), rel=0.02)


def test_hessian_norm_rejects_margin_contact():
    g = unit_square_grid(65)
    u_eps = mollify(build_fixture("quad", 65), 6 * g.h)
    touching = Ball((0.0, 0.0), u_eps.grid.domain.upper[0])
    with pytest.raises(ValueError, match="Hessian is undefined"):
        hessian_lp_norm(u_eps, 4.0, touching)


# ---------------------------------------------------------------------------
# stability sweeps


def test_sweep_schedule_validation():
    u = build_fixture("quad", 65)
    a = SymMatrix.identity(2)
    h = u.grid.h
    with pytest.raises(ValueError, match="strictly decreasing"):
        stability_sweep(u, a, 0.0, 4.0, [8 * h, 8 * h], p=4.0, r=0.25)
    with pytest.raises(ValueError, match=">= 3h"):
        stability_sweep(u, a, 0.0, 4.0, [8 * h, 2 * h], p=4.0, r=0.25)
    with pytest.raises(ValueError, match="schedule"):
        stability_sweep(u, a, 0.0, 4.0, [], p=4.0, r=0.25)


def test_sweep_bounded_hessian_is_flat():
    u = build_fixture("quad", 129)
    h = u.grid.h
    rows = stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0,
                           [24 * h, 16 * h, 12 * h, 8 * h], p=4.0, r=0.25)
    norms = [row.norm_p for row in rows]
    assert all(row.passed for row in rows)
    assert max(norms) / min(norms) <= 1.0 + 1e-9  # constant Hessian: no drift


def test_sweep_kink_norm_blows_up_like_eps():
    """|x1| mollified has D^2 ~ 2 eta_eps: the L^4 norm scales like eps^(-3/4),
    so shrinking eps from 24h to 8h multiplies it by 3^(3/4) and the L^4 mass
    (norm^4) by 27: the fixture genuinely fails to be W^(2,4)."""
    u = build_fixture("kink", 129)
    h = u.grid.h
    rows = stability_sweep(u, SymMatrix.identity(2), -1.0, 1.0,
                           [24 * h, 16 * h, 12 * h, 8 * h], p=4.0, r=0.3)
    norms = [row.norm_p for row in rows]
    assert norms[-1] / norms[0] == pytest.approx(3.0 ** 0.75, rel=0.05)
    assert (norms[-1] / norms[0]) ** 4 >= 4.0
    # bounded claimed f cannot absorb a delta sheet: the sandwich must fail
    assert not any(row.passed for row in rows)


def test_sweep_convolves_u_once_per_eps(monkeypatch):
    """The sandwich and the norm share one convolution of u; the scalar bounds
    are not convolved at all (the kernel has unit mass)."""
    calls = []
    original = mollify_module._convolve_valid

    def counting(lat, weights):
        calls.append(lat.shape)
        return original(lat, weights)

    monkeypatch.setattr(mollify_module, "_convolve_valid", counting)
    u = build_fixture("quad", 65)
    h = u.grid.h
    rows = stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0,
                           [12 * h, 10 * h, 8 * h, 6 * h], p=4.0, r=0.2)
    assert len(calls) == 4
    assert all(row.passed for row in rows)


def test_sweep_csv_deterministic(tmp_path):
    u = build_fixture("quad", 65)
    h = u.grid.h
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0, [8 * h, 6 * h],
                    p=4.0, r=0.2, path=a)
    stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0, [8 * h, 6 * h],
                    p=4.0, r=0.2, path=b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0] == "eps,norm_p,pass-flag"
