import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import (
    Ball,
    GridFunction,
    SymMatrix,
    build_fixture,
    eval_discrete,
    hessian_lp_norm,
    linear_operator,
    mollify,
    operator_margin,
    stability_sweep,
)
from ellipticlab import cli
from ellipticlab.fileio import read_manifest

from conftest import csv_cell, field, shift_add_convolve, unit_square_grid

mollify_module = sys.modules["ellipticlab.mollify"]  # ellipticlab.mollify is the function


# ---------------------------------------------------------------------------
# kernels


def _half_width(grid, eps):
    return mollify_module._kernel(grid, eps).shape[0] // 2


def test_kernel_has_unit_mass(grid65):
    w = mollify_module._kernel(grid65, 8 * grid65.h)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    assert np.all(w >= 0)


def test_kernel_under_resolved(grid65):
    with pytest.raises(ValueError, match="need eps >= 3h"):
        mollify_module._kernel(grid65, 2.5 * grid65.h)


def test_kernel_half_width_rounding(grid65):
    h = grid65.h
    assert _half_width(grid65, 3 * h) == 3
    assert _half_width(grid65, 3.9 * h) == 3
    assert _half_width(grid65, 4 * h) == 4


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
    got = mollify_module._correlator(lat)(weights)
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
    _assert_matches_oracle(u.lattice(), mollify_module._kernel(u.grid, keps * u.grid.h))


def test_convolve_rejects_an_empty_output():
    with pytest.raises(ValueError, match="margin removes every interior node"):
        mollify_module._correlator(np.zeros((17, 17)))(np.ones((19, 19)))
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
    monkeypatch.setattr(mollify_module, "_correlator",
                        lambda lat: functools.partial(shift_add_convolve, lat))
    want = stability_sweep(*args, p=4.0, r=r)
    assert [row.passed for row in rows] == [row.passed for row in want]
    for row, ref in zip(rows, want):
        assert row.eps == ref.eps
        assert row.norm_p == pytest.approx(ref.norm_p, rel=1e-12, abs=0)
        assert row.worst_lower == pytest.approx(ref.worst_lower, rel=0, abs=1e-9)
        assert row.worst_upper == pytest.approx(ref.worst_upper, rel=0, abs=1e-9)


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
    w = mollify_module._kernel(g, eps)
    # the per-axis second moment sum_d w(d) (d_x h)^2; x varies fastest
    k = w.shape[0] // 2
    m2 = float(np.sum(w * ((np.arange(-k, k + 1) * g.h) ** 2)[None, :]))
    shift = ue.values - field(ue.grid, lambda p: p[:, 0] ** 2).values
    assert np.max(shift) - np.min(shift) <= 1e-13
    assert np.mean(shift) == pytest.approx(m2, abs=1e-10)


# ---------------------------------------------------------------------------
# sandwich checks


def _sandwich(u, f1, f2, eps):
    """The sweep's one row for a single eps, with identity A."""
    (row,) = stability_sweep(u, SymMatrix.identity(2), f1, f2, [eps], p=4.0, r=0.25)
    return row


def test_sandwich_passes_on_exact_equation():
    u = build_fixture("quad", 65)
    row = _sandwich(u, 2.0, 2.0, 6 * u.grid.h)
    assert row.passed
    assert row.worst_lower >= -1e-10
    assert row.worst_upper >= -1e-10


def test_sandwich_fails_when_bounds_lie():
    """u = |x|^2/2 has A:D^2u = 2; claiming 0 <= g <= 0 must be refuted with
    a worst upper margin of about -2."""
    u = build_fixture("quad", 65)
    row = _sandwich(u, 0.0, 0.0, 6 * u.grid.h)
    assert not row.passed
    assert row.worst_upper == pytest.approx(-2.0, abs=1e-9)
    assert row.worst_lower == pytest.approx(2.0, abs=1e-9)


def test_sandwich_rejects_crossed_bounds():
    u = build_fixture("quad", 65)
    with pytest.raises(ValueError, match="f1 <= f2"):
        _sandwich(u, 1.0, -1.0, 6 * u.grid.h)


@pytest.mark.parametrize("f1, f2", [(math.nan, 1.0), (-1.0, math.nan), (-math.inf, math.inf)])
def test_sandwich_rejects_non_finite_bounds(monkeypatch, f1, f2):
    """Refused by name before u is transformed."""
    monkeypatch.setattr(mollify_module, "_correlator", None)
    u = build_fixture("quad", 65)
    with pytest.raises(ValueError, match="sandwich bounds f1 = .* and f2 = .* must be finite"):
        _sandwich(u, f1, f2, 6 * u.grid.h)


@pytest.mark.parametrize("a, margin", [([[1.5, 0.25], [0.25, 1.0]], 1),
                                       ([[1.0, 1.9], [1.9, 4.0]], 2)])
def test_scheme_commutes_with_mollification(a, margin):
    """F_h(eta * u) = eta * (F_h u) on the nodes where both are defined: the
    stencil and the kernel both have constant coefficients.  Selling's
    decomposition of [[1, 1.9], [1.9, 4]] reaches two node layers."""
    g = unit_square_grid(65)
    u = GridFunction(g, np.random.default_rng(7).standard_normal(g.node_count))
    op = linear_operator(np.array(a))
    assert operator_margin(op, 2) == margin
    inner = (slice(margin, -margin),) * 2
    fu = eval_discrete(op, u)
    fu = GridFunction(mollify_module._trimmed_grid(g, margin), fu.lattice()[inner].ravel())
    left = eval_discrete(op, mollify(u, 6 * g.h)).lattice()[inner]
    right = mollify(fu, 6 * g.h).lattice()
    assert left.shape == right.shape == (65 - 2 * (6 + 1 + margin),) * 2
    np.testing.assert_allclose(left, right, rtol=0, atol=1e-9 * (1.0 + fu.sup_norm()))


@pytest.mark.parametrize("a", [[[1.5, 0.25], [0.25, 1.0]], [[1.0, 1.9], [1.9, 4.0]]])
def test_sandwich_covers_the_nodes_where_g_eps_is_defined(a):
    """F_h is exact on quadratics, so A:D^2(|x|^2/2) = tr A holds on every
    node the sweep compares; a node on the scheme's margin band would make
    the margins NaN."""
    u = build_fixture("quad", 65)
    tr = float(np.trace(a))
    (row,) = stability_sweep(u, SymMatrix(np.array(a)), tr, tr, [6 * u.grid.h],
                             p=4.0, r=0.25)
    assert row.passed
    assert abs(row.worst_lower) <= 1e-9 and abs(row.worst_upper) <= 1e-9


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


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_sweep_refuses_a_non_finite_eps(eps):
    """NaN fails every comparison and inf overflowed the kernel's width: both
    are refused before any kernel is built."""
    u = build_fixture("quad", 65)
    with pytest.raises(ValueError, match="every eps must be finite"):
        stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0, [eps], 4.0, 0.1)
    with pytest.raises(ValueError, match="every eps must be finite"):
        stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0, [0.5, eps], 4.0, 0.1)


@pytest.mark.parametrize("schedule, match", [
    ([], "schedule is empty"),
    ([math.inf], "every eps must be finite"),
    ([0.2, math.nan], "every eps must be finite"),
    ([0.1], "every eps must be finite and >= 3h"),  # 3h is 0.1875 at 33^2
    ([0.5, 0.5], "strictly decreasing"),
])
def test_one_schedule_check_for_the_cli_and_the_sweep(schedule, match):
    """``check_schedule`` is the one check: the sweep calls it, and so does
    ``mollify`` before it works out its norm ball."""
    u = build_fixture("quad", 33)
    with pytest.raises(ValueError, match=match):
        mollify_module.check_schedule(schedule, u.grid.h)
    with pytest.raises(ValueError, match=match):
        stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0, schedule, 4.0, 0.1)
    assert mollify_module.check_schedule((0.5, 0.25), u.grid.h) == [0.5, 0.25]


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
    """u is transformed forward once per sweep and back once per eps: the
    sandwich and the norm share one convolution, and the scalar bounds are
    not convolved at all (the kernel has unit mass)."""
    forward, inverse = [], []

    def counting(calls, fn):
        def wrapped(a, *args, **kwargs):
            calls.append(a.shape)
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.fft, "rfftn", counting(forward, np.fft.rfftn))
    monkeypatch.setattr(np.fft, "irfftn", counting(inverse, np.fft.irfftn))
    u = build_fixture("quad", 65)
    h = u.grid.h
    rows = stability_sweep(u, SymMatrix.identity(2), 0.0, 4.0,
                           [12 * h, 10 * h, 8 * h, 6 * h], p=4.0, r=0.2)
    lattice = u.lattice().shape
    assert forward.count(lattice) == 1  # the other forward transforms are the kernels'
    assert len(forward) == 1 + 4
    assert len(inverse) == 4
    assert all(row.passed for row in rows)


def test_sweep_csv_deterministic(tmp_path):
    """``mollify`` writes sweep.csv: the same bytes on a rerun, one row per eps
    of the sweep the test recomputes from the run manifest's parameters."""
    for run in ("a", "b"):
        assert cli.main(["mollify", "--fixture", "quad", "--out", str(tmp_path / run)]) == 0
    a, b = tmp_path / "a" / "sweep.csv", tmp_path / "b" / "sweep.csv"
    assert a.read_bytes() == b.read_bytes()
    m = read_manifest(tmp_path / "a" / "run_manifest.txt")
    rows = stability_sweep(build_fixture("quad", 65), SymMatrix.identity(2),
                           float(m["lam_lo"]), float(m["lam_hi"]),
                           [float(e) for e in m["eps_schedule"].split()], 4.0, float(m["r"]))
    assert a.read_text().splitlines() == ["eps,norm_p,pass-flag"] + [
        ",".join(map(csv_cell, (row.eps, row.norm_p, row.passed))) for row in rows]
