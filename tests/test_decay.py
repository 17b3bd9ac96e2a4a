import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import (
    Ball,
    DecayConfig,
    GridFunction,
    best_affine,
    build_fixture,
    decay_profile,
    normalize,
    oscillation,
    rescale_sequence,
    square_grid,
    verify_decay_chain,
)
from ellipticlab import cli
from ellipticlab.grids import ball_samples

from conftest import csv_cell, field, lp_minimax_width, sample_bilinear, unit_square_grid


# ---------------------------------------------------------------------------
# config invariants


def test_decay_config_defaults_and_sigma():
    cfg = DecayConfig()
    assert cfg.lam == 0.25 and cfg.beta == 0.5
    assert cfg.sigma == pytest.approx(math.log(2.0) / -math.log(0.25))
    assert cfg.sigma == pytest.approx(0.5)


def test_decay_config_rejects_half_lambda():
    # 2 * lam^(1-beta) = sqrt(2) > 1: the induction never closes at lam = 1/2
    with pytest.raises(ValueError, match="does not close"):
        DecayConfig(lam=0.5, beta=0.5)


@pytest.mark.parametrize("kw", [dict(lam=0.0), dict(lam=1.0), dict(beta=0.0),
                                dict(beta=1.0), dict(lam=math.nan),
                                dict(beta=math.nan), dict(levels=0)])
def test_decay_config_rejects_bad_parameters(kw):
    with pytest.raises(ValueError):
        DecayConfig(**kw)


def test_decay_config_marginal_closure_allowed():
    # equality 2 lam^(1-beta) = 1 is the borderline induction; keep it legal
    DecayConfig(lam=0.25, beta=0.5)


# ---------------------------------------------------------------------------
# best affine fits


def test_parabola_fit_matches_chebyshev(grid65):
    u = build_fixture("quad", 65)
    fit = best_affine(u, Ball((0.0, 0.0), 0.5))
    np.testing.assert_allclose(fit.slope, 0.0, atol=1e-12)
    assert fit.width == pytest.approx(0.125, abs=1e-12)


def test_affine_fit_recovers_an_affine_field(grid33):
    u = field(grid33, lambda p: 1.0 + 2.0 * p[:, 0] - 0.5 * p[:, 1])
    fit = best_affine(u, Ball((0.0, 0.0), 0.5))
    assert fit.width == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(fit.slope, (2.0, -0.5), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
def test_best_affine_equivariant_under_affine_shifts(seed, c, p0, p1):
    """Adding c + p.x moves the slope by exactly p and leaves the width alone."""
    g = unit_square_grid(17)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    ball = Ball((0.0, 0.0), 0.8)
    base = best_affine(u, ball)
    shifted = best_affine(
        field(g, lambda x: u.values + c + x @ np.array([p0, p1])), ball)
    assert shifted.width == pytest.approx(base.width, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(shifted.slope, base.slope + [p0, p1],
                               rtol=0, atol=2e-7)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_best_affine_matches_dense_search(seed):
    """Against the exact minimax width (HiGHS): the dense grid search misses
    it by more than 1e-9 on about one seed in 300 (406640: 4.1e-9)."""
    g = unit_square_grid(21)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    ball = Ball((0.0, 0.0), 0.7)
    fit = best_affine(u, ball)
    assert abs(fit.width - lp_minimax_width(*ball_samples(u, ball))) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.2, 0.4), st.floats(0.45, 0.9))
def test_corrected_oscillation_monotone_in_radius(seed, r1, r2):
    g = unit_square_grid(33)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    psi1 = best_affine(u, Ball((0.0, 0.0), r1)).width
    psi2 = best_affine(u, Ball((0.0, 0.0), r2)).width
    assert psi1 <= psi2 + 1e-12


# ---------------------------------------------------------------------------
# decay profiles


def test_profile_recovers_quadratic_exponent():
    u = build_fixture("quad", 257)
    cfg = DecayConfig(lam=0.25, beta=0.5, levels=2)
    prof = decay_profile(u, (0.0, 0.0), cfg, radius0=1.0)
    assert prof.slope == pytest.approx(2.0, abs=1e-9)
    assert prof.beta_hat == pytest.approx(1.0, abs=1e-9)
    assert all(prof.usable)
    assert prof.spread == 0.0  # leave-one-out needs more than 3 usable levels
    np.testing.assert_allclose(
        prof.phi, np.asarray(prof.psi) / np.asarray(prof.radii) ** 1.5, rtol=1e-12)


def test_profile_reports_pivots_per_level():
    prof = decay_profile(build_fixture("quad", 257), (0.0, 0.0),
                         DecayConfig(lam=0.25, beta=0.5, levels=2), radius0=1.0)
    assert len(prof.pivots) == len(prof.radii)
    assert all(isinstance(p, int) and p >= 0 for p in prof.pivots)


def test_profile_recovers_holder_exponent():
    u = build_fixture("radial-holder:0.5", 257)
    cfg = DecayConfig(lam=0.25, beta=0.5, levels=2)
    prof = decay_profile(u, (0.0, 0.0), cfg, radius0=1.0)
    assert prof.slope == pytest.approx(1.5, abs=1e-6)
    assert prof.beta_hat == pytest.approx(0.5, abs=1e-6)


def test_profile_spread_with_four_usable_levels():
    u = build_fixture("harmonic", 1025)
    cfg = DecayConfig(lam=0.25, beta=0.5, levels=3)
    prof = decay_profile(u, (0.0, 0.0), cfg, radius0=1.0)
    assert sum(prof.usable) == 4
    assert prof.beta_hat == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= prof.spread < 1e-6


def test_profile_resolution_floor():
    u = build_fixture("harmonic", 65)
    with pytest.raises(ValueError, match="resolution floor violated"):
        decay_profile(u, (0.0, 0.0), DecayConfig(levels=4), radius0=1.0)


def test_profile_needs_three_usable_levels():
    g = unit_square_grid(257)
    aff = field(g, lambda p: 0.25 + 0.5 * p[:, 0] - 0.125 * p[:, 1])
    with pytest.raises(ValueError, match="fewer than 3 usable levels"):
        decay_profile(aff, (0.0, 0.0), DecayConfig(levels=2), radius0=1.0)


def test_chain_certificate_on_harmonic():
    u = build_fixture("harmonic", 257)
    cfg = DecayConfig(lam=0.25, beta=0.5, levels=2)
    prof = decay_profile(u, (0.0, 0.0), cfg, radius0=1.0)
    rows = verify_decay_chain(prof)
    assert [ok for _, _, _, ok in rows] == [True] * 3
    # psi(r) = 2 r^2 exactly on dyadic grids: Phi_k = 2 * 2^-k vs 16 * 2^-k
    for k, phi, bound, _ in rows:
        assert phi == pytest.approx(2.0 * 2.0 ** -k, rel=1e-12)
        assert bound == pytest.approx(16.0 * 2.0 ** -k, rel=1e-12)


def test_profile_csv_is_deterministic(tmp_path):
    """``campanato`` writes decay.csv: the same bytes on a rerun, one row per
    level of the profile the test recomputes, then the fit's footer."""
    for run in ("a", "b"):
        assert cli.main(["campanato", "--fixture", "quad", "--out", str(tmp_path / run)]) == 0
    a, b = tmp_path / "a" / "decay.csv", tmp_path / "b" / "decay.csv"
    assert a.read_bytes() == b.read_bytes()
    prof = decay_profile(build_fixture("quad", 257), (0.0, 0.0), DecayConfig(levels=2),
                         radius0=1.0)
    rows = [(k, prof.radii[k], prof.psi[k], prof.phi[k], prof.usable[k])
            for k in range(len(prof.radii))]
    rows += [("# slope", prof.slope), ("# beta_hat", prof.beta_hat), ("# sigma", prof.sigma),
             ("# bootstrap_spread", prof.spread)]
    assert a.read_text().splitlines() == ["k,r,psi,phi,usable"] + [
        ",".join(map(csv_cell, row)) for row in rows]


# ---------------------------------------------------------------------------
# normalization and blow-up bookkeeping


def test_normalize_harmonic_kappa():
    u = build_fixture("harmonic", 257)
    w, kappa = normalize(u, radius=1.0, lam=0.0, eps=0.5)
    assert kappa == pytest.approx(4.0)  # 0/eps + 1 + osc 2 + 1
    assert oscillation(w, Ball((0.0, 0.0), 1.0)) == pytest.approx(0.5)


def test_normalize_epsilon_postcondition():
    u = build_fixture("quad", 129)
    for radius in (1.0, 0.5):
        for lam in (0.0, 1.0, 7.0):
            w, kappa = normalize(u, radius=radius, lam=lam, eps=0.5)
            assert radius ** 2 * lam / kappa <= 0.5 + 1e-15
            assert oscillation(w, Ball((0.0, 0.0), 1.0)) < 1.0


@pytest.mark.parametrize("lam, eps", [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5)],
                         ids=["nan-lam", "nan-eps", "inf-lam"])
def test_normalize_refuses_non_finite_bounds(lam, eps):
    """NaN failed both comparisons of the checks, so kappa came out NaN and
    the call failed later as non-finite grid values; an infinite lam gives
    an infinite kappa.  Each is refused at the check."""
    u = build_fixture("quad", 33)
    match = "lam is a magnitude bound" if eps == 0.5 else "radius and eps must be positive"
    with pytest.raises(ValueError, match=match):
        normalize(u, 1.0, lam, eps)


@pytest.mark.parametrize("radius", [1.0, 0.7])
@pytest.mark.parametrize("name, res, unit_nodes", [
    ("harmonic", 257, 257), ("quad", 129, 65), ("radial-holder:0.5", 257, 65)])
def test_lattice_sampling_is_the_sample_bilinear_formula(name, res, unit_nodes, radius):
    """normalize and rescale_sequence sample lattices through resample; their
    values equal the point-cloud formulas bit for bit."""
    u = build_fixture(name, res)
    w, kappa = normalize(u, radius=radius, lam=0.0, eps=0.5, unit_nodes=unit_nodes)
    unit = square_grid(unit_nodes)
    assert np.array_equal(w.values, sample_bilinear(u, radius * unit.points()) / kappa)
    cfg = DecayConfig(lam=0.25, beta=0.5)
    seq = rescale_sequence(w, cfg, levels=8)
    pts = square_grid(65).points()
    for s in seq.states:
        phys = cfg.lam**s.level * pts
        amp = 2.0**s.level * cfg.lam ** (-s.level * (1.0 + cfg.beta))
        want = amp * (sample_bilinear(w, phys) - phys @ np.asarray(s.q))
        assert np.array_equal(s.u.values, want)


def test_rescale_requires_unit_oscillation():
    u = build_fixture("harmonic", 129)
    with pytest.raises(ValueError, match=r"must be < 1 \(got 2\)"):
        rescale_sequence(u, DecayConfig())


def test_rescale_marginal_case_is_pinned():
    """lam = 1/4, beta = 1/2 sits exactly on the induction boundary: the
    rescaled oscillation neither grows nor decays."""
    u = build_fixture("harmonic", 257)
    w, _ = normalize(u, radius=1.0, lam=0.0, eps=0.5, unit_nodes=257)
    seq = rescale_sequence(w, DecayConfig(lam=0.25, beta=0.5), levels=8)
    assert seq.truncated and seq.requested == 8
    assert len(seq.states) == 3  # floor: lam^k >= 4 h_source
    for s in seq.states:
        assert s.osc == pytest.approx(0.5, abs=1e-12)
        assert s.osc < 1.0
        np.testing.assert_allclose(s.q, 0.0, atol=1e-12)


def test_rescale_accumulates_affine_corrections():
    g = unit_square_grid(257)
    u = field(g, lambda p: (p[:, 0] ** 2 - p[:, 1] ** 2) / 4.0 + 0.1 * p[:, 0])
    seq = rescale_sequence(u, DecayConfig(lam=0.25, beta=0.5), levels=2)
    # the level-0 fit strips the planted slope from every later level
    assert seq.states[1].q[0] == pytest.approx(0.1, abs=1e-9)
    assert seq.states[1].q[1] == pytest.approx(0.0, abs=1e-9)
