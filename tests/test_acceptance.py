"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run `pytest -s tests/test_acceptance.py` to see every line; each criterion is
also a hard assertion, so the suite fails loudly if any of them regresses.
Everything here recomputes its numbers from scratch at the stated tolerances;
nothing is read back from fixtures of this repository's own making.
"""

import subprocess
import sys

import numpy as np
import pytest

from ellipticlab import (
    Ball,
    Bounds,
    DecayConfig,
    GridFunction,
    SymMatrix,
    best_affine,
    build_fixture,
    check_homogeneity,
    check_pointwise,
    check_uniform_ellipticity,
    decay_profile,
    disc_problem,
    limit_families,
    limit_stability_experiment,
    linear_operator,
    max_of_linear,
    normalize,
    oscillation,
    pucci_max,
    pucci_min,
    quartic_perturb,
    rescale_sequence,
    solve_dirichlet,
    solve_obstacle,
    stability_sweep,
    trace_operator,
    verify_decay_chain,
)
from ellipticlab.grids import ball_samples

from conftest import dense_minimax_width, field, sample_bilinear, unit_square_grid

TRACE = trace_operator()


def verdict(num, ok, detail):
    line = "[criterion %d] %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def disc129():
    """The 129^2 obstacle run is the big-ticket solve; criteria 3 and 8 share it."""
    return solve_obstacle(disc_problem(129))


# ---------------------------------------------------------------------------


def test_criterion_1_operator_axioms():
    ops = [
        TRACE,
        linear_operator([[2.0, 0.5], [0.5, 1.0]]),
        pucci_max(1.0, 2.0),
        pucci_min(1.0, 2.0),
        max_of_linear([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]),
    ]
    worst = 0.0
    ok = True
    for op in ops:
        ell = check_uniform_ellipticity(op, sample_count=10_000, seed=0)
        hom = check_homogeneity(op, sample_count=10_000, seed=0)
        ok &= ell.passed and hom.passed
        worst = max(worst, ell.worst_normalized, hom.worst_normalized)
    ok &= worst <= 1e-10
    verdict(1, ok, "ellipticity + homogeneity over 10^4 pairs x %d operators, "
                   "worst normalized violation %.2e (tol 1e-10)" % (len(ops), worst))


def test_criterion_2_scheme_exactness_and_order():
    # exact quadratic: the discrete operator reproduces it within tolerance
    g = unit_square_grid(65)
    star = field(g, lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2) + p[:, 0])
    exact = solve_dirichlet(TRACE, 2.0, star)
    exact_gap = float(np.max(np.abs(exact.u.values - star.values)))
    exact_ok = exact.residual <= 1e-9 * 3.0 and exact_gap <= 1e-12

    errs = []
    prev = None
    for res in (33, 65, 129):
        gg = unit_square_grid(res)
        target = field(gg, lambda p: np.sin(p[:, 0]) * np.sin(p[:, 1]))
        f = target.with_values(-2.0 * target.values)
        init = None if prev is None else GridFunction(gg, sample_bilinear(prev, gg.points()))
        r = solve_dirichlet(TRACE, f, target, initial=init)
        errs.append(float(np.max(np.abs(r.u.values - target.values))))
        prev = r.u
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = exact_ok and all(rt >= 3.5 for rt in ratios)
    verdict(2, ok, "quadratic reproduced to %.1e; sup-error ratios "
                   "33->65->129: %.2f, %.2f (need >= 3.5)" % (exact_gap, *ratios))


def test_criterion_3_manufactured_inequality(disc129):
    rep = check_pointwise(disc129.u, TRACE, Bounds(disc129.lam_lo, disc129.lam_hi))
    ok = rep.passed and disc129.contact_fraction >= 0.05
    verdict(3, ok, "disc obstacle at 129^2: pointwise certified in "
                   "[%.4g, %.4g], contact fraction %.1f%% (need >= 5%%)"
                   % (disc129.lam_lo, disc129.lam_hi, 100 * disc129.contact_fraction))


def test_criterion_4_limit_stability_and_localization():
    fams = limit_families(65)
    fam_ok = {}
    for name, (gen, u_inf, lam_inf) in sorted(fams.items()):
        rep = limit_stability_experiment(gen, 6, TRACE, u_limit=u_inf,
                                         lam_limit=lam_inf)
        fam_ok[name] = rep.passed

    # localization: near-maximizers of (u_k - u) - |x - x0|^4 stay quartically
    # close to x0 in terms of the uniform distance between u_k and u
    g = unit_square_grid(129)
    x1 = g.points()[:, 0]
    x0 = np.array([0.25, -0.1875])  # an interior grid node off both axes
    loc_ok = True
    worst_gap = -np.inf
    for k in range(1, 21):
        diff = GridFunction(g, np.sin(k * x1) / k ** 3)
        dist = float(np.max(np.abs(diff.values)))
        w = quartic_perturb(diff, x0)
        near = w.values >= w.values.max() - 1e-12
        r4 = np.einsum("ij,ij->i", g.points() - x0, g.points() - x0) ** 2
        gap = float(np.max(r4[near]) - 2.0 * dist)
        worst_gap = max(worst_gap, gap)
        loc_ok &= np.all(r4[near] <= 2.0 * dist + 2e-12)
    ok = all(fam_ok.values()) and loc_ok
    verdict(4, ok, "families %s; |y-x0|^4 <= 2||u-u_k|| for k=1..20 "
                   "(worst slack %.2e)" % (fam_ok, worst_gap))


def test_criterion_5_affine_fit_oracle():
    rng_master = np.random.default_rng(2024)
    worst = 0.0
    radii_used = []
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        ndim = 1 if trial % 2 == 0 else 2
        res = 257 if ndim == 1 else 49
        g = unit_square_grid(res, ndim=ndim)
        pts = g.points()
        coef = rng.standard_normal(5)
        vals = (coef[0] * pts[:, 0] ** 2 + coef[1] * pts[:, 0]
                + coef[2] * np.sin(3.0 * pts[:, 0]) + coef[3])
        if ndim == 2:
            vals = vals + coef[4] * pts[:, 0] * pts[:, 1] + 0.5 * pts[:, 1] ** 2
        u = GridFunction(g, vals)
        radius = float(0.08 * 10 ** rng.uniform(0, 1))  # one decade of radii
        radii_used.append(radius)
        lo = 0.999 - radius
        center = tuple(rng.uniform(-lo, lo, size=ndim))
        ball = Ball(center, radius)
        fit = best_affine(u, ball)
        _, brute = dense_minimax_width(*ball_samples(u, ball))
        worst = max(worst, abs(fit.width - brute))
    decade = max(radii_used) / min(radii_used)
    ok = worst <= 1e-9 and decade >= 8.0
    verdict(5, ok, "50 seeded 1D/2D fits vs dense search: worst osc gap %.2e "
                   "(tol 1e-9), radii span %.1fx" % (worst, decade))


def test_criterion_6_decay_exponent_recovery():
    cfg = DecayConfig(lam=0.25, beta=0.5, levels=2)
    hold = decay_profile(build_fixture("radial-holder:0.5", 257), (0.0, 0.0), cfg, 1.0)
    quad = decay_profile(build_fixture("quad", 257), (0.0, 0.0), cfg, 1.0)

    # harmonic through the solver at 2049^2: five dyadic quarterings of radius 1
    star = build_fixture("harmonic", 2049)
    solved = solve_dirichlet(TRACE, 0.0, star, initial=star)
    prof = decay_profile(solved.u, (0.0, 0.0),
                         DecayConfig(lam=0.25, beta=0.5, levels=4), 1.0)
    chain = verify_decay_chain(prof)
    chain_ok = all(row[3] for row in chain)

    ok = (abs(hold.beta_hat - 0.5) <= 0.05 and abs(quad.beta_hat - 1.0) <= 0.02
          and chain_ok and len(chain) >= 5)
    verdict(6, ok, "beta_hat: holder 0.5 -> %.4f (+-0.05), quad -> %.4f (+-0.02); "
                   "harmonic chain %d/%d levels hold at C = lam^(-3/2)"
                   % (hold.beta_hat, quad.beta_hat,
                      sum(row[3] for row in chain), len(chain)))


def test_criterion_7_blowup_bookkeeping():
    w, kappa = normalize(build_fixture("harmonic", 1025), radius=1.0, lam=0.0,
                         eps=0.5, unit_nodes=1025)
    seq = rescale_sequence(w, DecayConfig(lam=0.25, beta=0.5), levels=8)
    oscs = [s.osc for s in seq.states]
    seq_ok = len(oscs) >= 3 and all(o < 1.0 for o in oscs)

    norm_ok = True
    for name in ("harmonic", "quad", "kink", "radial-holder:0.5"):
        u = build_fixture(name, 129)
        for radius in (1.0, 0.5):
            for lam in (0.0, 1.0, 4.0):
                v, kap = normalize(u, radius=radius, lam=lam, eps=0.5)
                norm_ok &= oscillation(v, Ball((0.0, 0.0), 1.0)) < 1.0
                norm_ok &= radius ** 2 * lam / kap <= 0.5 + 1e-15
    ok = seq_ok and norm_ok
    verdict(7, ok, "rescaled oscillations %s (all < 1, kappa %.3g); normalize "
                   "postconditions hold on 4 fixtures x 6 parameter pairs"
                   % (["%.3f" % o for o in oscs], kappa))


def test_criterion_8_mollified_sandwich_and_sweep(disc129):
    u, h = disc129.u, disc129.u.grid.h
    eye = SymMatrix.identity(2)
    schedule = [24 * h, 16 * h, 12 * h, 8 * h]
    ob_rows = stability_sweep(u, eye, disc129.lam_lo, disc129.lam_hi,
                              schedule, p=4.0, r=0.15)
    sand = ob_rows[-1]  # the sandwich at eps = 8h
    quad = build_fixture("quad", 129)
    hq = quad.grid.h
    q_rows = stability_sweep(quad, eye, 0.0, 4.0,
                             [24 * hq, 16 * hq, 12 * hq, 8 * hq], p=4.0, r=0.25)
    flat = max(
        max(r.norm_p for r in rows) / min(r.norm_p for r in rows)
        for rows in (ob_rows, q_rows))

    kink = build_fixture("kink", 129)
    hk = kink.grid.h
    k_rows = stability_sweep(kink, eye, -1.0, 1.0,
                             [24 * hk, 16 * hk, 12 * hk, 8 * hk], p=4.0, r=0.3)
    growth = k_rows[-1].norm_p / k_rows[0].norm_p
    mass_growth = growth ** 4

    ok = (sand.passed and flat <= 2.0 and mass_growth >= 4.0
          and not any(r.passed for r in k_rows))
    verdict(8, ok, "sandwich on obstacle at eps=8h: %s; bounded-f sweep ratio "
                   "%.3f (<= 2); kink L4 mass grows %.1fx (norm %.2fx, need "
                   "mass >= 4) and its sandwich fails as designed"
                   % (sand.passed, flat, mass_growth, growth))


def test_criterion_9_byte_identical_reruns(tmp_path):
    jobs = {
        "props": ("props", "--seed", "11", "--op", "pucci+:1,2"),
        "solve": ("solve", "--fixture", "quad", "--res", "33"),
        "obstacle": ("obstacle", "--fixture", "disc", "--res", "33"),
        "campanato": ("campanato", "--fixture", "harmonic", "--res", "129",
                      "--levels", "2"),
        "mollify": ("mollify", "--fixture", "quad", "--res", "65"),
        "limit": ("limit", "--res", "33", "--levels", "2"),
    }
    checked = 0
    ok = True
    for name, argv in sorted(jobs.items()):
        outs = []
        for rerun in ("a", "b"):
            out = tmp_path / (name + rerun)
            r = subprocess.run([sys.executable, "-m", "ellipticlab.cli", *argv,
                                "--out", str(out)], capture_output=True, text=True)
            ok &= r.returncode == 0
            outs.append(out)
        if name == "obstacle":  # visc feeds on the obstacle artifacts
            for rerun, src in zip(("a", "b"), outs):
                out = tmp_path / ("visc" + rerun)
                r = subprocess.run([sys.executable, "-m", "ellipticlab.cli", "visc",
                                    "--input", str(src / "solution.txt"),
                                    "--out", str(out)], capture_output=True, text=True)
                ok &= r.returncode == 0
        for csv in sorted(p.name for p in outs[0].glob("*.csv")):
            ok &= (outs[0] / csv).read_bytes() == (outs[1] / csv).read_bytes()
            checked += 1
    for csv in sorted(p.name for p in (tmp_path / "visca").glob("*.csv")):
        ok &= ((tmp_path / "visca" / csv).read_bytes()
               == (tmp_path / "viscb" / csv).read_bytes())
        checked += 1
    verdict(9, ok, "7 commands rerun with identical arguments: %d CSV artifacts "
                   "byte-identical" % checked)
