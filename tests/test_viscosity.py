from dataclasses import replace

import numpy as np
import pytest

from ellipticlab import (
    Bounds,
    GridFunction,
    build_fixture,
    check_pointwise,
    check_touching,
    default_tolerance,
    disc_problem,
    discrete_hessian,
    eval_discrete,
    limit_families,
    limit_stability_experiment,
    make_touching_dictionary,
    operator_margin,
    parse_operator,
    pucci_max,
    quartic_perturb,
    solve_obstacle,
    trace_operator,
    write_grid_function,
)
from ellipticlab import cli
from ellipticlab.fileio import write_manifest
from ellipticlab.viscosity import VISC_NODE_BUDGET

from conftest import csv_cell, field, loop_touching, quadratic_field, unit_square_grid

TRACE = trace_operator()


def test_default_tolerance_formula(grid33):
    u = GridFunction(grid33, np.full(grid33.node_count, 3.0))
    assert default_tolerance(TRACE, u) == pytest.approx(10.0 * 1.0 * 4.0 * grid33.h)


def test_bounds_symmetric():
    b = Bounds.symmetric(2.0)
    assert (b.lam_lo, b.lam_hi) == (-2.0, 2.0)
    with pytest.raises(ValueError, match="symmetric bound must be >= 0"):
        Bounds.symmetric(-2.0)


# ---------------------------------------------------------------------------
# pointwise certification


def test_pointwise_certifies_exact_equation(grid65):
    u = build_fixture("quad", 65)  # trace(D^2 u) = 2 exactly
    rep = check_pointwise(u, TRACE, Bounds(2.0, 2.0))
    assert rep.passed
    assert rep.worst_upper == pytest.approx(0.0, abs=1e-11)
    assert rep.worst_lower == pytest.approx(0.0, abs=1e-11)


def test_pointwise_rejects_wrong_bounds():
    u = build_fixture("quad", 33)
    rep = check_pointwise(u, TRACE, Bounds(0.0, 0.0))
    assert not rep.passed
    assert rep.worst_upper == pytest.approx(2.0, abs=1e-11)


@pytest.mark.parametrize("spec", ["trace", "linear:1,1.9,4", "pucci+:1,2", "linear:3"])
def test_pointwise_checks_the_interior_nodes_in_storage_order(spec):
    """Margins 1, 2 and 3 on 2D grids, and a line."""
    op = parse_operator(spec)
    ndim = 1 if spec == "linear:3" else 2
    u = build_fixture("radial-holder:0.5", 33, ndim=ndim)
    rep = check_pointwise(u, op, Bounds(-1.0, 1.0))
    idx = np.flatnonzero(u.grid.interior_mask(operator_margin(op, ndim)))
    assert rep.node_indices.dtype == idx.dtype
    np.testing.assert_array_equal(rep.node_indices, idx)
    vals = eval_discrete(op, u).values[idx]
    np.testing.assert_array_equal(rep.node_upper, vals - 1.0)
    np.testing.assert_array_equal(rep.node_lower, -1.0 - vals)


def test_pointwise_affine_invariance(grid33):
    """Adding an affine function is invisible to any second-order operator."""
    rng = np.random.default_rng(0)
    u = GridFunction(grid33, rng.standard_normal(grid33.node_count))
    shift = field(grid33, lambda p: 0.7 - 1.3 * p[:, 0] + 0.4 * p[:, 1])
    a = check_pointwise(u, TRACE, Bounds(-1.0, 1.0))
    b = check_pointwise(u.with_values(u.values + shift.values), TRACE, Bounds(-1.0, 1.0))
    assert a.worst_upper == pytest.approx(b.worst_upper, abs=1e-8)
    assert a.worst_lower == pytest.approx(b.worst_lower, abs=1e-8)


def test_pointwise_scaling_covariance(grid33):
    """u -> s u with bounds and tolerance scaled by s gives the same verdicts."""
    rng = np.random.default_rng(1)
    u = GridFunction(grid33, rng.standard_normal(grid33.node_count))
    s = 3.5
    tol = 0.5
    a = check_pointwise(u, TRACE, Bounds(-1.0, 1.0), tol=tol)
    b = check_pointwise(u.with_values(s * u.values), TRACE,
                        Bounds(-s, s), tol=s * tol)
    assert a.passed == b.passed
    assert b.worst_upper == pytest.approx(s * a.worst_upper, rel=1e-12)
    assert b.worst_lower == pytest.approx(s * a.worst_lower, rel=1e-12)


# ---------------------------------------------------------------------------
# touching certification


def test_touching_dictionary_is_deterministic():
    u = build_fixture("quad", 33)
    a = make_touching_dictionary(u, node_budget=200)
    b = make_touching_dictionary(u, node_budget=200)
    assert len(a) == len(b) > 0
    for name in ("nodes", "grads", "hessians", "shifts"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.rho == b.rho
    # both sides of every (node, gradient, shift): K (2n+1) L 2 candidates
    k, g, n = a.grads.shape
    assert (g, n) == (5, 2) and a.hessians.shape == (k, 2, 2)
    assert len(a) == k * g * a.shifts.size * 2


def test_touching_dictionary_contents():
    """Central-difference gradient, then +/- h along each axis; exact
    Hessians on a quadratic; shifts 0, h, 2h, ... up through the first >= 1."""
    g = unit_square_grid(33)
    mat = np.array([[2.0, 0.5], [0.5, 1.0]])
    u = quadratic_field(g, mat, p=np.array([0.3, -0.2]))
    d = make_touching_dictionary(u, node_budget=50)
    h = g.h
    pts = g.points()[d.nodes]
    grad = pts @ mat + np.array([0.3, -0.2])
    np.testing.assert_allclose(d.grads[:, 0], grad, atol=1e-12)
    np.testing.assert_allclose(d.grads[:, 1:] - d.grads[:, :1],
                               np.broadcast_to([[h, 0], [-h, 0], [0, h], [0, -h]],
                                               (len(d.nodes), 4, 2)), atol=1e-12)
    np.testing.assert_allclose(d.hessians, np.broadcast_to(mat, d.hessians.shape),
                               atol=1e-9)
    assert d.shifts[0] == 0.0 and d.shifts[1] == h
    assert d.shifts[-2] < 1.0 <= d.shifts[-1]


@pytest.mark.parametrize("res", [33, 65, 129])
def test_touching_dictionary_keeps_to_its_node_budget(res):
    """At most node_budget nodes, spread from the first eligible node to the
    last; a stride of eligible // budget took 625 nodes for 400 at 33^2."""
    u = solve_obstacle(disc_problem(res)).u
    d = make_touching_dictionary(u, node_budget=400)
    margin = int(np.ceil(d.rho / u.grid.h - 1e-9))
    eligible = np.flatnonzero(u.grid.interior_mask(margin))
    assert len(d.nodes) == min(400, eligible.size)
    assert d.nodes[0] == eligible[0] and d.nodes[-1] == eligible[-1]
    assert np.all(np.diff(d.nodes) > 0) and np.isin(d.nodes, eligible).all()


def test_touching_dictionary_at_given_nodes():
    """A hand-built dictionary is checked at its own nodes, and a node whose
    rho-ball exits the domain is refused."""
    u = build_fixture("quad", 33)
    d = make_touching_dictionary(u, node_budget=1500)
    rows = np.searchsorted(d.nodes, [16 * 33 + 16, 20 * 33 + 12])
    given = replace(d, nodes=d.nodes[rows], grads=d.grads[rows], hessians=d.hessians[rows])
    assert given.nodes.tolist() == [16 * 33 + 16, 20 * 33 + 12]
    rep = check_touching(u, TRACE, Bounds(2.0, 2.0), given)
    assert rep.passed and rep.candidates == len(given)
    assert rep.node_indices.tolist() == given.nodes.tolist()
    with pytest.raises(ValueError, match="exits domain"):
        check_touching(u, TRACE, Bounds(2.0, 2.0), replace(given, nodes=given.nodes - 15))


@pytest.mark.parametrize("case", ["quad-trace", "quad-pucci", "kink-1d"])
def test_touching_matches_the_per_candidate_oracle(case):
    if case == "kink-1d":
        u, op, budget, bounds = build_fixture("kink", 129, ndim=1), TRACE, 400, Bounds(0.0, 0.0)
    else:
        op = TRACE if case == "quad-trace" else pucci_max(1.0, 2.0)
        u, budget, bounds = build_fixture("quad", 33), 200, Bounds(-1.0, 3.0)
    d = make_touching_dictionary(u, node_budget=budget)
    rep = check_touching(u, op, bounds, d)
    triggered, margins = loop_touching(u, op, bounds, d)
    assert rep.triggered == triggered > 0
    assert rep.candidates == len(d)
    assert rep.node_indices.tolist() == sorted(margins)
    assert rep.node_upper.tolist() == [margins[i][0] for i in sorted(margins)]
    assert rep.node_lower.tolist() == [margins[i][1] for i in sorted(margins)]


def test_touching_agrees_with_pointwise_on_smooth_data():
    u = build_fixture("quad", 65)
    tests = make_touching_dictionary(u, node_budget=300)
    good = check_touching(u, TRACE, Bounds(2.0, 2.0), tests)
    assert good.passed and good.triggered > 0
    bad = check_touching(u, TRACE, Bounds(-5.0, -3.0), tests)
    assert not bad.passed


def test_kink_fails_pointwise_but_passes_touching():
    """The upward crease carries curvature 2/h in the pointwise field, yet no
    admissible quadratic rides it from either side, so the comparison-based
    verdict certifies the inequality the crease actually satisfies."""
    u = build_fixture("kink", 129, ndim=1)
    bounds = Bounds(0.0, 0.0)
    pw = check_pointwise(u, TRACE, bounds)
    assert not pw.passed
    assert pw.worst_upper > 1.0  # ~ 2/h, far beyond any O(h) tolerance
    tests = make_touching_dictionary(u, node_budget=400)
    tch = check_touching(u, TRACE, bounds, tests)
    assert tch.passed
    assert tch.triggered > 0


def visc_run(tmp_path, name, u, bounds, tol_scale=1.0):
    """``visc --tol-scale tol_scale`` on u, whose bounds a run manifest beside
    it states for the trace; returns the exit code and the run directory."""
    run = tmp_path / "input"
    write_grid_function(u, run / "solution.txt")
    write_manifest(run / "run_manifest.txt",
                   {"op": "trace", "lam_lo": bounds.lam_lo, "lam_hi": bounds.lam_hi})
    out = tmp_path / name
    code = cli.main(["visc", "--input", str(run / "solution.txt"),
                     "--tol-scale", repr(tol_scale), "--out", str(out)])
    return code, out


def test_touching_report_round_trip(tmp_path):
    """``visc`` writes visc_touching.csv: the same bytes on a rerun, and a
    footer that reads the report the test recomputes."""
    u = build_fixture("quad", 33)
    bounds = Bounds(2.0, 2.0)
    (code, a), (_, b) = (visc_run(tmp_path, name, u, bounds) for name in ("a", "b"))
    assert code == 0
    p1, p2 = a / "visc_touching.csv", b / "visc_touching.csv"
    assert p1.read_bytes() == p2.read_bytes()
    tests = make_touching_dictionary(u, node_budget=VISC_NODE_BUDGET)
    rep = check_touching(u, TRACE, bounds, tests)
    text = p1.read_text()
    assert text.splitlines()[0].startswith("node,")
    assert "# passed" in text
    footer = dict(line.split(",") for line in text.splitlines() if line.startswith("# "))
    assert int(footer["# candidates"]) == rep.candidates == len(tests)
    assert int(footer["# triggered"]) == rep.triggered
    worst = int(footer["# worst_node"])
    k = list(rep.node_indices).index(worst)
    assert max(rep.node_upper[k], rep.node_lower[k]) == max(rep.worst_upper, rep.worst_lower)


# ---------------------------------------------------------------------------
# localization helpers


def test_quartic_perturb_values():
    g = unit_square_grid(33)
    zero = GridFunction(g, np.zeros(g.node_count))
    x0 = (0.0, 0.0)
    w = quartic_perturb(zero, x0)
    pts = g.points()
    i0 = int(np.argmin(np.einsum("ij,ij->i", pts, pts)))
    assert w.values[i0] == 0.0
    i1 = int(np.argmin(np.abs(pts[:, 0] - 1.0) + np.abs(pts[:, 1])))
    assert w.values[i1] == pytest.approx(-1.0)


def test_quartic_perturb_hessian_is_negligible_at_center():
    g = unit_square_grid(33)
    u = quadratic_field(g, np.array([[2.0, 0.5], [0.5, 1.0]]))
    w = quartic_perturb(u, (0.0, 0.0))
    hu, hw = discrete_hessian(u), discrete_hessian(w)
    for key, comp in hu.items():
        assert abs(hw[key][16, 16] - comp[16, 16]) <= 2.0 * g.h ** 2 + 1e-12


# ---------------------------------------------------------------------------
# stability under limits


def test_limit_stability_ripple_family():
    gen, u_inf, lam_inf = limit_families(33)["ripple"]
    rep = limit_stability_experiment(gen, 4, TRACE, u_limit=u_inf,
                                     lam_limit=lam_inf)
    assert rep.passed
    assert len(rep.lam_seq) == 4
    assert all(rep.self_pass) and all(rep.pointwise_pass) and all(rep.touching_pass)
    deltas = np.asarray(rep.deltas)
    assert np.all(np.diff(deltas) <= 1e-15)  # tail sup is nonincreasing
    assert deltas[-1] > 0  # the c0 h floor never vanishes at finite h


def per_cell_report_lines(report, grid):
    """A viscosity report's CSV lines, one row tuple per node and each value
    formatted on its own."""
    header = ["node"] + ["x", "y", "z"][: grid.ndim] + [
        "scheme", "upper_margin", "lower_margin", "verdict"]
    rows = [(int(k), *map(float, grid.points()[k]), report.scheme, float(up), float(lo),
             bool(ok)) for k, up, lo, ok in zip(report.node_indices, report.node_upper,
                                                 report.node_lower, report.verdicts)]
    rows += [("# worst_upper", report.worst_upper), ("# worst_lower", report.worst_lower),
             ("# tolerance", report.tolerance), ("# triggered", report.triggered)]
    if report.scheme == "touching":
        rows += [("# candidates", report.candidates), ("# worst_node", report.worst_node)]
    rows.append(("# passed", bool(report.passed)))
    return [",".join(header)] + [",".join(map(csv_cell, r)) for r in rows]


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("scheme", ["pointwise", "touching"])
def test_report_rows_are_formatted_cell_by_cell(scheme, ndim, tmp_path):
    """``visc`` on the kink, which is flat away from its crease, for bounds
    that exclude 0 and a tolerance of 0.1: failing reports, whose CSV the
    test recomputes row by row; touching leaves -inf margins on nodes where
    no candidate fired."""
    u = build_fixture("kink", 65 if ndim == 1 else 33, ndim=ndim)
    bounds = Bounds(0.5, 0.5)
    scale = 0.1 / default_tolerance(TRACE, u)
    code, out = visc_run(tmp_path, "visc", u, bounds, tol_scale=scale)
    assert code == 1
    tol = scale * default_tolerance(TRACE, u)  # as visc computes it
    if scheme == "pointwise":
        rep = check_pointwise(u, TRACE, bounds, tol=tol)
    else:
        rep = check_touching(u, TRACE, bounds,
                             make_touching_dictionary(u, node_budget=VISC_NODE_BUDGET), tol=tol)
        assert np.isneginf(rep.node_upper).any() and np.isneginf(rep.node_lower).any()
    assert not rep.passed
    text = (out / ("visc_%s.csv" % scheme)).read_text()
    assert text.endswith("\n")
    assert text.splitlines() == per_cell_report_lines(rep, u.grid)
