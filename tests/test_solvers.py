import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from ellipticlab import (
    Ball,
    GridFunction,
    ObstacleProblem,
    SolverError,
    build_fixture,
    disc_problem,
    eval_discrete,
    linear_operator,
    max_of_linear,
    operator_margin,
    pucci_max,
    pucci_min,
    square_grid,
    solve_dirichlet,
    solve_obstacle,
    trace_operator,
)

from conftest import field, quadratic_field, renumbered_matrix, unit_square_grid

TRACE = trace_operator()


def sin_sin_problem(res):
    g = unit_square_grid(res)
    star = GridFunction.from_callable(g, lambda p: np.sin(p[:, 0]) * np.sin(p[:, 1]))
    return star.with_values(-2.0 * star.values), star


def manufactured_quad(op, res=33):
    """f = F_h(quad) with quad as boundary data: quad is the discrete solution."""
    target = build_fixture("quad", res)
    f = GridFunction(target.grid, np.nan_to_num(eval_discrete(op, target).values, nan=0.0))
    zero = GridFunction(target.grid, np.zeros(target.grid.node_count))
    return f, target, zero


def test_quadratic_is_a_fixed_point(grid33):
    """The scheme is exact on quadratics, so exact data converges instantly."""
    u_star = quadratic_field(grid33, np.array([[2.0, 0.5], [0.5, 1.0]]), p=(1.0, -1.0))
    r = solve_dirichlet(TRACE, 3.0, u_star)
    assert r.iterations == 0
    assert r.residual == 0.0
    np.testing.assert_array_equal(r.u.values, u_star.values)


def test_solver_reaches_manufactured_solution():
    f, star = sin_sin_problem(33)
    r = solve_dirichlet(TRACE, f, star)
    assert r.residual <= 1e-9 * (1 + 2.0)
    assert np.max(np.abs(r.u.values - star.values)) < 2e-5
    assert r.iterations >= 1  # genuinely solved, not a warm start


def test_error_drops_at_second_order():
    errs = []
    for res in (33, 65):
        f, star = sin_sin_problem(res)
        r = solve_dirichlet(TRACE, f, star)
        errs.append(np.max(np.abs(r.u.values - star.values)))
    assert errs[0] / errs[1] >= 3.5


def test_warm_start_cuts_iterations():
    """Starting from the cold solution is an exact start: 0 steps, same values."""
    f, star = sin_sin_problem(65)
    cold = solve_dirichlet(TRACE, f, star)
    warm = solve_dirichlet(TRACE, f, star, initial=cold.u)
    assert cold.iterations >= 1
    assert warm.iterations == 0
    np.testing.assert_array_equal(warm.u.values, cold.u.values)


def test_iteration_budget_raises_solver_error(monkeypatch):
    from ellipticlab import solvers

    op = pucci_max(1.0, 2.0)
    f, target, zero = manufactured_quad(op)
    assert solve_dirichlet(op, f, target, initial=zero).iterations >= 2
    monkeypatch.setattr(solvers, "MAX_STEPS", 1)
    with pytest.raises(SolverError, match="on the 33x33 grid failed to converge") as err:
        solve_dirichlet(op, f, target, initial=zero)
    assert err.value.last_residual > 0


@pytest.mark.parametrize("op", [
    pucci_max(1.0, 2.0),
    pucci_min(1.0, 2.0),
    max_of_linear([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]),
    linear_operator([[2.0, 0.5], [0.5, 1.0]]),
], ids=["pucci+", "pucci-", "max_of_linear", "linear"])
def test_nonlinear_manufactured_quad(op):
    """Policy iteration recovers the manufactured quadratic from a zero start;
    the non-diagonal linear operator solves through Selling's weights."""
    f, target, zero = manufactured_quad(op)
    r = solve_dirichlet(op, f, target, initial=zero)
    assert 1 <= r.iterations <= 10
    assert np.max(np.abs(r.u.values - target.values)) <= 1e-10
    fh = eval_discrete(op, r.u).values  # NaN on the margin band
    assert r.residual == np.nanmax(np.abs(fh - f.values))


def test_grid_must_be_discoverable():
    with pytest.raises(ValueError, match="no grid in sight"):
        solve_dirichlet(TRACE, 0.0, 0.0)


def test_mismatched_grids_rejected(grid33, grid65):
    f = GridFunction(grid65, np.zeros(grid65.node_count))
    star = GridFunction(grid33, np.zeros(grid33.node_count))
    with pytest.raises(ValueError, match="different grid"):
        solve_dirichlet(TRACE, f, star)


# ---------------------------------------------------------------------------
# obstacle problems


@pytest.fixture(scope="module")
def disc65():
    return solve_obstacle(disc_problem(65))


def test_disc_contact_set_is_substantial(disc65):
    assert 0.05 <= disc65.contact_fraction <= 0.30


def test_disc_manufactured_bounds(disc65):
    # Laplacian of the paraboloid obstacle is -4; the equation side keeps
    # F_h(u) = u g with |u| <= 0.25 on this fixture
    assert disc65.lam_lo == pytest.approx(-4.0, abs=1e-6)
    assert disc65.lam_hi == pytest.approx(0.25, abs=1e-6)


def test_disc_solution_dominates_obstacle(disc65):
    prob = disc_problem(65)
    assert np.min(disc65.u.values - prob.psi.values) >= -1e-12


def test_disc_complementarity(disc65):
    """Off contact the equation holds; on contact the field can only push down."""
    prob = disc_problem(65)
    grid = prob.psi.grid
    fh = eval_discrete(prob.op, disc65.u).values
    rhs = prob.g_values * disc65.u.values
    mask = grid.interior_mask(1)
    off = mask & ~disc65.contact
    assert np.max(np.abs(fh[off] - rhs[off])) <= 1e-6
    on = disc65.contact
    assert np.all(fh[on] <= rhs[on] + 1e-9)
    np.testing.assert_allclose(disc65.u.values[on], prob.psi.values[on], atol=1e-9)


def assert_inside_bounds(op, result):
    """The realized F_h(u) lies in the result's [lam_lo, lam_hi] on the
    interior."""
    fh = eval_discrete(op, result.u).values
    mask = result.u.grid.interior_mask(operator_margin(op, result.u.grid.ndim))
    assert np.min(fh[mask]) >= result.lam_lo - 1e-9
    assert np.max(fh[mask]) <= result.lam_hi + 1e-9


def test_realized_field_sits_inside_reported_bounds(disc65):
    assert_inside_bounds(disc_problem(65).op, disc65)


@pytest.mark.parametrize("case", ["trace-f1", "pucci+-quad"])
def test_dirichlet_solve_reports_bounds_and_no_contact(case):
    """A Dirichlet solve returns the obstacle solve's result with no
    obstacle: bounds the realized field sits inside, no contact and its one
    level."""
    if case == "trace-f1":
        op, f = TRACE, 1.0
        result = solve_dirichlet(op, f, 0.0, grid=unit_square_grid(33))
    else:
        op = pucci_max(1.0, 2.0)
        f, target, zero = manufactured_quad(op)
        result = solve_dirichlet(op, f, target, initial=zero)
        f = f.values[result.u.grid.interior_mask(operator_margin(op, 2))]
    assert result.iterations >= 1
    assert_inside_bounds(op, result)
    assert result.lam_lo <= np.min(f) and np.max(f) <= result.lam_hi
    assert result.contact.shape == (result.u.grid.node_count,)
    assert not result.contact.any()
    assert result.contact_fraction == 0.0
    assert result.level_steps == ((33, result.iterations),)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol, monkeypatch):
    """Either solve refuses the tolerance before any step: inf used to
    accept any residual and report infinite bounds, and nan broke BiCGSTAB
    down."""
    evaluations = count_calls(monkeypatch, "eval_policy", lambda *args: None)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_obstacle(disc_problem(33), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_dirichlet(TRACE, 1.0, 0.0, grid=unit_square_grid(33), tol=tol)
    assert evaluations == []


def test_disc_contact_is_exact_active_set(disc65):
    """On contact u equals psi bit for bit; off contact the equation holds
    within the solve tolerance."""
    prob = disc_problem(65)
    on = disc65.contact
    assert np.array_equal(disc65.u.values[on], prob.psi.values[on])
    off = prob.psi.grid.interior_mask(1) & ~on
    fh = eval_discrete(prob.op, disc65.u).values
    assert np.max(np.abs(fh[off] - prob.g_values[off] * disc65.u.values[off])) <= 1e-9
    assert disc65.residual <= 1e-9


def test_negative_g_weight_rejected():
    prob = disc_problem(33)
    with pytest.raises(ValueError, match="nonnegative"):
        ObstacleProblem(prob.op, prob.psi, prob.boundary, g_weight=-1.0)


def test_boundary_must_dominate_obstacle():
    prob = disc_problem(33)
    bad = ObstacleProblem(prob.op, prob.psi, -10.0)
    with pytest.raises(ValueError, match="dominate the obstacle"):
        solve_obstacle(bad)


def test_obstacle_determinism():
    a = solve_obstacle(disc_problem(33))
    b = solve_obstacle(disc_problem(33))
    np.testing.assert_array_equal(a.u.values, b.u.values)
    assert (a.lam_lo, a.lam_hi, a.iterations, a.level_steps) == \
        (b.lam_lo, b.lam_hi, b.iterations, b.level_steps)


# ---------------------------------------------------------------------------
# coarse-to-fine start


def cold_start(problem):
    """The single-level solve from max(boundary, psi) (the boundary data are
    0 in every problem here), as an explicit start."""
    psi = problem.psi
    return solve_obstacle(problem, initial=psi.with_values(np.maximum(0.0, psi.values)))


def assert_same_fixed_point(a, b):
    """Same contact set bit for bit and the same bounds; u apart by no more
    than the comparison principle allows for the two returned residuals (every
    operator here lowers F_h by at least 1 under the barrier (0.75^2 - x^2)/2,
    whose sup is 0.28125, and g >= 0 only helps)."""
    np.testing.assert_array_equal(a.contact, b.contact)
    assert (a.lam_lo, a.lam_hi) == (b.lam_lo, b.lam_hi)
    gap = np.max(np.abs(a.u.values - b.u.values))
    assert gap <= 0.28125 * (a.residual + b.residual) * (1 + 1e-6) + 1e-14


@pytest.mark.parametrize("op", [
    TRACE,
    linear_operator([[2.0, 0.5], [0.5, 1.0]]),
    pucci_max(1.0, 2.0),
    max_of_linear([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]),
], ids=["trace", "linear", "pucci+", "max_of_linear"])
def test_coarse_to_fine_matches_the_cold_start(op):
    problem = dataclasses.replace(disc_problem(65), op=op)
    fast, cold = solve_obstacle(problem), cold_start(problem)
    assert [n for n, _ in fast.level_steps] == [17, 33, 65]
    assert cold.level_steps == ((65, cold.iterations),)
    assert fast.iterations == sum(steps for _, steps in fast.level_steps)
    assert_same_fixed_point(fast, cold)


@pytest.mark.parametrize("res", [129, 257])
def test_coarse_to_fine_step_count_is_mesh_independent(res):
    """From the cold start the finest level took 22 and 44 steps, releasing
    about one node layer per step; seeded from the coarse contact set it
    takes a few, projected steps and at most 2 BiCGSTAB steps together."""
    result = solve_obstacle(disc_problem(res))
    levels = [n for n, _ in result.level_steps]
    assert levels == [17, 33, 65, 129, 257][:len(levels)] and levels[-1] == res
    assert result.level_steps[-1][1] <= 6
    finest = result.history[-result.level_steps[-1][1]:]
    assert 1 <= sum(not projected for *_, projected in finest) <= 2
    assert result.residual <= 1e-9


def fallback_problem(case):
    """Obstacle problems whose first coarsening is refused."""
    if case == "coarse-band":
        # this stencil reaches 2 nodes: psi = 0.51 - |x|^2 stays below the
        # zero boundary data on the band of 65^2 (|x| >= 0.727) but not on
        # that of 33^2, which reaches in to |x| = 0.703
        op, res, top = linear_operator([[1.0, 1.9], [1.9, 4.0]]), 65, 0.51
    else:  # this stencil reaches 9 nodes: 17^2 would have no interior
        op, res, top = linear_operator([[1.01, 9.0], [9.0, 81.01]]), 33, -0.1
    grid = square_grid(res, 0.75)
    psi = GridFunction.from_callable(grid, lambda p: top - np.sum(p**2, axis=1))
    return ObstacleProblem(op, psi, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("case", ["coarse-band", "no-coarse-interior"])
def test_refused_coarsening_starts_cold(case):
    problem = fallback_problem(case)
    result = solve_obstacle(problem)
    res = problem.psi.grid.shape[0]
    assert result.level_steps == ((res, result.iterations),)
    assert result.contact.any() == (case != "no-coarse-interior")
    assert_same_fixed_point(result, cold_start(problem))


def test_grids_with_odd_cell_counts_are_refused(monkeypatch):
    """33 cells per axis: the multigrid ladder cannot coarsen the grid, so
    both solves refuse it, naming its shape, before any step."""
    evaluations = count_calls(monkeypatch, "eval_policy", lambda *args: None)
    grid = square_grid(34, 0.75)
    psi = GridFunction.from_callable(grid, lambda p: 0.25 - np.sum(p**2, axis=1))
    with pytest.raises(ValueError, match="34x34 grid"):
        solve_obstacle(ObstacleProblem(TRACE, psi, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="34x34 grid"):
        solve_dirichlet(TRACE, 1.0, 0.0, grid=grid)
    assert evaluations == []


def test_exact_start_returns_after_0_steps_on_every_seeded_level():
    """An affine boundary with f = g = 0 and psi far below it: the coarsest
    level's cold start max(boundary, psi) is already exact and pinned where
    it equals psi (nowhere), and every finer level's interpolated start is
    exact and pinned on its (empty) seed, so every level returns at once."""
    grid = square_grid(65, 0.75)
    affine = GridFunction.from_callable(grid, lambda p: 1.0 + 0.5 * p[:, 0] - 0.25 * p[:, 1])
    psi = affine.with_values(np.full(grid.node_count, -10.0))
    result = solve_obstacle(ObstacleProblem(TRACE, psi, affine, 0.0, 0.0))
    assert result.level_steps == ((17, 0), (33, 0), (65, 0))
    assert not result.contact.any()
    assert np.max(np.abs(result.u.values - affine.values)) <= 1e-15


def test_obstacle_step_evaluates_the_scheme_once(monkeypatch):
    """Each step evaluates F_h once at its iterate, and again only when
    pinning moved a node; evaluating before and after every pinning took 37
    evaluations for these 16 steps."""
    from ellipticlab import stencils

    calls, real = [], stencils._envelope
    monkeypatch.setattr(stencils, "_envelope",
                        lambda *args: calls.append(None) or real(*args))
    result = solve_obstacle(disc_problem(129))
    assert len(calls) < 2 * result.iterations


def test_coarse_level_failure_names_its_grid(monkeypatch):
    """The 17^2 level of the 65^2 disc takes 3 projected steps; they count
    against the step budget, so a budget of 1 or 2 stops it there."""
    from ellipticlab import solvers

    assert solve_obstacle(disc_problem(65)).level_steps[0] == (17, 3)
    for budget in (1, 2):
        monkeypatch.setattr(solvers, "MAX_STEPS", budget)
        with pytest.raises(SolverError, match="on the 17x17 grid failed to converge"):
            solve_obstacle(disc_problem(65))


# ---------------------------------------------------------------------------
# multigrid-preconditioned linear solves and solver histories


def ladder_system(op, grid, g, k=0):
    """The ``_FrozenSystem`` of the step loop on level ``k`` of the ladder on
    ``grid`` with shift ``g``, its coarse-to-fine start on that level."""
    from ellipticlab.solvers import _FrozenSystem, _ladder

    return _FrozenSystem(functools.partial(_ladder, op, grid, g, k), k)


def frozen_system(op, res, ndim, seed=0, hole=0.3):
    """The step-loop system of a random field's policy, shifted by g = 1 as
    in the obstacle solve, free on the interior nodes less a contact hole
    |x| < hole (or, with ``hole`` None, a random half of them): the
    ``_FrozenSystem`` on the top of its ladder, the policy, the free mask, a
    right-hand side over the grid, and the oracle's matrix over the free
    nodes."""
    from ellipticlab.stencils import eval_policy, operator_margin, policy_lines

    grid = unit_square_grid(res, ndim=ndim)
    rng = np.random.default_rng(seed)
    u = GridFunction(grid, rng.standard_normal(grid.node_count))
    _, policy = eval_policy(op, u)
    if hole is None:
        pinned = rng.random(grid.node_count) < 0.5
    else:
        pinned = np.sum(grid.points() ** 2, axis=1) < hole**2
    free = grid.interior_mask(operator_margin(op, ndim)) & ~pinned
    nodes = np.flatnonzero(free)
    system = ladder_system(op, grid, np.ones(grid.node_count))
    rhs = np.zeros(grid.node_count)
    rhs[nodes] = rng.standard_normal(nodes.size)
    a = renumbered_matrix(policy[:, nodes], policy_lines(op, grid)[0], 1.0 / grid.h**2,
                          nodes, grid.node_count, 1.0)
    return system, policy, free, rhs, a


MAX_OF_DIAGONALS = max_of_linear([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])])

COMPACT_SYSTEMS = [
    pytest.param(TRACE, 65, 2, id="trace"),
    pytest.param(linear_operator([[2.0, 0.5], [0.5, 1.0]]), 65, 2, id="linear"),
    pytest.param(MAX_OF_DIAGONALS, 65, 2, id="max_of_linear"),
    # 82 cells: coarsening stops at 42^2, which has 41 cells and is factorized
    pytest.param(TRACE, 83, 2, id="trace-stops"),
    pytest.param(linear_operator([[2.0, 0.5], [0.5, 1.0]]), 83, 2, id="linear-stops"),
    pytest.param(MAX_OF_DIAGONALS, 83, 2, id="max_of_linear-stops"),
    # 202 cells: one coarse level of 102 nodes
    pytest.param(TRACE, 203, 1, id="trace-1d"),
    pytest.param(max_of_linear([[[1.0]], [[3.0]]]), 203, 1, id="max_of_linear-1d"),
]


def assert_matches_spsolve(system, policy, free, rhs, a):
    """A step's correction is 0 on pinned nodes and, on the free ones, meets
    BiCGSTAB's stopping rule for the oracle's matrix ``a``."""
    from scipy.sparse.linalg import spsolve
    from ellipticlab.solvers import _INNER_ATOL, _INNER_RTOL

    tol = 1e-9
    x, krylov = system.solve(policy, free, rhs, tol, "test", 0.0)
    on = free[system.nodes]
    assert np.all(x[~on] == 0.0)
    x, b = x[on], rhs[free]
    exact = spsolve(a.tocsc(), b)
    bound = max(_INNER_RTOL * np.linalg.norm(b), _INNER_ATOL * tol)
    assert np.linalg.norm(a @ (x - exact)) <= 1.01 * bound
    assert np.max(np.abs(x - exact)) <= 1e-4 * np.max(np.abs(exact))
    assert 1 <= krylov <= 6


@pytest.mark.parametrize("op, res, ndim", COMPACT_SYSTEMS)
def test_preconditioned_correction_matches_spsolve(op, res, ndim):
    system, policy, free, rhs, a = frozen_system(op, res, ndim)
    assert_matches_spsolve(system, policy, free, rhs, a)
    assert system.precondition is not None


@pytest.mark.parametrize("op, res, ndim", COMPACT_SYSTEMS)
def test_reused_coarse_levels_still_match_spsolve(monkeypatch, op, res, ndim):
    """The V-cycle built on one contact hole preconditions the system of a
    larger hole: the ladder's layouts are only truncated again, and the
    correction still meets the spsolve test's bounds."""
    system, policy, first, first_rhs, _ = frozen_system(op, res, ndim, hole=0.25)
    system.solve(policy, first, first_rhs, 1e-9, "test", 0.0)
    _, _, free, rhs, a = frozen_system(op, res, ndim)
    assert not np.array_equal(free, first)
    built = count_calls(monkeypatch, "_layout", lambda *args: None)
    assert_matches_spsolve(system, policy, free, rhs, a)
    assert built == []


def test_a_one_level_ladder_solves_by_its_factorization(monkeypatch):
    """This stencil reaches 9 nodes, so the 17^2 coarsening of 33^2 has no
    interior and the ladder is the 33^2 level alone: its V-cycle is the
    factorization, which preconditions BiCGSTAB like any other cycle and
    solves each step outright, before BiCGSTAB counts an iteration."""
    cycles = count_calls(monkeypatch, "_cycle", lambda levels, b, k=0: len(levels))
    op = linear_operator([[1.01, 9.0], [9.0, 81.01]])
    f, target, zero = manufactured_quad(op)
    r = solve_dirichlet(op, f, target, initial=zero)
    assert r.iterations >= 1 and cycles and set(cycles) == {1}
    assert all(krylov == 0 and not projected for _, _, krylov, projected in r.history)
    assert np.max(np.abs(r.u.values - target.values)) <= 1e-8


def plain_bicgstab(matrix, rhs, tol):
    """BiCGSTAB from 0 without a preconditioner, under the step loop's
    stopping rule: x and its iteration count."""
    from scipy.sparse.linalg import bicgstab
    from ellipticlab.solvers import _INNER_ATOL, _INNER_RTOL

    steps = []
    x, info = bicgstab(matrix, rhs, rtol=_INNER_RTOL, atol=_INNER_ATOL * tol,
                       callback=lambda _: steps.append(None))
    assert info == 0
    return x, len(steps)


@pytest.mark.parametrize("op", [
    TRACE,
    linear_operator([[2.0, 0.5], [0.5, 1.0]]),
    MAX_OF_DIAGONALS,
    pucci_max(1.0, 2.0),
    pucci_min(1.0, 2.0),
], ids=["trace", "linear", "max_of_linear", "pucci+", "pucci-"])
def test_truncated_layout_matches_the_renumbered_matrix(op):
    """On a random active set the layout stores the policy's rows on every
    interior node, pinned or free, and its free rows and columns are the
    renumbered matrix entry for entry.  BiCGSTAB's operator masks its output
    by the free nodes: a vector that vanishes on pinned nodes maps to one
    that vanishes there, the renumbered matrix's product on the free ones,
    and a step's correction vanishes on pinned nodes.  Unpreconditioned, its
    BiCGSTAB iterates are the renumbered system's up to the order of
    summation; with the V-cycle it solves the same system."""
    from ellipticlab.stencils import policy_lines

    system, policy, free, rhs, a = frozen_system(op, 33, 2, hole=None)
    system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    nodes = system.nodes
    on = free[nodes]
    grid = unit_square_grid(33)
    whole = renumbered_matrix(policy[:, nodes], policy_lines(op, grid)[0], 1.0 / grid.h**2,
                              nodes, free.size, 1.0)
    dense = system.levels[0].matrix.toarray()
    np.testing.assert_array_equal(dense, whole.toarray())
    np.testing.assert_array_equal(dense[np.ix_(on, on)], a.toarray())
    v = np.where(on, np.random.default_rng(1).standard_normal(on.size), 0.0)
    w = system.operator.matvec(v)
    assert np.all(w[~on] == 0.0)
    np.testing.assert_array_equal(w[on], a @ v[on])
    x, krylov = plain_bicgstab(system.operator, rhs[nodes] * on, 1e-9)
    assert np.all(x[~on] == 0.0)
    y, again = plain_bicgstab(a, rhs[free], 1e-9)
    assert krylov == again
    np.testing.assert_allclose(x[on], y, rtol=0.0, atol=1e-12 * np.max(np.abs(y)))

    system, policy, free, rhs, a = frozen_system(op, 33, 2, hole=None)
    assert_matches_spsolve(system, policy, free, rhs, a)


def test_raw_product_is_the_sparse_product():
    """The V-cycle's and BiCGSTAB's products go to scipy's compiled CSR
    kernel directly; they equal ``a @ x`` bit for bit, on a rectangular
    matrix too, and follow a refill of ``a.data`` in place."""
    from scipy import sparse
    from ellipticlab.solvers import _product

    rng = np.random.default_rng(5)
    a = sparse.random(40, 25, density=0.2, format="csr", random_state=rng)
    x = rng.standard_normal(25)
    apply = _product(a)
    np.testing.assert_array_equal(apply(x), a @ x)
    a.data *= -3.0
    np.testing.assert_array_equal(apply(x), a @ x)


def count_calls(monkeypatch, name, record):
    """Wrap ``solvers.<name>``; every call appends ``record(*args)`` to the
    returned list."""
    from ellipticlab import solvers

    calls, real = [], getattr(solvers, name)
    monkeypatch.setattr(solvers, name,
                        lambda *args: calls.append(record(*args)) or real(*args))
    return calls


@pytest.mark.parametrize("res", [65, 129, 257])
def test_preconditioned_krylov_iterations_stay_flat(res):
    """Unpreconditioned BiCGSTAB took 50-125 iterations per step here; one
    V-cycle per iteration keeps every step at a few on every level."""
    result = solve_obstacle(disc_problem(res))
    krylov = [row[2] for row in result.history]
    assert len(krylov) == result.iterations
    assert 1 <= max(krylov) <= 4


def test_pucci_policies_are_preconditioned(monkeypatch):
    """Pucci's Selling stencils reach one node layer, so its frozen policies
    get the V-cycle like the trace's: BiCGSTAB applies a cycle from the top
    of every level's system."""
    cycles = count_calls(monkeypatch, "_cycle",
                         lambda levels, b, k=0: None if k else levels[0].shape)
    op = pucci_max(1.0, 2.0)
    f, target, zero = manufactured_quad(op)
    assert solve_dirichlet(op, f, target, initial=zero).iterations >= 1
    assert cycles and set(cycles) - {None} == {(33, 33)}
    solve_obstacle(dataclasses.replace(disc_problem(33), op=op))
    assert set(cycles) - {None} == {(17, 17), (33, 33)}


def count_builds(monkeypatch):
    """The node counts of the grids that ``_layout`` and ``_ladder`` build
    for, and one (node count, policy) per ``_fill``."""
    layouts = count_calls(monkeypatch, "_layout", lambda shifts, nodes, n: n)
    ladders = count_calls(monkeypatch, "_ladder", lambda op, grid, g, start: grid.node_count)
    fills = count_calls(monkeypatch, "_fill", lambda policy, *_: (policy.shape[1],
                                                                  policy.tobytes()))
    return layouts, ladders, fills


# the grids of the V-cycle of an n^2 system of the trace, from n^2 down to
# the first whose interior has at most _COARSEST nodes
VCYCLE_GRIDS = {17: (17, 9), 33: (33, 17, 9), 65: (65, 33, 17, 9), 129: (129, 65, 33, 17, 9)}


def vcycle_nodes(*sides):
    """The node counts of the V-cycle grids of every n^2 system of ``sides``."""
    return [m * m for n in sides for m in VCYCLE_GRIDS[n]]


def finest_fills(fills):
    """The finest level's fill of every refill: a refill fills a V-cycle's
    levels finest first, so its first fill is on a grid at least as large as
    the previous refill's."""
    out = []
    for fill in fills:
        if not out or fill[0] >= out[-1][0]:
            out.append(fill)
    return out


def test_obstacle_builds_one_hierarchy_per_level(monkeypatch):
    """The solve builds one ladder, one layout per grid of the finest
    level's V-cycle, and every level's V-cycle is the ladder from that level
    down.  Each level fills its slice on its first step; the trace's policy
    never changes, so that is its only fill, and the moving active set costs
    no refill.  A coarse level returns once a projected step leaves its
    pinned set as it was; the finest then takes 2 BiCGSTAB steps (the
    active-set loop alone took 3, 3, 3 and 4 steps)."""
    layouts, ladders, fills = count_builds(monkeypatch)
    result = solve_obstacle(disc_problem(129))
    assert result.level_steps == ((17, 3), (33, 2), (65, 2), (129, 4))
    assert ladders == [129 * 129]
    assert layouts == vcycle_nodes(129)
    assert [n for n, _ in fills] == vcycle_nodes(17, 33, 65, 129)


@pytest.mark.parametrize("op", [TRACE, MAX_OF_DIAGONALS], ids=["trace", "max_of_linear"])
def test_matrix_is_assembled_once_per_system(monkeypatch, op):
    """One layout per grid of the solve's ladder, each level's slice of it
    refilled only when the policy changes: the trace's never does;
    max-of-linear's moves at a few nodes on most steps of a level."""
    layouts, ladders, fills = count_builds(monkeypatch)
    result = solve_obstacle(dataclasses.replace(disc_problem(129), op=op))
    levels = [n * n for n, _ in result.level_steps]
    assert ladders == [129 * 129]
    assert layouts == vcycle_nodes(129)
    refills = finest_fills(fills)
    assert all(a != b for a, b in zip(refills, refills[1:]))
    assert [n for n, _ in fills] == vcycle_nodes(*(math.isqrt(n) for n, _ in refills))
    if op is TRACE:
        assert [n for n, _ in refills] == levels
    else:
        assert len(levels) < len(refills) <= result.iterations


def test_dirichlet_solve_builds_once_for_a_repeated_system(monkeypatch):
    """The trace's policy never changes, so both steps of the 65^2 solve
    share one ladder, with one layout and one fill per grid."""
    layouts, ladders, fills = count_builds(monkeypatch)
    f, target, zero = manufactured_quad(TRACE, 65)
    assert solve_dirichlet(TRACE, f, target, initial=zero).iterations == 2
    assert ladders == [65 * 65] and layouts == vcycle_nodes(65)
    assert [n for n, _ in fills] == layouts


def level_state(system):
    """Every level's matrix entries and free nodes, copied."""
    return [(level.matrix.data.copy(), level.f.copy()) for level in system.levels]


def test_a_repeated_system_gives_the_rebuilt_correction(monkeypatch):
    """A step whose policy and free nodes repeat the last solve's reuses the
    system as it is, with no refill, and its correction is bit for bit the
    one after refilling another policy, moving the active set and coming
    back to the same entries and masks on every level."""
    system, policy, first, first_rhs, _ = frozen_system(MAX_OF_DIAGONALS, 65, 2, hole=0.25)
    _, other, free, rhs, _ = frozen_system(MAX_OF_DIAGONALS, 65, 2, seed=1)
    assert not np.array_equal(policy, other)
    system.solve(policy, first, first_rhs, 1e-9, "test", 0.0)
    x, krylov = system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    state = level_state(system)
    refills = count_calls(monkeypatch, "_fill", lambda *args: None)
    y, again = system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    assert refills == []
    system.solve(other, first, first_rhs, 1e-9, "test", 0.0)
    assert not np.array_equal(system.levels[1].f, state[1][1])
    z, rebuilt = system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    assert len(refills) == 2 * len(system.levels)
    for (entries, f), (again_entries, again_f) in zip(state, level_state(system)):
        np.testing.assert_array_equal(again_entries, entries)
        np.testing.assert_array_equal(again_f, f)
    np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(x, z)
    assert krylov == again == rebuilt


def test_an_active_set_change_writes_no_matrix_entry(monkeypatch):
    """A step with the last step's policy and a new active set refreshes only
    every level's free nodes ``f``: the matrix entries stay byte for byte as
    filled, and nothing is refilled."""
    system, policy, first, first_rhs, _ = frozen_system(MAX_OF_DIAGONALS, 65, 2, hole=0.25)
    system.solve(policy, first, first_rhs, 1e-9, "test", 0.0)
    entries = [level.matrix.data.tobytes() for level in system.levels]
    on = system.levels[1].f.copy()
    _, _, free, rhs, _ = frozen_system(MAX_OF_DIAGONALS, 65, 2)
    refills = count_calls(monkeypatch, "_fill", lambda *args: None)
    system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    assert refills == []
    assert [level.matrix.data.tobytes() for level in system.levels] == entries
    np.testing.assert_array_equal(system.levels[0].f, free[system.nodes])
    assert not np.array_equal(system.levels[1].f, on)


@pytest.mark.parametrize("op", [TRACE, MAX_OF_DIAGONALS], ids=["trace", "max_of_linear"])
def test_masked_transfer_is_the_truncated_transfer(op):
    """The V-cycle built on one contact hole and reused on a larger one
    keeps every level's A, P and P^T as built and masks the vectors around
    them: one cycle equals, bit for bit, the same cycle with diag(f) A
    diag(f) + diag(1 - f), diag(f) P diag(f') and the latter's transpose
    stored explicitly on every level, where f is 1 on a level's free nodes
    and f' on the coarser level's nodes that sit on a free node.  The
    last level solves its explicit truncated matrix."""
    from types import SimpleNamespace
    from ellipticlab import solvers

    system, policy, first, first_rhs, _ = frozen_system(op, 65, 2, hole=0.25)
    system.solve(policy, first, first_rhs, 1e-9, "test", 0.0)
    _, _, free, rhs, _ = frozen_system(op, 65, 2)
    system.solve(policy, free, rhs, 1e-9, "test", 0.0)

    explicit, grid_free = [], free
    for k, level in enumerate(system.levels):
        if k:  # every other node of the finer grid's free mask
            shape = system.levels[k - 1].shape
            grid_free = grid_free.reshape(shape[::-1])[::2, ::2].ravel()
        f = grid_free[level.nodes].astype(float)
        np.testing.assert_array_equal(level.f, f)
        a = level.matrix.copy()  # diag(f) A diag(f) + diag(1 - f), in A's own order
        a.data *= np.repeat(f, np.diff(a.indptr)) * f[a.indices]
        a.data[a.indptr[:-1]] += 1.0 - f  # the centre leads every row
        explicit.append(SimpleNamespace(product=solvers._product(a), jacobi=level.jacobi,
                                        solve=level.solve, matrix=a, f=f, shape=level.shape))
    assert 0 < np.count_nonzero(explicit[1].f == 0.0) < explicit[1].f.size
    for fine, coarse in zip(explicit, explicit[1:]):
        t = solvers._interpolation(fine.shape, 1).copy()  # diag(f) P diag(f')
        t.data *= np.repeat(fine.f, np.diff(t.indptr)) * coarse.f[t.indices]
        coarse.p, coarse.pt = solvers._product(t), solvers._product(t.T)
    b = rhs[system.nodes] * explicit[0].f
    np.testing.assert_array_equal(system.precondition.matvec(b),
                                  solvers._cycle(explicit, b))

    bottom = explicit[-1]
    c = np.random.default_rng(2).standard_normal(bottom.f.size) * bottom.f
    x = bottom.solve(c)
    np.testing.assert_allclose(bottom.matrix @ x, c, rtol=0.0, atol=1e-12 * np.max(np.abs(c)))


# operators of every reach the coarse levels are checked on: one node layer
# (trace, pucci+-:1,2, the 1D max-of-linear), two (pucci+:1,10 and the
# strongly anisotropic linear)
REDISCRETIZED = [
    pytest.param(TRACE, 65, 2, id="trace"),
    pytest.param(pucci_max(1.0, 2.0), 65, 2, id="pucci+:1,2"),
    pytest.param(pucci_min(1.0, 2.0), 65, 2, id="pucci-:1,2"),
    pytest.param(pucci_max(1.0, 10.0), 65, 2, id="pucci+:1,10"),
    pytest.param(linear_operator([[1.0, 1.9], [1.9, 4.0]]), 65, 2, id="linear-wide"),
    pytest.param(max_of_linear([[[1.0]], [[3.0]]]), 257, 1, id="max_of_linear-1d"),
]


@pytest.mark.parametrize("op, res, ndim", REDISCRETIZED)
def test_coarse_levels_are_the_coarse_grids_own_stencils(op, res, ndim):
    """Every coarse level's matrix is the coarse grid's own frozen-policy
    system, assembled the direct way, for the policy and g injected to its
    nodes (every other node of every axis), at its own scale 1/h^2 and with
    g as its shift, over the nodes at least the scheme's margin inside it.
    So its off-centre entries are >= 0 and every row is weakly diagonally
    dominant: a monotone stencil, an M-matrix up to sign, whatever the
    scheme's reach."""
    from ellipticlab.stencils import operator_margin, policy_lines

    system, policy, free, rhs, _ = frozen_system(op, res, ndim)
    system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    grid = unit_square_grid(res, ndim=ndim)
    margin = operator_margin(op, ndim)
    assert len(system.levels) >= 3
    weights, g = policy, np.ones(grid.node_count)
    every_other = (slice(None, None, 2),) * ndim
    for fine, level in zip(system.levels, system.levels[1:]):
        weights = weights.reshape((-1,) + fine.shape[::-1])[(slice(None),) + every_other]
        weights = weights.reshape(len(policy), -1)
        g = g.reshape(fine.shape[::-1])[every_other].ravel()
        coarse = unit_square_grid(level.shape[0], ndim=ndim)
        nodes = np.flatnonzero(coarse.interior_mask(margin))
        np.testing.assert_array_equal(level.nodes, nodes)
        direct = renumbered_matrix(weights[:, nodes], policy_lines(op, coarse)[0],
                                   1.0 / coarse.h**2, nodes, coarse.node_count, g[nodes])
        dense = level.matrix.toarray()
        np.testing.assert_array_equal(dense, direct.toarray())
        centre = np.diag(dense)
        off = dense - np.diag(centre)
        assert np.all(off >= 0.0) and np.all(centre < 0.0)
        assert np.all(-centre >= off.sum(axis=1))


@pytest.mark.parametrize("op", [TRACE, pucci_max(1.0, 2.0)], ids=["trace", "pucci+:1,2"])
def test_a_rung_solves_alike_on_its_own_ladder_and_a_finer_one(op):
    """Every level holds its own grid's system, at scale 1/h^2, and the
    cycle scales the restricted residual by 2^-d: so the 65^2 rung of a
    129^2 ladder and the top of a 65^2 ladder are the same V-cycle, and the
    correction the rung computes is bit for bit the same either way, and
    meets the spsolve test's bounds."""
    system, policy, free, rhs, a = frozen_system(op, 65, 2)
    fine = unit_square_grid(129)
    rung = ladder_system(op, fine, np.ones(fine.node_count), 1)
    assert_matches_spsolve(rung, policy, free, rhs, a)
    x, krylov = system.solve(policy, free, rhs, 1e-9, "test", 0.0)
    y, again = rung.solve(policy, free, rhs, 1e-9, "test", 0.0)
    assert [level.shape for level in rung.levels] == [level.shape for level in system.levels]
    assert x.tobytes() == y.tobytes() and krylov == again


def test_wide_stencil_krylov_iterations_stay_flat():
    """``pucci+:1,10`` reaches two node layers and gets the same V-cycle as
    every other operator: plain BiCGSTAB took up to 162 iterations per step
    at 129^2 and 319 at 257^2 here, the V-cycle 10 and 12; the largest
    per-step count at 257^2 stays within twice the one at 129^2."""
    op = pucci_max(1.0, 10.0)
    worst = []
    for res in (129, 257):
        result = solve_obstacle(dataclasses.replace(disc_problem(res), op=op))
        assert result.residual <= 1e-9
        worst.append(max(row[2] for row in result.history))
    assert 1 <= worst[0] <= 20 and worst[1] <= 2 * worst[0]


def test_solves_retain_no_memory():
    """Each level's system is dropped when its loop returns, the ladder
    when the solve does, and nothing outlives a solve, not even in a
    reference cycle."""
    import gc
    import tracemalloc

    solve_obstacle(disc_problem(129))  # load modules and fill per-shape caches
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        current = []
        for _ in range(5):
            solve_obstacle(disc_problem(129))
            current.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
        gc.enable()
    assert current[-1] - current[0] < 0.5e6


def test_histories_have_one_row_per_step():
    op = pucci_max(1.0, 2.0)
    f, target, zero = manufactured_quad(op)
    r = solve_dirichlet(op, f, target, initial=zero)
    assert len(r.history) == r.iterations
    assert all(active == 0 and krylov >= 1 and not projected
               for _, active, krylov, projected in r.history)
    assert r.history[0][0] > r.history[-1][0] > r.residual

    o = solve_obstacle(disc_problem(65))
    assert len(o.history) == o.iterations == sum(s for _, s in o.level_steps)
    interior = np.count_nonzero(disc_problem(65).psi.grid.interior_mask(1))
    assert o.history[-1][1] == np.count_nonzero(o.contact) < interior
    # every level starts with projected steps, which take no BiCGSTAB
    # iteration; only the finest level goes on to BiCGSTAB steps
    assert all(krylov == 0 for _, _, krylov, projected in o.history if projected)
    rows = iter(o.history)
    for n, steps in o.level_steps:
        projected = [row[3] for row in itertools.islice(rows, steps)]
        assert projected[0] and projected == sorted(projected, reverse=True)
        assert all(projected) == (n != 65)


def test_pucci_min_obstacle_converges():
    """F_h a min over policies makes the obstacle problem an Isaacs system,
    on which moving the active set and the policy together cycles; holding
    the set through an inner policy iteration converges."""
    problem = dataclasses.replace(disc_problem(33), op=pucci_min(1.0, 2.0))
    assert solve_obstacle(problem).residual <= 1e-9


def test_pucci_min_obstacle_steps_coarse_to_fine():
    problem = dataclasses.replace(disc_problem(129), op=pucci_min(1.0, 2.0))
    result = solve_obstacle(problem)
    # the active-set loop alone took 9, 8, 9 and 13 steps, and 120 BiCGSTAB
    # iterations
    assert result.level_steps == ((17, 2), (33, 3), (65, 4), (129, 8))
    assert result.residual <= 1e-9
    assert round(result.contact_fraction, 4) == 0.1709
    assert np.array_equal(result.u.values[result.contact], problem.psi.values[result.contact])
    fh = eval_discrete(problem.op, result.u).values
    off = problem.psi.grid.interior_mask(1) & ~result.contact
    assert np.max(np.abs(fh[off] - result.u.values[off])) <= 1e-9


# ---------------------------------------------------------------------------
# projected multigrid steps while the contact set moves


SELLING = linear_operator([[2.0, 0.5], [0.5, 1.0]])  # off-axis Selling weights


@pytest.mark.parametrize("res, contacts", [
    (129, [(TRACE, 2009), (pucci_max(1.0, 2.0), 1421), (pucci_min(1.0, 2.0), 2757),
           (MAX_OF_DIAGONALS, 1657), (SELLING, 1941)]),
    (257, [(TRACE, 7893), (pucci_max(1.0, 2.0), 5557), (pucci_min(1.0, 2.0), 10993)]),
])
def test_projected_steps_keep_the_contact_sets(res, contacts):
    """The contact sets the active-set loop alone found: the projected steps
    hand it the set they end on, and it returns a fixed point of its own
    rule."""
    for op, count in contacts:
        result = solve_obstacle(dataclasses.replace(disc_problem(res), op=op))
        assert np.count_nonzero(result.contact) == count, op.kind
        assert result.residual <= 1e-9


@pytest.mark.parametrize("op, most", [
    (TRACE, 10), (pucci_min(1.0, 2.0), 20), (MAX_OF_DIAGONALS, 15), (SELLING, 15),
], ids=["trace", "pucci-:1,2", "max_of_linear", "linear"])
def test_projected_steps_cut_the_bicgstab_iterations(op, most):
    """The active-set loop alone took 34, 120, 59 and 45 BiCGSTAB iterations
    at 129^2: most of them moved the contact set a ring at a time, which the
    projected steps now do."""
    result = solve_obstacle(dataclasses.replace(disc_problem(129), op=op))
    assert sum(krylov for _, _, krylov, _ in result.history) <= most


def test_projected_steps_end_when_the_pinned_set_flips_back():
    """At 257^2 the trace's pinned set flips between 7893 and 7901 nodes; the
    projected steps end as soon as it returns to the set two steps back."""
    result = solve_obstacle(disc_problem(257))
    finest = result.history[-result.level_steps[-1][1]:]
    assert [active for _, active, _, projected in finest if projected] == [7893, 7901, 7893]


def test_dirichlet_history_is_the_active_set_loops():
    """A Dirichlet solve pins no node, so it takes no projected step: its
    65^2 trace history stays 2 BiCGSTAB steps of 2 iterations each."""
    f, target, zero = manufactured_quad(TRACE, 65)
    result = solve_dirichlet(TRACE, f, target, initial=zero)
    assert [(krylov, projected) for _, _, krylov, projected in result.history] == \
        [(2, False), (2, False)]


def test_two_layer_stencils_take_no_projected_step():
    """pucci+:1,10 reaches two node layers, on which the projected steps
    diverged at 257^2; its obstacle solve is the active-set loop alone."""
    result = solve_obstacle(dataclasses.replace(disc_problem(65), op=pucci_max(1.0, 10.0)))
    assert not any(projected for *_, projected in result.history)
    assert all(seconds["projected_s"] == 0.0 for _, seconds in result.timings)
