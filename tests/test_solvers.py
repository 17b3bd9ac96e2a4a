import numpy as np
import pytest

from ellipticlab import (
    Ball,
    GridFunction,
    ObstacleProblem,
    SolverConfig,
    SolverError,
    build_fixture,
    disc_problem,
    eval_discrete,
    linear_operator,
    max_of_linear,
    pucci_max,
    pucci_min,
    square_grid,
    solve_dirichlet,
    solve_obstacle,
    trace_operator,
)

from conftest import field, quadratic_field, unit_square_grid

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


def test_iteration_budget_raises_solver_error():
    op = pucci_max(1.0, 2.0)
    f, target, zero = manufactured_quad(op)
    assert solve_dirichlet(op, f, target, initial=zero).iterations >= 2
    with pytest.raises(SolverError, match="on the 33x33 grid failed to converge") as err:
        solve_dirichlet(op, f, target, initial=zero,
                        config=SolverConfig(max_iterations=1))
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


def test_realized_field_sits_inside_reported_bounds(disc65):
    prob = disc_problem(65)
    fh = eval_discrete(prob.op, disc65.u).values
    mask = prob.psi.grid.interior_mask(1)
    assert np.min(fh[mask]) >= disc65.lam_lo - 1e-9
    assert np.max(fh[mask]) <= disc65.lam_hi + 1e-9


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
    disc = disc_problem(65)
    problem = ObstacleProblem(op, disc.psi, disc.boundary, disc.f, disc.g_weight)
    fast, cold = solve_obstacle(problem), cold_start(problem)
    assert [n for n, _ in fast.level_steps] == [17, 33, 65]
    assert cold.level_steps == ((65, cold.iterations),)
    assert fast.iterations == sum(steps for _, steps in fast.level_steps)
    assert_same_fixed_point(fast, cold)


@pytest.mark.parametrize("res", [129, 257])
def test_coarse_to_fine_step_count_is_mesh_independent(res):
    """From the cold start the finest level took 22 and 44 steps, releasing
    about one node layer per step; seeded from the coarse contact set it
    takes a few."""
    result = solve_obstacle(disc_problem(res))
    levels = [n for n, _ in result.level_steps]
    assert levels == [17, 33, 65, 129, 257][:len(levels)] and levels[-1] == res
    assert result.level_steps[-1][1] <= 6
    assert result.residual <= 1e-9


def fallback_problem(case):
    """Obstacle problems whose first coarsening is refused."""
    if case == "odd-cells":  # 33 cells per axis
        op, res, top = TRACE, 34, 0.25
    elif case == "coarse-band":
        # this stencil reaches 2 nodes: psi = 0.51 - |x|^2 stays below the
        # zero boundary data on the band of 65^2 (|x| >= 0.727) but not on
        # that of 33^2, which reaches in to |x| = 0.703
        op, res, top = linear_operator([[1.0, 1.9], [1.9, 4.0]]), 65, 0.51
    else:  # this stencil reaches 9 nodes: 17^2 would have no interior
        op, res, top = linear_operator([[1.01, 9.0], [9.0, 81.01]]), 33, -0.1
    grid = square_grid(res, 0.75)
    psi = GridFunction.from_callable(grid, lambda p: top - np.sum(p**2, axis=1))
    return ObstacleProblem(op, psi, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("case", ["odd-cells", "coarse-band", "no-coarse-interior"])
def test_refused_coarsening_starts_cold(case):
    problem = fallback_problem(case)
    result = solve_obstacle(problem)
    res = problem.psi.grid.shape[0]
    assert result.level_steps == ((res, result.iterations),)
    assert result.contact.any() == (case != "no-coarse-interior")
    assert_same_fixed_point(result, cold_start(problem))


def test_exact_start_returns_after_0_steps_on_every_seeded_level():
    """An affine boundary with f = g = 0 and psi far below it: the coarsest
    level starts cold and takes its one step, and every finer level, whose
    interpolated start is already exact and pinned on its (empty) seed,
    returns at once."""
    grid = square_grid(65, 0.75)
    affine = GridFunction.from_callable(grid, lambda p: 1.0 + 0.5 * p[:, 0] - 0.25 * p[:, 1])
    psi = affine.with_values(np.full(grid.node_count, -10.0))
    result = solve_obstacle(ObstacleProblem(TRACE, psi, affine, 0.0, 0.0))
    assert result.level_steps == ((17, 1), (33, 0), (65, 0))
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


def test_coarse_level_failure_names_its_grid():
    with pytest.raises(SolverError, match="on the 17x17 grid failed to converge"):
        solve_obstacle(disc_problem(65), config=SolverConfig(max_iterations=1))


# ---------------------------------------------------------------------------
# multigrid-preconditioned linear solves and solver histories


def frozen_system(op, res, ndim, seed=0, hole=0.3):
    """A frozen-policy matrix (shifted by g = 1, as in the obstacle solve)
    over the interior nodes of a random field, less a contact hole |x| < hole."""
    from ellipticlab.solvers import _matrix
    from ellipticlab.stencils import eval_policy, frozen_stencils

    grid = unit_square_grid(res, ndim=ndim)
    rng = np.random.default_rng(seed)
    u = GridFunction(grid, rng.standard_normal(grid.node_count))
    _, policy = eval_policy(op, u)
    inside = np.sum(grid.points() ** 2, axis=1) < hole**2
    nodes = np.flatnonzero(grid.interior_mask(1) & ~inside).astype(np.int32)
    a = _matrix(frozen_stencils(op, grid), policy, nodes, grid.node_count, 1.0)
    return a, nodes, grid.shape, rng.standard_normal(nodes.size)


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


def assert_matches_spsolve(a, rhs, cycle):
    from scipy.sparse.linalg import spsolve
    from ellipticlab.solvers import _INNER_ATOL, _INNER_RTOL, _correction

    tol = 1e-9
    x, krylov = _correction(a, rhs, tol, "test", 0.0, cycle)
    exact = spsolve(a.tocsc(), rhs)
    bound = max(_INNER_RTOL * np.linalg.norm(rhs), _INNER_ATOL * tol)
    assert np.linalg.norm(a @ (x - exact)) <= 1.01 * bound
    assert np.max(np.abs(x - exact)) <= 1e-4 * np.max(np.abs(exact))
    assert 1 <= krylov <= 6


@pytest.mark.parametrize("op, res, ndim", COMPACT_SYSTEMS)
def test_preconditioned_correction_matches_spsolve(op, res, ndim):
    from ellipticlab.solvers import _vcycle

    a, nodes, shape, rhs = frozen_system(op, res, ndim)
    built = _vcycle(a, nodes, shape)
    assert built is not None
    assert_matches_spsolve(a, rhs, built[0])


# the 1D max-of-linear system picks a coefficient of 1 or 3 at random per
# node; on a coarse part built for another hole it takes 7 iterations (5
# when built in full), the worst case of these systems, and is left out
@pytest.mark.parametrize("op, res, ndim", COMPACT_SYSTEMS[:-1])
def test_reused_coarse_levels_still_match_spsolve(op, res, ndim):
    """The coarse part of a V-cycle built on one contact hole preconditions
    the system of a larger hole: only the finest level is rebuilt, and the
    correction still meets the spsolve test's bounds."""
    from ellipticlab.solvers import _vcycle

    first, first_nodes, shape, _ = frozen_system(op, res, ndim, hole=0.25)
    _, coarse = _vcycle(first, first_nodes, shape)
    a, nodes, _, rhs = frozen_system(op, res, ndim)
    assert not np.array_equal(nodes, first_nodes)
    cycle, reused = _vcycle(a, nodes, shape, coarse)
    assert reused is coarse
    assert_matches_spsolve(a, rhs, cycle)


def test_unpreconditioned_when_coarsening_is_impossible():
    """33 cells per axis: no coarse grid, so the plain iteration runs."""
    from ellipticlab.solvers import _vcycle

    a, nodes, shape, _ = frozen_system(TRACE, 34, 2)
    assert _vcycle(a, nodes, shape) is None


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
    get the V-cycle like the trace's."""
    built = count_calls(monkeypatch, "_vcycle", lambda *args: args[2])
    op = pucci_max(1.0, 2.0)
    f, target, zero = manufactured_quad(op)
    assert solve_dirichlet(op, f, target, initial=zero).iterations >= 1
    assert built and set(built) == {(33, 33)}
    disc = disc_problem(33)
    solve_obstacle(ObstacleProblem(op, disc.psi, disc.boundary, disc.f, disc.g_weight))
    assert set(built) == {(17, 17), (33, 33)}


def test_obstacle_builds_one_hierarchy_per_level(monkeypatch):
    """The first V-cycle on a level is built in full; later steps rebuild
    only its finest level, or nothing when the system repeats."""
    full = count_calls(monkeypatch, "_vcycle",
                       lambda a, nodes, shape, coarse=None: (shape, coarse is None))
    result = solve_obstacle(disc_problem(129))
    assert result.level_steps == ((17, 4), (33, 4), (65, 4), (129, 4))
    assert [shape for shape, first in full if first] == \
        [(17, 17), (33, 33), (65, 65), (129, 129)]
    assert len(full) < result.iterations


@pytest.mark.parametrize("op", [TRACE, MAX_OF_DIAGONALS], ids=["trace", "max_of_linear"])
def test_matrix_is_assembled_once_per_system(monkeypatch, op):
    """A step whose free nodes and chosen policy repeat the previous step's
    reuses its matrix.  The trace's last step on every level repeats the
    one before; max-of-linear's policy still moves at a few nodes there."""
    keys = count_calls(monkeypatch, "_matrix", lambda stencils, policy, nodes, n, shift: (
        n, nodes.tobytes(), None if policy is None else policy[nodes].tobytes()))
    disc = disc_problem(129)
    result = solve_obstacle(ObstacleProblem(op, disc.psi, disc.boundary, disc.f,
                                            disc.g_weight))
    assert len(keys) == len(set(keys))
    assert len(keys) == result.iterations - (4 if op is TRACE else 0)


def test_dirichlet_solve_builds_once_for_a_repeated_system(monkeypatch):
    """The trace's policy never changes, so both steps of the 65^2 solve
    share one matrix and one V-cycle."""
    built = count_calls(monkeypatch, "_vcycle", lambda *args: args[2])
    assembled = count_calls(monkeypatch, "_matrix", lambda *args: args[3])
    f, target, zero = manufactured_quad(TRACE, 65)
    assert solve_dirichlet(TRACE, f, target, initial=zero).iterations == 2
    assert built == [(65, 65)] and assembled == [65 * 65]


def test_a_repeated_system_gives_the_rebuilt_correction(monkeypatch):
    """Reusing the previous step's system is bit for bit the same as
    assembling it and building its V-cycle (on the same coarse part) again."""
    from ellipticlab.solvers import _FrozenSystem, _correction, _matrix, _vcycle
    from ellipticlab.stencils import eval_policy, frozen_stencils

    op = MAX_OF_DIAGONALS
    _, first, shape, first_rhs = frozen_system(op, 65, 2, hole=0.25)
    _, nodes, _, rhs = frozen_system(op, 65, 2)
    grid = unit_square_grid(65)
    _, policy = eval_policy(op, GridFunction(
        grid, np.random.default_rng(0).standard_normal(grid.node_count)))
    stencils, g = frozen_stencils(op, grid), np.ones(grid.node_count)
    system = _FrozenSystem(stencils, g, shape)
    system.solve(policy, first, first_rhs, 1e-9, "test", 0.0)
    system.solve(policy, nodes, -rhs, 1e-9, "test", 0.0)
    assembled = count_calls(monkeypatch, "_matrix", lambda *args: None)
    x, krylov = system.solve(policy, nodes, rhs, 1e-9, "test", 0.0)
    assert assembled == []
    a = _matrix(stencils, policy, nodes, grid.node_count, g[nodes])
    cycle, _ = _vcycle(a, nodes, shape, system.coarse)
    y, again = _correction(a, rhs, 1e-9, "test", 0.0, cycle)
    np.testing.assert_array_equal(x, y)
    assert krylov == again


def test_solves_retain_no_memory():
    """Each step's system is dropped before the next is assembled, and
    nothing outlives a solve, not even in a reference cycle."""
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
    assert all(active == 0 and krylov >= 1 for _, active, krylov in r.history)
    assert r.history[0][0] > r.history[-1][0] > r.residual

    o = solve_obstacle(disc_problem(65))
    assert len(o.history) == o.iterations == sum(s for _, s in o.level_steps)
    interior = np.count_nonzero(disc_problem(65).psi.grid.interior_mask(1))
    assert o.history[-1][1] == np.count_nonzero(o.contact) < interior


@pytest.mark.xfail(strict=True, raises=SolverError,
                   reason="F_h a min over policies makes the obstacle problem an"
                          " Isaacs system, on which plain policy/active-set"
                          " iteration cycles; needs nested policy iteration")
def test_pucci_min_obstacle_converges():
    disc = disc_problem(33)
    problem = ObstacleProblem(pucci_min(1.0, 2.0), disc.psi, disc.boundary,
                              disc.f, disc.g_weight)
    assert solve_obstacle(problem).residual <= 1e-9
