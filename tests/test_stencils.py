import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import (
    GridFunction,
    discrete_hessian,
    eval_discrete,
    linear_operator,
    max_of_linear,
    op_eval,
    operator_margin,
    parse_operator,
    pucci_max,
    pucci_min,
    trace_operator,
)
from ellipticlab import stencils
from ellipticlab.stencils import eval_policy, policy_lines

from conftest import (
    dense_rim_envelope,
    field,
    quadratic_field,
    unit_square_grid,
    whole_grid_envelope,
)


def interior(values_lattice, margin):
    return values_lattice[margin:-margin, margin:-margin]


# ---------------------------------------------------------------------------
# central-difference Hessians


def test_hessian_exact_on_quadratic(grid33):
    m = np.array([[2.0, 0.75], [0.75, -1.0]])
    hf = discrete_hessian(quadratic_field(grid33, m, p=(0.3, -0.2), c=1.0))
    for (i, j), want in (((0, 0), 2.0), ((0, 1), 0.75), ((1, 1), -1.0)):
        got = interior(hf[(i, j)], 1)
        np.testing.assert_allclose(got, want, rtol=0, atol=5e-12)


def test_hessian_nan_ring(grid33):
    hf = discrete_hessian(quadratic_field(grid33, np.eye(2)))
    for comp in hf.values():
        assert np.isnan(comp[0]).all() and np.isnan(comp[-1]).all()
        assert np.isnan(comp[:, 0]).all() and np.isnan(comp[:, -1]).all()
        assert np.isfinite(interior(comp, 1)).all()


def test_hessian_matrix_at_interior(grid33):
    m = np.array([[1.0, -0.5], [-0.5, 3.0]])
    hf = discrete_hessian(quadratic_field(grid33, m))
    for (i, j), comp in hf.items():
        assert comp[16, 16] == pytest.approx(m[i, j], rel=0, abs=5e-12)


def test_hessian_1d():
    from ellipticlab import Domain, Grid

    g = Grid(Domain((0.0,), (1.0,)), (41,))
    u = field(g, lambda p: 3.0 * p[:, 0] ** 2)
    xx = discrete_hessian(u)[(0, 0)]
    np.testing.assert_allclose(xx[1:-1], 6.0, rtol=0, atol=1e-9)
    assert np.isnan(xx[0]) and np.isnan(xx[-1])


def test_hessian_3d():
    m = np.array([[2.0, 0.75, -0.5], [0.75, -1.0, 0.25], [-0.5, 0.25, 3.0]])
    hf = discrete_hessian(quadratic_field(unit_square_grid(9, ndim=3), m, p=(0.3, -0.2, 0.1)))
    assert sorted(hf) == [(i, j) for i in range(3) for j in range(i, 3)]
    inner = (slice(1, -1),) * 3
    for (i, j), comp in hf.items():
        np.testing.assert_allclose(comp[inner], m[i, j], rtol=0, atol=5e-12)
        ring = np.ones(comp.shape, bool)
        ring[inner] = False
        assert np.isnan(comp[ring]).all()


# ---------------------------------------------------------------------------
# margins


def test_operator_margins():
    """The margin is the reach of the stencils."""
    assert operator_margin(trace_operator(), 2) == 1
    assert operator_margin(linear_operator(np.eye(2)), 2) == 1
    assert operator_margin(linear_operator([[2.0, 0.5], [0.5, 1.0]]), 2) == 1
    # Selling's decomposition of [[1, 1.9], [1.9, 4]] uses the direction (1, 2)
    assert operator_margin(linear_operator([[1.0, 1.9], [1.9, 4.0]]), 2) == 2
    assert operator_margin(pucci_max(1.0, 2.0), 2) == 1
    assert operator_margin(pucci_min(1.0, 10.0), 2) == 2
    assert operator_margin(pucci_max(1.0, 2.0), 1) == 1


@pytest.mark.parametrize("op", [pucci_max(1.0, 2.0), pucci_min(1.0, 2.0)],
                         ids=lambda op: op.kind)
def test_pucci_scheme_has_one_buffer_per_line(op):
    """pucci+-:1,2 uses the four lines of the 3x3 neighbourhood once each,
    whatever the orientation Selling gives them: lam2 I and lam1 I on the
    axes, and two arcs of the rim, t in [0, pi] with (1, 1) and t in [pi,
    2 pi] with (1, -1).  At 1,10 the rim needs lines reaching two nodes."""
    scheme = stencils._scheme(op, 2)
    lines = {max(e, (-e[0], -e[1])) for e in scheme.directions}
    assert len(scheme.directions) == len(lines) == 4
    assert [len(row) for row in scheme.rows] == [2, 2]
    assert len(scheme.arcs) == 2
    assert [arc.half for arc in scheme.arcs] == [(0.0, 1.0), (0.0, 1.0)]  # each is pi long
    diagonals = [{scheme.directions[k] for k, _ in arc.terms[0]} - {(-1, 0), (0, 1)}
                 for arc in scheme.arcs]
    assert diagonals == [{(1, 1)}, {(1, -1)}]
    assert scheme.margin == 1
    wide = stencils._scheme((pucci_max if op.kind == "pucci_max" else pucci_min)(1.0, 10.0), 2)
    assert (len(wide.arcs), len(wide.directions), wide.margin) == (10, 8, 2)


@pytest.mark.parametrize("op", [trace_operator(), linear_operator([[1.0, 1.9], [1.9, 4.0]]),
                                pucci_min(1.0, 2.0)], ids=lambda op: op.kind)
def test_eval_discrete_is_nan_exactly_on_the_margin_band(op):
    g = unit_square_grid(17)
    u = GridFunction(g, np.random.default_rng(3).standard_normal(g.node_count))
    vals = eval_discrete(op, u).values
    inside = g.interior_mask(operator_margin(op, 2))
    assert np.all(np.isfinite(vals[inside])) and np.all(np.isnan(vals[~inside]))


def test_eval_discrete_rejects_a_grid_inside_its_reach():
    """The direction (1, 2) leaves no interior node on a 4^2 grid."""
    op = linear_operator([[1.0, 1.9], [1.9, 4.0]])
    g = unit_square_grid(4)
    u = GridFunction(g, np.zeros(g.node_count))
    with pytest.raises(ValueError, match="exits domain"):
        eval_discrete(op, u)


# ---------------------------------------------------------------------------
# discrete evaluation vs the pointwise operator


def test_eval_discrete_trace_is_laplacian(grid33):
    u = quadratic_field(grid33, np.diag([2.0, -0.5]))
    e = eval_discrete(trace_operator(), u).lattice()
    np.testing.assert_allclose(interior(e, 1), 1.5, rtol=0, atol=5e-12)


def test_eval_discrete_linear_matches_matrix_oracle(grid33):
    """Selling's weights make the scheme of any SPD A exact on quadratics."""
    m = np.array([[1.0, -2.0], [-2.0, 0.25]])
    u = quadratic_field(grid33, m)
    for a in ([[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.9], [1.9, 4.0]], [[3.0, -1.2], [-1.2, 0.6]]):
        op = linear_operator(a)
        e = eval_discrete(op, u).lattice()
        np.testing.assert_allclose(interior(e, operator_margin(op, 2)), np.sum(np.array(a) * m),
                                   rtol=0, atol=5e-11)


def rotated(mu1, mu2, phi):
    """The symmetric matrix with eigenvalues mu1 >= mu2, mu1's eigenvector at
    angle phi."""
    r = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    return r @ np.diag([mu1, mu2]) @ r.T


def test_eval_discrete_pucci_wide_stencil_consistency():
    """Pucci's scheme takes the max (min) of tr(A X) over lam2 I, lam1 I and
    the whole rim, each exact on quadratics, so it reproduces every
    quadratic, whatever the angle of its eigenvectors (margin 2 at 1,10)."""
    g = unit_square_grid(9)
    rng = np.random.default_rng(21)
    for ratio in (2.0, 4.0, 10.0):
        ops = pucci_max(1.0, ratio), pucci_min(1.0, ratio)
        for _ in range(200):
            mu1, mu2 = np.sort(rng.uniform(-3.0, 3.0, 2))[::-1]
            m = rotated(mu1, mu2, rng.uniform(0.0, np.pi))
            u = quadratic_field(g, m)
            for op in ops:
                vals = interior(eval_discrete(op, u).lattice(), operator_margin(op, 2))
                np.testing.assert_allclose(vals, op_eval(op, m), rtol=0, atol=1e-10)


SMOOTH_GAP, KINK_GAP = 1.0 - np.cos(np.pi / 2048), np.pi / 2048


@pytest.mark.parametrize("op, gap", [(pucci_max(1.0, 2.0), SMOOTH_GAP),
                                     (pucci_min(1.0, 2.0), SMOOTH_GAP),
                                     (pucci_max(1.0, 10.0), KINK_GAP),
                                     (pucci_min(1.0, 10.0), KINK_GAP)],
                         ids=["pucci+:1,2", "pucci-:1,2", "pucci+:1,10", "pucci-:1,10"])
def test_closed_form_is_the_pick_over_the_dense_rim(op, gap):
    """On a random field the closed form never falls short of the pick over
    2048 rim angles (beyond roundoff), and passes it by at most the sampling
    gap.  An arc's stencil is S0 + hypot(P, Q) cos(t - t*).  At 1,2 the arcs
    end at t = 0 and pi, which are sampled, so the pick lies within pi / 2048
    of a sample on its own arc and the gap is hypot(P, Q)(1 - cos(pi /
    2048)).  At 1,10 arcs end between samples, where the rim's stencil has a
    kink, so the gap is its Lipschitz bound, hypot(P, Q) pi / 2048."""
    g = unit_square_grid(17, half=8.0)  # h = 1
    u = GridFunction(g, np.random.default_rng(4).standard_normal(g.node_count))
    want, nodes = dense_rim_envelope(op, u)
    got = eval_discrete(op, u).values[nodes]
    scheme = stencils._scheme(op, 2)
    d = [u.values[nodes + s] - 2.0 * u.values[nodes] + u.values[nodes - s]
         for s in policy_lines(op, g)[0]]
    radius = np.max([np.hypot(sum(c * d[k] for k, c in arc.terms[1]),
                              sum(c * d[k] for k, c in arc.terms[2])) for arc in scheme.arcs],
                    axis=0)
    excess = (want - got) if scheme.minimize else (got - want)
    assert excess.min() >= -1e-12
    assert np.all(excess <= gap * radius + 1e-12)
    assert excess.max() > 0.0  # the sampled rim misses some argmax


def test_eval_discrete_pucci_min_mirrors_max(grid65):
    u = quadratic_field(grid65, np.array([[1.0, 0.3], [0.3, -0.7]]))
    neg = u.with_values(-u.values)
    a = eval_discrete(pucci_min(1.0, 2.0), u).values
    b = -eval_discrete(pucci_max(1.0, 2.0), neg).values
    np.testing.assert_allclose(a[np.isfinite(a)], b[np.isfinite(b)], rtol=0, atol=1e-11)


# ---------------------------------------------------------------------------
# scheme structure: homogeneity and monotonicity

SCHEME_OPS = [
    trace_operator(),
    linear_operator(np.diag([2.0, 0.5])),
    linear_operator([[2.0, 0.5], [0.5, 1.0]]),
    max_of_linear([np.diag([1.0, 2.0]), [[2.0, -0.5], [-0.5, 1.0]]]),
    pucci_max(1.0, 2.0),
    pucci_min(1.0, 2.0),
    pucci_max(1.0, 10.0),
    pucci_min(1.0, 10.0),
]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.01, 10.0))
def test_eval_discrete_positively_homogeneous(seed, sigma):
    """Compared norm-wise: F_h's roundoff at a node scales with the terms it
    sums, which can be large where F_h itself is near 0."""
    g = unit_square_grid(17)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    for op in SCHEME_OPS:
        a = eval_discrete(op, u.with_values(sigma * u.values)).values
        b = sigma * eval_discrete(op, u).values
        fin = np.isfinite(a)
        np.testing.assert_allclose(a[fin], b[fin], rtol=1e-12,
                                   atol=1e-12 * (1.0 + np.max(np.abs(b[fin]))))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.01, 5.0))
def test_scheme_monotone_under_nonnegative_bump(seed, height):
    """Raising one node value never lowers the scheme at other nodes (the
    discrete comparison-principle ingredient)."""
    g = unit_square_grid(17)
    rng = np.random.default_rng(seed)
    u = GridFunction(g, rng.standard_normal(g.node_count))
    j = int(rng.integers(0, g.node_count))
    bumped_vals = u.values.copy()
    bumped_vals[j] += height
    bumped = u.with_values(bumped_vals)
    for op in SCHEME_OPS:
        before = eval_discrete(op, u).values
        after = eval_discrete(op, bumped).values
        ok = np.isfinite(before) & np.isfinite(after)
        ok[j] = False  # the center coefficient is negative by design
        drop = np.min(after[ok] - before[ok]) if ok.any() else 0.0
        assert drop >= -1e-10 * (1.0 + height), (op.kind, drop)


# ---------------------------------------------------------------------------
# the policy's line weights are the scheme


def frozen_envelope(op, u):
    """At every interior node, the line weights eval_policy picked there,
    applied to u as sum c D_e u / h^2; and eval_discrete on the same nodes."""
    grid = u.grid
    fh, policy = eval_policy(op, u)
    shifts, _ = policy_lines(op, grid)
    assert policy.shape == (len(shifts), grid.node_count) and policy.min() >= 0.0
    nodes = np.flatnonzero(grid.interior_mask(operator_margin(op, grid.ndim)))
    got = sum(c[nodes] * (u.values[nodes + s] - 2.0 * u.values[nodes] + u.values[nodes - s])
              for c, s in zip(policy, shifts)) / grid.h**2
    np.testing.assert_array_equal(fh.values, eval_discrete(op, u).values)
    return got, fh.values[nodes]


ENVELOPE_OPS = [
    trace_operator(),
    linear_operator(np.diag([2.0, 0.5])),
    linear_operator([[2.0, 0.5], [0.5, 1.0]]),
    max_of_linear([np.diag([1.0, 2.0]), [[2.0, -0.5], [-0.5, 1.0]]]),
    pucci_max(1.0, 2.0),
    pucci_min(1.0, 2.0),
]
# ten arcs on eight lines reaching two nodes
WIDE_PUCCI = [pytest.param(pucci_max(1.0, 10.0), id="pucci_max-1,10"),
              pytest.param(pucci_min(1.0, 10.0), id="pucci_min-1,10")]


@pytest.mark.parametrize("op", ENVELOPE_OPS + WIDE_PUCCI, ids=lambda op: op.kind)
def test_policy_stencils_reproduce_eval_discrete(op):
    """The policy's line weights reproduce eval_discrete."""
    g = unit_square_grid(33)
    u = GridFunction(g, np.random.default_rng(5).standard_normal(g.node_count))
    got, want = frozen_envelope(op, u)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("spec", ["trace", "linear:3", "pucci+:1,2", "pucci-:1,2"])
def test_policy_stencils_reproduce_eval_discrete_1d(spec):
    from ellipticlab import Domain, Grid

    g = Grid(Domain((0.0,), (1.0,)), (41,))
    u = GridFunction(g, np.random.default_rng(6).standard_normal(g.node_count))
    got, want = frozen_envelope(parse_operator(spec), u)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("spec", ["pucci+:1,2", "pucci-:1,2", "pucci+:1,10"])
def test_policy_of_an_affine_field_is_finite(spec):
    """An integer-valued affine field on a unit lattice has D_e u = 0 exactly,
    so P = Q = 0 on every arc: every angle attains the arc's value, and the
    weights are those of its middle, without a 0 / 0."""
    g = unit_square_grid(17, half=8.0)
    u = field(g, lambda p: 3.0 + 2.0 * p[:, 0] - 5.0 * p[:, 1])
    got, want = frozen_envelope(parse_operator(spec), u)
    assert np.all(want == 0.0) and np.all(got == 0.0)
    _, policy = eval_policy(parse_operator(spec), u)
    assert np.all(np.isfinite(policy))


def test_eval_discrete_rejects_3d():
    from ellipticlab import Domain, Grid

    g = Grid(Domain((0.0,) * 3, (1.0,) * 3), (5, 5, 5))
    u = GridFunction(g, np.zeros(g.node_count))
    with pytest.raises(ValueError, match="1D and 2D"):
        eval_discrete(parse_operator("trace"), u)


# ---------------------------------------------------------------------------
# strips: the same values and policy as one whole-grid pass, bit for bit


@pytest.mark.parametrize("strip", [1 << 17, 200])
def test_envelope_walks_3d_slabs(monkeypatch, strip):
    """The strip walk and the band blanking are n-dimensional although no 3D
    scheme is built yet: a hand-made two-candidate scheme of margin 2 on a
    non-cubic grid, in one strip and in strips of one slab, against a
    whole-lattice pass with the same arithmetic."""
    from ellipticlab import Domain, Grid

    scheme = stencils._Scheme(directions=((1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 2, 2)),
                              rows=(((0, 1.0), (1, 1.0), (2, 1.0)), ((3, 0.5), (1, 2.0))),
                              arcs=(), minimize=False, margin=2)
    monkeypatch.setattr(stencils, "_scheme", lambda op, ndim: scheme)
    monkeypatch.setattr(stencils, "_STRIP", strip)
    g = Grid(Domain((0.0, 0.0, 0.0), (1.0, 1.5, 0.75)), (9, 13, 7))
    u = GridFunction(g, np.random.default_rng(3).standard_normal(g.node_count))

    lat = u.lattice()
    core = tuple(slice(2, n - 2) for n in lat.shape)

    def moved(e, sign):
        return lat[tuple(slice(2 + sign * k, n - 2 + sign * k)
                         for k, n in zip(e[::-1], lat.shape))]

    d = [-2.0 * lat[core] + moved(e, 1) + moved(e, -1) for e in scheme.directions]
    first, second = d[0] + d[1] + d[2], 0.5 * d[3] + 2.0 * d[1]
    want = np.full(lat.shape, np.nan)
    want[core] = np.maximum(first, second) / g.h**2
    want_policy = np.zeros((4,) + lat.shape)
    for k, (one, two) in enumerate(((1.0, 0.0), (1.0, 2.0), (1.0, 0.0), (0.0, 0.5))):
        want_policy[k][core] = np.where(second > first, two, one)

    fh, policy = eval_policy(trace_operator(), u)
    np.testing.assert_array_equal(fh.values, want.ravel())
    np.testing.assert_array_equal(policy, want_policy.reshape(4, -1))
    shifts, _ = policy_lines(trace_operator(), g)
    assert shifts == [1, 9, 9 * 13, -2 + 2 * 9 + 2 * 9 * 13]


STRIP_OPS = ENVELOPE_OPS + [linear_operator([[1.0, 1.9], [1.9, 4.0]]),  # margins 1, 2, 3
                             linear_operator([[1.0, 2.9], [2.9, 9.0]])]


def assert_whole_grid_envelope(op, u):
    for track in (False, True):
        want, want_policy = whole_grid_envelope(op, u, track)
        fh, policy = eval_policy(op, u) if track else (eval_discrete(op, u), None)
        np.testing.assert_array_equal(fh.values, want)
        if want_policy is not None:
            assert policy.dtype == want_policy.dtype
            np.testing.assert_array_equal(policy, want_policy)


@pytest.mark.parametrize("shape", [(33, 33), (41, 33), (33, 41)])
@pytest.mark.parametrize("op", STRIP_OPS + WIDE_PUCCI, ids=lambda op: op.kind)
def test_strips_are_the_whole_grid_evaluation(op, shape, monkeypatch):
    """The strip budget is shared by 2 to 14 buffers: 64 nodes make every
    strip one row, 1000 a few rows, with a ragged last strip where they do
    not divide the interior rows."""
    from ellipticlab import Domain, Grid

    g = Grid(Domain((0.0, 0.0), ((shape[0] - 1) / 32, (shape[1] - 1) / 32)), shape)
    u = GridFunction(g, np.random.default_rng(11).standard_normal(g.node_count))
    for strip in (64, 1000):
        monkeypatch.setattr(stencils, "_STRIP", strip)
        assert_whole_grid_envelope(op, u)


@pytest.mark.parametrize("op", [trace_operator(), max_of_linear([np.diag([1.0, 2.0]),
                                                                 np.diag([2.0, 1.0])]),
                                pucci_max(1.0, 2.0), pucci_min(1.0, 2.0)],
                         ids=lambda op: op.kind)
def test_default_strips_are_the_whole_grid_evaluation(op):
    """A 301^2 field spans 2 (trace) to 5 (Pucci) strips of the default size."""
    g = unit_square_grid(301)
    u = GridFunction(g, np.random.default_rng(12).standard_normal(g.node_count))
    assert_whole_grid_envelope(op, u)


@pytest.mark.parametrize("spec", ["trace", "linear:3", "pucci+:1,2", "pucci-:1,2"])
def test_strips_on_a_line_are_the_whole_grid_evaluation(spec):
    """A line is one row, so one strip whatever its length."""
    from ellipticlab import Domain, Grid

    g = Grid(Domain((0.0,), (1.0,)), (1001,))
    u = GridFunction(g, np.random.default_rng(13).standard_normal(g.node_count))
    assert_whole_grid_envelope(parse_operator(spec), u)


def test_trace_evaluation_makes_no_whole_grid_temporaries():
    """A 129^2 trace evaluation is one strip; at its peak it holds the output
    and one strip buffer per direction, where one temporary per term would
    hold five interior-sized arrays."""
    import tracemalloc

    g = unit_square_grid(129)
    u = GridFunction(g, np.random.default_rng(14).standard_normal(g.node_count))
    op = trace_operator()
    eval_discrete(op, u)  # builds the scheme
    tracemalloc.start()
    try:
        eval_discrete(op, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 127 * 127 * 8
