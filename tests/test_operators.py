import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import (
    EllipticityParams,
    check_homogeneity,
    check_uniform_ellipticity,
    linear_operator,
    max_of_linear,
    op_eval,
    parse_operator,
    pucci_max,
    pucci_min,
    trace_operator,
)
from ellipticlab import operators
from ellipticlab.operators import _spectrum, operator_spec_string

from conftest import loop_homogeneity, loop_op_eval, loop_uniform_ellipticity


def random_sym(rng, n, scale=3.0):
    a = rng.standard_normal((n, n)) * scale
    return (a + a.T) / 2


def spectrum_in_band(rng, n, lam1, lam2):
    """A random symmetric matrix with eigenvalues drawn inside [lam1, lam2]."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(lam1, lam2, size=n)
    return q @ np.diag(d) @ q.T


def pucci_oracle_max(m, lam1, lam2):
    """sup over tr(A M) with spec(A) in [lam1, lam2], via the eigenbasis of M."""
    w = np.linalg.eigvalsh(np.asarray(m, dtype=float))
    return float(np.sum(np.where(w > 0, lam2 * w, lam1 * w)))


# ---------------------------------------------------------------------------
# closed-form 2x2 eigenvalues


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_eig2_matches_lapack(seed):
    rng = np.random.default_rng(seed)
    m = random_sym(rng, 2, scale=10.0)
    lo, hi = _spectrum(m)
    ref = np.linalg.eigvalsh(m)
    assert float(lo) == pytest.approx(ref[0], abs=1e-10 * (1 + abs(ref[0])))
    assert float(hi) == pytest.approx(ref[1], abs=1e-10 * (1 + abs(ref[1])))


def test_eig2_vectorized_shapes():
    rng = np.random.default_rng(0)
    m = random_sym(rng, 2)[None] + rng.standard_normal((5, 10, 1, 1)) * np.eye(2)
    eigs = _spectrum(m)
    assert eigs.shape == (5, 10, 2)
    assert np.all(eigs[..., 0] <= eigs[..., 1] + 1e-15)


# ---------------------------------------------------------------------------
# stacked evaluation


@pytest.mark.parametrize("n", [1, 2, 3])
def test_op_eval_on_a_stack_matches_one_at_a_time(n):
    rng = np.random.default_rng(n)
    stack = np.stack([random_sym(rng, n) for _ in range(24)]).reshape(4, 6, n, n)
    ops = [trace_operator(), pucci_max(0.5, 2.5), pucci_min(0.5, 2.5),
           linear_operator(spectrum_in_band(rng, n, 0.5, 2.0)),
           max_of_linear([spectrum_in_band(rng, n, 0.5, 2.0) for _ in range(3)])]
    for op in ops:
        got = op_eval(op, stack)
        assert got.shape == (4, 6)
        want = [[loop_op_eval(op, m) for m in row] for row in stack]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert isinstance(op_eval(op, stack[1, 2]), float)
        assert op_eval(op, stack[1, 2]) == got[1, 2]


def test_op_eval_rejects_a_non_symmetric_matrix_in_a_stack():
    stack = np.stack([np.eye(2), [[1.0, 2.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="symmetric"):
        op_eval(pucci_max(1.0, 2.0), stack)


def test_op_eval_symmetry_tolerance_scales_with_the_largest_entry():
    """Each matrix is judged by 1e-12 (1 + its largest |entry|), over every
    off-diagonal pair: here the skew sits in the (0, 2) pair of a 3x3."""
    stack = np.stack([np.diag([1.0, 2.0, 3.0e6])] * 3)
    stack[1, 0, 2] += 1e-7  # within 1e-12 (1 + 3e6)
    assert op_eval(trace_operator(), stack).shape == (3,)
    stack[2, 2, 0] += 1e-5
    with pytest.raises(ValueError, match="not symmetric"):
        op_eval(trace_operator(), stack)


def test_op_eval_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="square"):
        op_eval(trace_operator(), np.zeros((4, 2, 3)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        op_eval(linear_operator(np.eye(2)), np.eye(3))


# ---------------------------------------------------------------------------
# Pucci envelopes


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_pucci_max_matches_eigen_oracle(seed, n):
    rng = np.random.default_rng(seed)
    m = random_sym(rng, n)
    got = op_eval(pucci_max(0.5, 2.5), m)
    want = pucci_oracle_max(m, 0.5, 2.5)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_pucci_max_on_a_3x3_diagonal():
    # lam2 (1 + 3) + lam1 (-2)
    assert op_eval(pucci_max(1.0, 2.0), np.diag([1.0, -2.0, 3.0])) == 6.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 3))
def test_pucci_min_is_reflected_max(seed, n):
    rng = np.random.default_rng(seed)
    m = random_sym(rng, n)
    lo = op_eval(pucci_min(0.5, 2.5), m)
    assert lo == pytest.approx(-op_eval(pucci_max(0.5, 2.5), -m), rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pucci_envelopes_bound_every_linear_operator(seed):
    """P-(M) <= tr(A M) <= P+(M) whenever spec(A) lies in the ellipticity band."""
    rng = np.random.default_rng(seed)
    lam1, lam2 = 0.5, 2.5
    m = random_sym(rng, 2)
    a = spectrum_in_band(rng, 2, lam1, lam2)
    val = float(np.trace(a @ m))
    slack = 1e-10 * (1 + abs(val))
    assert op_eval(pucci_min(lam1, lam2), m) - slack <= val
    assert val <= op_eval(pucci_max(lam1, lam2), m) + slack


def test_pucci_on_definite_matrices_is_scaled_trace():
    m = np.diag([1.0, 2.0])  # positive: the sup picks lam2 everywhere
    assert op_eval(pucci_max(0.5, 2.0), m) == pytest.approx(6.0)
    assert op_eval(pucci_min(0.5, 2.0), m) == pytest.approx(1.5)
    assert op_eval(pucci_max(0.5, 2.0), -m) == pytest.approx(-1.5)


def test_trace_and_linear_and_bellman_agree_on_samples():
    rng = np.random.default_rng(42)
    a1 = spectrum_in_band(rng, 2, 0.5, 2.0)
    a2 = spectrum_in_band(rng, 2, 0.5, 2.0)
    bell = max_of_linear([a1, a2])
    for _ in range(20):
        m = random_sym(rng, 2)
        assert op_eval(trace_operator(), m) == pytest.approx(np.trace(m))
        assert op_eval(linear_operator(a1), m) == pytest.approx(np.trace(a1 @ m))
        want = max(np.trace(a1 @ m), np.trace(a2 @ m))
        assert op_eval(bell, m) == pytest.approx(want)


# ---------------------------------------------------------------------------
# axiom checkers

BUILTINS = [
    trace_operator(),
    linear_operator([[2.0, 0.5], [0.5, 1.0]]),
    pucci_max(1.0, 2.0),
    pucci_min(1.0, 2.0),
    max_of_linear([np.diag([1.0, 2.0]), np.diag([2.0, 1.0])]),
]


@pytest.mark.parametrize("op", BUILTINS, ids=lambda o: o.kind)
def test_builtin_operators_are_uniformly_elliptic(op):
    rep = check_uniform_ellipticity(op, sample_count=400, seed=1)
    assert rep.passed, rep
    assert rep.worst_normalized <= 1e-10


@pytest.mark.parametrize("op", BUILTINS, ids=lambda o: o.kind)
def test_builtin_operators_are_one_homogeneous(op):
    rep = check_homogeneity(op, sample_count=400, seed=1)
    assert rep.passed, rep
    assert rep.worst_normalized <= 1e-10


def test_ellipticity_checker_catches_a_fraud():
    fraud = lambda m: float(np.trace(m)) ** 2
    rep = check_uniform_ellipticity(fraud, params=EllipticityParams(1.0, 1.0),
                                    sample_count=200, seed=0)
    assert not rep.passed


def test_homogeneity_checker_catches_an_offset():
    shifted = lambda m: float(np.trace(m)) + 1.0
    rep = check_homogeneity(shifted, sample_count=200, seed=0)
    assert not rep.passed


def test_bare_callable_needs_params():
    with pytest.raises(ValueError, match="params"):
        check_uniform_ellipticity(lambda m: 0.0, sample_count=10)


def test_linear_operator_requires_positive_definite():
    with pytest.raises(ValueError, match="positive definite"):
        linear_operator([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(ValueError, match="positive definite"):
        max_of_linear([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("op", BUILTINS, ids=lambda o: o.kind)
def test_batched_checks_match_the_per_sample_loop(op, seed):
    """Same seeded samples, same verdict, worst values equal up to roundoff."""
    count = 1000
    for batched, loop in ((check_uniform_ellipticity(op, sample_count=count, seed=seed),
                           loop_uniform_ellipticity(op, count, seed)),
                          (check_homogeneity(op, sample_count=count, seed=seed),
                           loop_homogeneity(op, count, seed))):
        assert batched.passed == loop[0]
        assert batched.worst_violation == pytest.approx(loop[1], abs=1e-12)
        assert batched.worst_normalized == pytest.approx(loop[2], abs=1e-12)
        assert (batched.samples, batched.seed) == (count, seed)


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("op", [pucci_max(1.0, 2.0), pucci_min(1.0, 2.0)],
                         ids=lambda o: o.kind)
def test_batched_checks_match_the_loop_in_other_dimensions(op, dim):
    for batched, loop in ((check_uniform_ellipticity(op, sample_count=500, seed=2, dim=dim),
                           loop_uniform_ellipticity(op, 500, 2, dim)),
                          (check_homogeneity(op, sample_count=500, seed=2, dim=dim),
                           loop_homogeneity(op, 500, 2, dim))):
        assert batched.passed and loop[0]
        assert batched.worst_violation == pytest.approx(loop[1], abs=1e-12)
        assert batched.worst_normalized == pytest.approx(loop[2], abs=1e-12)


def test_property_checks_evaluate_the_operator_on_whole_stacks(monkeypatch):
    calls = []
    original = operators.op_eval

    def counting(op, m):
        calls.append(np.shape(m))
        return original(op, m)

    monkeypatch.setattr(operators, "op_eval", counting)
    check_uniform_ellipticity(pucci_max(1.0, 2.0), sample_count=10_000, seed=0)
    check_homogeneity(pucci_max(1.0, 2.0), sample_count=10_000, seed=0)
    assert len(calls) == 4
    assert all(shape == (10_000, 2, 2) for shape in calls)


def test_reports_are_reproducible():
    a = check_uniform_ellipticity(pucci_max(1.0, 3.0), sample_count=300, seed=9)
    b = check_uniform_ellipticity(pucci_max(1.0, 3.0), sample_count=300, seed=9)
    assert a.worst_violation == b.worst_violation
    assert a.worst_normalized == b.worst_normalized


# ---------------------------------------------------------------------------
# spec strings


@pytest.mark.parametrize("spec", ["trace", "pucci+:1.0,2.0", "pucci-:0.5,3.0",
                                  "linear:2.0,0.5,1.0", "linear:1.5"])
def test_parse_round_trips(spec):
    op = parse_operator(spec)
    again = parse_operator(operator_spec_string(op))
    assert again.kind == op.kind
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = random_sym(rng, op.mats[0].shape[0] if op.kind == "linear" else 2)
        assert op_eval(again, m) == op_eval(op, m)


@pytest.mark.parametrize("bad", ["", "puccimax:1,2", "pucci+:2,1", "pucci+:1",
                                 "pucci+:a,b", "trace:1", "linear:1,2"])
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        parse_operator(bad)


def test_ellipticity_params_validated():
    with pytest.raises(ValueError):
        EllipticityParams(0.0, 1.0)
    with pytest.raises(ValueError):
        EllipticityParams(2.0, 1.0)
