import numpy as np
import pytest

from ellipticlab import (
    GridFunction,
    build_fixture,
    disc_problem,
    fixture_callable,
    limit_families,
    square_grid,
)
from ellipticlab.fixtures import FUNCTION_FIXTURES

from conftest import traced_peak


def test_fixture_roster():
    assert "harmonic" in FUNCTION_FIXTURES and "kink" in FUNCTION_FIXTURES


def test_harmonic_is_discretely_harmonic():
    from ellipticlab import eval_discrete, trace_operator

    u = build_fixture("harmonic", 65)
    e = eval_discrete(trace_operator(), u).values
    assert np.nanmax(np.abs(e)) <= 1e-11


def test_harmonic_is_two_dimensional_only():
    with pytest.raises(ValueError):
        fixture_callable("harmonic", ndim=1)


def test_radial_holder_gamma_validated():
    with pytest.raises(ValueError):
        build_fixture("radial-holder:1.5", 33)
    with pytest.raises(ValueError):
        build_fixture("radial-holder:0", 33)


def test_radial_holder_scaling():
    u = build_fixture("radial-holder:0.5", 65)
    pts = u.grid.points()
    r = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    np.testing.assert_allclose(u.values, r ** 1.5, atol=1e-12)


def test_kink_in_both_dimensions():
    for ndim in (1, 2):
        u = build_fixture("kink", 33, ndim=ndim)
        assert u.values.min() == 0.0
        assert u.values.max() == pytest.approx(1.0)


@pytest.mark.parametrize("ndim, res", [(1, 33), (2, 65), (3, 9)])
def test_slab_sampling_is_the_cloud_evaluation(ndim, res):
    grid = square_grid(res, ndim=ndim)
    for name in ("quad", "kink", "radial-holder:0.5") + (("harmonic",) if ndim == 2 else ()):
        fn = fixture_callable(name, ndim)
        got = GridFunction.from_callable(grid, fn).values
        assert got.tobytes() == np.asarray(fn(grid.points()), dtype=float).tobytes()


def test_sampling_a_fixture_builds_no_point_cloud():
    """1025^2 samples go slab by slab into the output; the (N, 2) cloud, its
    per-term temporaries and a copy held about four outputs."""
    u, peak = traced_peak(lambda: build_fixture("harmonic", 1025))
    assert peak <= 1.5 * u.values.nbytes


def test_disc_is_not_a_function_fixture():
    with pytest.raises(ValueError, match="disc_problem"):
        fixture_callable("disc")


def test_unknown_fixture_rejected():
    with pytest.raises(ValueError):
        build_fixture("perpetual-motion", 33)


def test_square_grid_shape():
    g = square_grid(17, half_width=2.0)
    assert g.shape == (17, 17)
    assert g.domain.lower == (-2.0, -2.0)


def test_disc_problem_geometry():
    prob = disc_problem(33)
    assert prob.psi.grid.domain.upper == (0.75, 0.75)
    # obstacle pokes above the zero boundary data inside the disc
    assert prob.psi.values.max() == pytest.approx(0.25)
    assert prob.psi.values.min() < 0


def test_limit_families_contract():
    fams = limit_families(33)
    assert set(fams) == {"constant", "ripple", "solver-tail"}
    gen, u_inf, lam_inf = fams["ripple"]
    u2, lam2 = gen(2)
    assert lam2 == pytest.approx(1.0)  # 2/k at k = 2
    # amplitude k^-3 keeps the ripple below its declared bound
    assert np.max(np.abs(u2.values - u_inf.values)) <= 1.0 / 8 + 1e-12
    _, lam_tail = fams["solver-tail"][0](4)
    assert lam_tail == pytest.approx(1.25)
    assert fams["solver-tail"][2] == 1.0
