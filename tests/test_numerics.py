import math

import numpy as np
import pytest

from cdwtunnel.numerics import QuadratureError, integrate_adaptive, integrate_family
from oracles import finite_diff_gradient

# mpmath, 40 digits
ERF_TABLE = {
    0.5: 0.5204998778130465,
    1.0: 0.8427007929497149,
    2.0: 0.9953222650189527,
    3.0: 0.9999779095030014,
    3.5: 0.9999992569016276,
    5.0: 0.9999999999984625,
}
# (1/2) sqrt(pi/2) erf(3 sqrt 2), mpmath
GAUSS_0_3 = 0.6266570674212459


def test_erf_at_origin():
    assert math.erf(0.0) == 0.0


def test_erf_saturates():
    assert abs(math.erf(10.0) - 1.0) <= 1e-15


def test_erf_reference_values():
    for x, want in ERF_TABLE.items():
        assert math.erf(x) == pytest.approx(want, abs=1e-14)


def test_erf_odd_symmetry():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-6.0, 6.0, size=200):
        assert math.erf(-x) == -math.erf(x)


def test_erf_matches_mpmath_on_a_grid():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpf(math.erf(x)) - mpmath.erf(mpmath.mpf(x))) for x in np.linspace(-6.0, 6.0, 4001))
    assert worst <= 2e-16


def test_erf_is_odd_monotone_and_bounded(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=20))
    def run(xs):
        xs = sorted(xs)
        ys = [math.erf(x) for x in xs]
        assert all(-1.0 <= y <= 1.0 for y in ys)
        assert all(math.erf(-x) == -y for x, y in zip(xs, ys))
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    run()


def test_erf_against_quadrature():
    pref = 2.0 / math.sqrt(math.pi)
    for x in np.linspace(0.1, 6.0, 30):
        quad = integrate_adaptive(lambda t: np.exp(-t * t), 0.0, float(x), 1e-14)
        assert abs(math.erf(x) - pref * quad) <= 1e-12


def test_quadrature_linear_exact():
    assert integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-15)


def test_quadrature_gaussian_matches_erf_closed_form():
    val = integrate_adaptive(lambda x: np.exp(-2.0 * x * x), 0.0, 3.0, 1e-12)
    assert val == pytest.approx(GAUSS_0_3, abs=1e-12)


def test_quadrature_sine():
    assert integrate_adaptive(np.sin, 0.0, math.pi, 1e-11) == pytest.approx(2.0, abs=1e-11)


def test_quadrature_empty_interval():
    assert integrate_adaptive(np.exp, 2.0, 2.0, 1e-10) == 0.0


def test_quadrature_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 0.0, 1.0, 0.0)


def test_quadrature_reports_depth_exhaustion():
    # the message names the first failing interval
    with pytest.raises(QuadratureError, match=r"on \[0, 0\.046875\] "):
        integrate_adaptive(lambda x: np.sin(1e6 * x), 0.0, 3.0, 1e-14, max_depth=6)
    with pytest.raises(QuadratureError, match=r"on \[0, 3\] "):
        integrate_adaptive(lambda x: np.sin(1e6 * x), 0.0, 3.0, 1e-14, max_depth=0)


def test_quadrature_bounds_the_active_interval_count():
    # far more oscillation than 48 bisections could resolve: the engine
    # stops on its interval budget instead of doubling memory every round
    with pytest.raises(QuadratureError, match="active interval limit"):
        integrate_adaptive(lambda x: np.sin(1e12 * x), 0.0, 3.0, 1e-14)


def test_quadrature_rejects_integrands_of_another_shape():
    # the integrand maps the node array (21 nodes on one interval) to an array of its shape
    with pytest.raises(ValueError, match=r"integrand returned shape \(\); expected \(21,\)"):
        integrate_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-10)
    with pytest.raises(ValueError, match=r"integrand returned shape \(20,\); expected \(21,\)"):
        integrate_adaptive(lambda x: x[1:], 0.0, 1.0, 1e-10)


def test_quadrature_finds_narrow_peak_near_an_end():
    # Gaussian of width 1e-2, eight widths inside the lower end of [0, 10]:
    # the five starting Simpson nodes 0, 2.5, 5, 7.5, 10 see at most 1e-14 of
    # it, while the Kronrod nodes cluster toward the ends (the first sits
    # 0.022 from a).  The matrix-element oracle's peak sits at its lower
    # limit in the same way.  A peak this narrow between interior nodes can
    # still be missed by either rule.
    w, c = 1e-2, 0.08
    peak = lambda x: np.exp(-0.5 * ((x - c) / w) ** 2)
    assert max(peak(x) for x in (0.0, 2.5, 5.0, 7.5, 10.0)) < 1e-13
    want = w * math.sqrt(math.pi / 2.0) * (1.0 + math.erf(c / (w * math.sqrt(2.0))))
    assert abs(integrate_adaptive(peak, 0.0, 10.0, 1e-12) - want) <= 1e-12


def test_quadrature_matches_scipy_quad():
    integrate = pytest.importorskip("scipy.integrate")
    cases = [
        (lambda t: np.exp(-t * t), 0.0, 6.0, 1e-12),
        (lambda t: np.cos(17.0 * t), -0.5, 0.5, 1e-12),
        (lambda t: 1.0 / (1.0 + 25.0 * t * t), -1.0, 1.0, 1e-12),
        # the endpoint singularity of sqrt exhausts the halving tolerance
        # share within 48 bisections at 1e-12, so it runs at 1e-10
        (lambda t: np.sqrt(t), 0.0, 2.0, 1e-10),
    ]
    for f, a, b, tol in cases:
        want, err = integrate.quad(f, a, b, epsabs=1e-13, epsrel=0.0, limit=200)
        assert abs(integrate_adaptive(f, a, b, tol) - want) <= tol + err


def test_quadrature_tol_ladder_monotone():
    """Halving the tolerance never worsens the error (machine-noise slack)."""
    cases = [
        (np.sin, 0.0, math.pi, 2.0),
        (lambda x: x**3, 0.0, 1.0, 0.25),
        (np.exp, 0.0, 1.0, math.e - 1.0),
    ]
    for f, a, b, truth in cases:
        prev = None
        tol = 1e-3
        while tol >= 1e-12:
            err = abs(integrate_adaptive(f, a, b, tol) - truth)
            assert err <= tol
            if prev is not None:
                assert err <= prev + 2e-16 * max(1.0, abs(truth))
            prev = err
            tol /= 2.0


def test_quadrature_names_the_first_non_finite_node_without_a_warning():
    # the round that first sees a non-finite value stops: no bisection to the depth limit
    calls = []

    def f(x):
        calls.append(x.size)
        return np.where(x < 0.25, x, np.nan)

    with pytest.raises(QuadratureError, match=r"^integrand returned nan at x = 0\.25\d*$"):
        integrate_adaptive(f, 0.0, 0.5, 1e-12)
    assert calls == [21]


def _family_cases(kinds, ks, los, widths):
    """Integrand of a family mixing cos(k x) and Gaussians exp(-k x^2), with its bounds."""
    kinds, ks = np.array(kinds), np.array(ks)
    los, his = np.array(los), np.array(los) + np.array(widths)

    def f(x, i):
        k = ks[i]
        return np.where(kinds[i], np.cos(k * x), np.exp(-k * x * x))

    return f, los, his


def test_family_members_equal_their_one_member_calls_bit_for_bit(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    member = st.tuples(
        st.booleans(),
        st.floats(0.0, 60.0),
        st.floats(-5.0, 5.0),
        st.sampled_from([0.0, 1e-9, 0.3, 2.0, 7.5]) | st.floats(0.0, 10.0),
    )

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.lists(member, min_size=1, max_size=12), st.sampled_from([1e-8, 1e-11, 1e-13]))
    def run(members, tol):
        f, los, his = _family_cases(*zip(*members))
        got = integrate_family(f, los, his, tol)
        assert got.shape == (len(members),)
        for i, (a, b) in enumerate(zip(los.tolist(), his.tolist())):
            alone = integrate_adaptive(lambda x: f(x, np.full(x.shape, i)), a, b, tol)
            assert got[i] == alone, (i, got[i], alone)
            if a == b:
                assert got[i] == 0.0

    run()


def test_family_names_the_lowest_failing_member_with_its_own_message():
    # members 1 and 3 oscillate too fast for 6 bisections; the lower index is named
    ks = np.array([1.0, 1e6, 2.0, 3e6, 1.0])
    los, his = np.zeros(ks.size), np.full(ks.size, 3.0)
    with pytest.raises(QuadratureError) as alone:
        integrate_adaptive(lambda x: np.sin(1e6 * x), 0.0, 3.0, 1e-14, max_depth=6)
    with pytest.raises(QuadratureError) as family:
        integrate_family(lambda x, i: np.sin(ks[i] * x), los, his, 1e-14, max_depth=6)
    assert str(family.value) == f"member 1: {alone.value}"
    assert (family.value.member, alone.value.member) == (1, None)
    # member 2 fails in round 0 on a non-finite value, member 1 only at depth 6: member 1 is still named
    with pytest.raises(QuadratureError) as family:
        integrate_family(lambda x, i: np.where(i == 2, np.inf, np.sin(ks[i] * x)), los, his, 1e-14, max_depth=6)
    assert str(family.value) == f"member 1: {alone.value}"
    with pytest.raises(QuadratureError, match=r"^member 0: integrand returned inf at x = "):
        integrate_family(lambda x, i: np.where(i == 0, np.inf, 1.0), los[:2], his[:2], 1e-14)
    # the active-interval limit counts each member's intervals, not the family's
    with pytest.raises(QuadratureError) as alone:
        integrate_adaptive(lambda x: np.sin(1e12 * x), 0.0, 3.0, 1e-14)
    with pytest.raises(QuadratureError) as family:
        integrate_family(lambda x, i: np.sin(1e12 * x), los[:2], his[:2], 1e-14)
    assert "active interval limit" in str(alone.value)
    assert str(family.value) == f"member 0: {alone.value}"


def test_family_rejects_bad_arguments():
    with pytest.raises(ValueError, match="a <= b"):
        integrate_family(lambda x, i: x, [0.0, 1.0], [1.0, 0.0], 1e-10)
    with pytest.raises(ValueError, match="tolerance must be positive"):
        integrate_family(lambda x, i: x, [0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="one-dimensional"):
        integrate_family(lambda x, i: x, [[0.0]], [[1.0]], 1e-10)
    with pytest.raises(ValueError, match=r"integrand returned shape \(21,\); expected \(42,\)"):
        integrate_family(lambda x, i: x[:21], [0.0, 0.0], [1.0, 1.0], 1e-10)
    assert integrate_family(lambda x, i: x, [], [], 1e-10).shape == (0,)


def test_cosine_family_matches_scipy_quad_vec_and_the_closed_form():
    integrate = pytest.importorskip("scipy.integrate")
    ks = np.linspace(0.01, 20.0, 200)
    got = integrate_family(lambda x, i: np.cos(ks[i] * x), np.full(ks.size, -1.0), 1.0, 1e-12)
    want, err = integrate.quad_vec(lambda x: np.cos(ks * x), -1.0, 1.0, epsabs=1e-13, epsrel=0.0, norm="max")
    closed = 2.0 * np.sin(ks) / ks
    assert np.max(np.abs(got - want)) <= 1e-12 + err
    assert np.max(np.abs(got - closed)) <= 1e-12


def test_gradient_quadratic():
    grad = finite_diff_gradient(lambda v: v[0] ** 2, np.array([3.0]), h=1e-5)
    assert grad[0] == pytest.approx(6.0, abs=1e-8)


def test_gradient_constant_is_zero():
    grad = finite_diff_gradient(lambda v: 4.2, np.array([1.0, -2.0, 0.3]))
    assert np.all(grad == 0.0)


def test_gradient_exponential():
    grad = finite_diff_gradient(lambda v: math.exp(v[0]), np.array([0.0]), h=1e-6)
    assert grad[0] == pytest.approx(1.0, abs=1e-9)


def test_gradient_multivariate():
    f = lambda v: v[0] ** 2 * v[1] + v[1] ** 3
    grad = finite_diff_gradient(f, np.array([2.0, 1.5]), h=1e-6)
    assert grad[0] == pytest.approx(2.0 * 2.0 * 1.5, rel=1e-8)
    assert grad[1] == pytest.approx(2.0**2 + 3.0 * 1.5**2, rel=1e-8)


def test_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda v: v[0], np.array([1.0]), h=0.0)
