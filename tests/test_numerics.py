import math

import numpy as np
import pytest

import cdwtunnel
import cdwtunnel._backend
from cdwtunnel.numerics import (
    QuadratureError,
    erf,
    finite_diff_gradient,
    integrate_adaptive,
    least_squares_fit,
)

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
    assert erf(0.0) == 0.0


def test_erf_saturates():
    assert abs(erf(10.0) - 1.0) <= 1e-15


def test_erf_reference_values():
    for x, want in ERF_TABLE.items():
        assert erf(x) == pytest.approx(want, abs=1e-14)


def test_erf_odd_symmetry():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-6.0, 6.0, size=200):
        assert erf(-x) == -erf(x)


def test_erf_matches_mpmath_on_a_grid():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        worst = max(abs(mpmath.mpf(erf(x)) - mpmath.erf(mpmath.mpf(x))) for x in np.linspace(-6.0, 6.0, 4001))
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
        ys = [erf(x) for x in xs]
        assert all(-1.0 <= y <= 1.0 for y in ys)
        assert all(erf(-x) == -y for x, y in zip(xs, ys))
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    run()


def test_erf_against_quadrature():
    pref = 2.0 / math.sqrt(math.pi)
    for x in np.linspace(0.1, 6.0, 30):
        quad = integrate_adaptive(lambda t: math.exp(-t * t), 0.0, float(x), 1e-14)
        assert abs(erf(x) - pref * quad) <= 1e-12


def test_quadrature_linear_exact():
    assert integrate_adaptive(lambda x: x, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-15)


def test_quadrature_gaussian_matches_erf_closed_form():
    val = integrate_adaptive(lambda x: math.exp(-2.0 * x * x), 0.0, 3.0, 1e-12)
    assert val == pytest.approx(GAUSS_0_3, abs=1e-12)


def test_quadrature_sine():
    assert integrate_adaptive(math.sin, 0.0, math.pi, 1e-11) == pytest.approx(2.0, abs=1e-11)


def test_quadrature_empty_interval():
    assert integrate_adaptive(math.exp, 2.0, 2.0, 1e-10) == 0.0


def test_quadrature_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_adaptive(math.sin, 0.0, 1.0, 0.0)


def test_quadrature_reports_depth_exhaustion():
    # perfbench records cdwtunnel.BACKEND and wraps the quadrature through _backend.kernels
    assert cdwtunnel.BACKEND == "pure"
    assert cdwtunnel._backend.kernels is cdwtunnel.numerics
    assert cdwtunnel.QuadratureError is cdwtunnel._backend.kernels.QuadratureError
    # the message names the first failing interval
    with pytest.raises(QuadratureError, match=r"on \[0, 0\.046875\] "):
        integrate_adaptive(lambda x: math.sin(1e6 * x), 0.0, 3.0, 1e-14, max_depth=6)
    with pytest.raises(QuadratureError, match=r"on \[0, 3\] "):
        integrate_adaptive(lambda x: np.sin(1e6 * x), 0.0, 3.0, 1e-14, max_depth=0)


def test_quadrature_bounds_the_active_interval_count():
    # far more oscillation than 48 bisections could resolve: the engine
    # stops on its interval budget instead of doubling memory every round
    with pytest.raises(QuadratureError, match="active interval limit"):
        integrate_adaptive(lambda x: np.sin(1e12 * x), 0.0, 3.0, 1e-14)


def test_quadrature_array_and_scalar_integrands_agree():
    for a, b in [(0.0, 0.5), (0.0, 3.0), (-2.0, 6.0)]:
        vec = integrate_adaptive(lambda t: np.exp(-t * t) * np.cos(3.0 * t), a, b, 1e-13)
        sca = integrate_adaptive(lambda t: math.exp(-t * t) * math.cos(3.0 * t), a, b, 1e-13)
        assert vec == pytest.approx(sca, rel=1e-15, abs=0.0)


def test_quadrature_branching_scalar_callback():
    # `if` on an array raises ValueError, so the engine calls it per node
    def ramp(x):
        if x < 0.3:
            return x
        return 0.3

    assert integrate_adaptive(ramp, 0.0, 1.0, 1e-12) == pytest.approx(0.255, abs=1e-12)


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
        (math.sin, 0.0, math.pi, 2.0),
        (lambda x: x**3, 0.0, 1.0, 0.25),
        (math.exp, 0.0, 1.0, math.e - 1.0),
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


def _exp_model(x, p):
    return p[0] * np.exp(-p[1] * x)


def test_fit_recovers_exact_data():
    truth = np.array([2.5, 0.7])
    xs = np.linspace(0.0, 4.0, 25)
    data = [(x, _exp_model(x, truth)) for x in xs]
    fit = least_squares_fit(_exp_model, truth * np.array([1.15, 0.85]), data)
    assert fit.converged
    assert fit.stop == "converged"
    np.testing.assert_allclose(fit.params, truth, rtol=1e-6)


def test_fit_constant_model():
    data = [(x, 3.25) for x in range(5)]
    fit = least_squares_fit(lambda x, p: np.full(x.size, p[0]), np.array([0.0]), data)
    assert fit.converged
    assert fit.params[0] == pytest.approx(3.25, abs=1e-12)
    assert fit.residual_rms <= 1e-12


def test_fit_already_at_optimum():
    truth = np.array([1.2, 0.4])
    data = [(x, _exp_model(x, truth)) for x in np.linspace(0, 3, 12)]
    fit = least_squares_fit(_exp_model, truth.copy(), data)
    assert fit.converged
    assert fit.iterations <= 2
    assert fit.residual_rms < 1e-12


def test_fit_reports_nonconvergence_without_raising():
    truth = np.array([2.0, 1.0])
    data = [(x, _exp_model(x, truth)) for x in np.linspace(0, 3, 12)]
    fit = least_squares_fit(_exp_model, np.array([40.0, 9.0]), data, max_iter=2)
    assert not fit.converged
    assert fit.stop == "max_iter"
    assert np.all(np.isfinite(fit.params))


def test_fit_reports_damping_collapse():
    # the model is finite only at the start, so every trial step is rejected
    def model(x, p):
        return x * p[0] if p[0] == 1.0 else np.full(x.size, np.inf)

    data = [(x, 2.0 * x) for x in np.linspace(0.0, 1.0, 9)]
    fit = least_squares_fit(model, np.array([1.0]), data, jacobian=lambda x, p: x[:, None])
    assert not fit.converged
    assert fit.stop == "damping_collapse"
    assert fit.iterations < 200
    assert fit.params[0] == 1.0


def test_fit_rejects_wrong_shapes():
    data = [(x, 2.0 * x) for x in np.linspace(0.0, 1.0, 9)]
    with pytest.raises(ValueError, match="model returned shape"):
        least_squares_fit(lambda x, p: p[0] * x[:-1], np.array([1.0]), data)
    with pytest.raises(ValueError, match="model returned shape"):
        least_squares_fit(lambda x, p: p[0] * x[:, None], np.array([1.0]), data)
    with pytest.raises(ValueError, match="jacobian returned shape"):
        least_squares_fit(lambda x, p: p[0] * x, np.array([1.0]), data, jacobian=lambda x, p: x)
    with pytest.raises(ValueError, match="jacobian returned shape"):
        least_squares_fit(
            lambda x, p: p[0] * x, np.array([1.0]), data, jacobian=lambda x, p: np.ones((x.size, 2))
        )


def test_fit_survives_degenerate_jacobian():
    # second parameter never enters the model: one normal-equation column is zero
    data = [(x, 2.0 * x) for x in np.linspace(0.0, 1.0, 9)]
    fit = least_squares_fit(lambda x, p: p[0] * x, np.array([1.0, 5.0])[:1], data)
    assert fit.converged
    fit2 = least_squares_fit(lambda x, p: p[0] * x + 0.0 * p[1], np.array([1.0, 5.0]), data)
    assert fit2.params[0] == pytest.approx(2.0, rel=1e-8)


def test_fit_is_deterministic():
    truth = np.array([1.7, 0.9])
    data = [(x, _exp_model(x, truth)) for x in np.linspace(0, 3, 15)]
    a = least_squares_fit(_exp_model, np.array([1.0, 1.3]), data)
    b = least_squares_fit(_exp_model, np.array([1.0, 1.3]), data)
    assert np.array_equal(a.params, b.params)
    assert a.residual_rms == b.residual_rms
    assert a.iterations == b.iterations


def test_fit_analytic_jacobian_matches_numeric_gradient():
    def jac(x, p):
        return np.stack([np.exp(-p[1] * x), -p[0] * x * np.exp(-p[1] * x)], axis=-1)

    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(0.5, 2.0, size=2)
        x = float(rng.uniform(0.0, 3.0))
        num = finite_diff_gradient(lambda q: _exp_model(x, q), p, h=1e-6)
        np.testing.assert_allclose(jac(x, p), num, rtol=1e-6)

    truth = np.array([2.0, 0.5])
    data = [(x, _exp_model(x, truth)) for x in np.linspace(0, 4, 20)]
    fit = least_squares_fit(_exp_model, np.array([1.6, 0.65]), data, jacobian=jac)
    assert fit.converged
    np.testing.assert_allclose(fit.params, truth, rtol=1e-8)


def test_fit_rejects_empty_inputs():
    with pytest.raises(ValueError):
        least_squares_fit(_exp_model, np.array([1.0, 1.0]), [])
    with pytest.raises(ValueError):
        least_squares_fit(_exp_model, np.array([]), [(0.0, 1.0)])


def test_fit_round_trips_both_current_laws():
    """Noiseless synthetic data from either current law is recovered to 1e-6
    relative from 20%-perturbed starts (grids kept strictly above threshold)."""
    from cdwtunnel.transport import TransportParams, current_sge, current_zener

    es = np.linspace(1.5, 5.0, 40)

    def sge_model(e, p):
        if p[0] <= 0 or p[1] <= 0:
            return np.full(e.size, math.inf)
        tp = TransportParams(c_tilde1=p[0], c_v=p[1])
        return np.array([current_sge(x, tp) for x in e])

    truth = np.array([1.4, 0.9])
    data = list(zip(es, sge_model(es, truth)))
    fit = least_squares_fit(sge_model, truth * np.array([1.2, 0.8]), data)
    assert fit.converged
    np.testing.assert_allclose(fit.params, truth, rtol=1e-6)

    def zener_model(e, p):
        if p[0] <= 0 or p[1] <= 0:
            return np.full(e.size, math.inf)
        tp = TransportParams(g_p=p[0], e_t=p[1])
        return np.array([current_zener(x, tp) for x in e])

    truth = np.array([2.0, 1.0])
    data = list(zip(es, zener_model(es, truth)))
    fit = least_squares_fit(zener_model, truth * np.array([0.8, 1.2]), data)
    assert fit.converged
    np.testing.assert_allclose(fit.params, truth, rtol=1e-6)
