import numpy as np
import pytest

from cdwtunnel.fitting import (
    FIG2B_REFERENCE_RMS_REL,
    FIG2B_WINDOW,
    FREE_PARAM_ORDER,
    compare_series,
    fit_sge_to_points,
    fit_sge_to_zener,
    sge_model_jacobian,
    transport_with,
)
from cdwtunnel.numerics import least_squares_fit
from cdwtunnel.transport import (
    CurveSeries,
    TransportParams,
    current_sge,
    current_sge_array,
    current_zener,
    current_zener_array,
    curve_series,
    sge_jacobian_array,
)
from oracles import finite_diff_gradient


def _sge_series(tp, es):
    return curve_series("sge", tp, es)


def test_compare_identical_series():
    tp = TransportParams()
    es = np.linspace(1.2, 5.0, 30)
    a = _sge_series(tp, es)
    assert compare_series(a, a, (1.2, 5.0)) == 0.0


def test_compare_uniform_offset():
    es = np.linspace(1.0, 3.0, 20)
    base = np.linspace(0.5, 2.0, 20)
    a = CurveSeries(es, 1.1 * base)
    b = CurveSeries(es, base)
    assert compare_series(a, b, (1.0, 3.0)) == pytest.approx(0.1, abs=1e-12)


def test_compare_is_b_normalized_not_symmetric():
    es = np.linspace(1.0, 3.0, 10)
    a = CurveSeries(es, np.full(10, 2.0))
    b = CurveSeries(es, np.full(10, 1.0))
    ab = compare_series(a, b, (1.0, 3.0))
    ba = compare_series(b, a, (1.0, 3.0))
    assert ab == pytest.approx(1.0)
    assert ba == pytest.approx(0.5)


def test_compare_is_the_b_normalized_relative_rms():
    rng = np.random.default_rng(23)
    es = np.linspace(1.0, 4.0, 31)
    a = CurveSeries(es, rng.uniform(0.1, 3.0, es.size))
    b = CurveSeries(es, rng.uniform(0.1, 3.0, es.size))
    inside = (es >= 1.5) & (es <= 3.5)
    ya, yb = a.currents[inside], b.currents[inside]
    assert compare_series(a, b, (1.5, 3.5)) == float(np.sqrt(np.mean(((ya - yb) / yb) ** 2)))


def test_compare_rejects_grid_mismatch():
    a = CurveSeries(np.linspace(1, 3, 10), np.ones(10))
    b = CurveSeries(np.linspace(1.01, 3.01, 10), np.ones(10))
    with pytest.raises(ValueError):
        compare_series(a, b, (1.0, 3.0))


def test_compare_rejects_zero_denominator():
    es = np.linspace(0.5, 1.5, 5)
    a = CurveSeries(es, np.ones(5))
    b = CurveSeries(es, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        compare_series(a, b, (0.5, 1.5))


def test_compare_rejects_empty_window():
    es = np.linspace(1.0, 2.0, 5)
    a = CurveSeries(es, np.ones(5))
    with pytest.raises(ValueError):
        compare_series(a, a, (5.0, 6.0))
    with pytest.raises(ValueError):
        compare_series(a, a, (3.0, 2.0))


def test_sge_jacobian_matches_finite_differences():
    rng = np.random.default_rng(19)
    for _ in range(20):
        ct1 = float(rng.uniform(0.2, 4.0))
        cv = float(rng.uniform(0.5, 2.0))
        e = float(rng.uniform(1.2, 6.0))
        got = np.array(sge_model_jacobian(e, ct1, cv, 1.0))

        def f(p):
            tp = TransportParams(c_tilde1=float(p[0]), c_v=float(p[1]))
            return current_sge(e, tp)

        num = finite_diff_gradient(f, np.array([ct1, cv]), h=1e-6)
        np.testing.assert_allclose(got, num, rtol=1e-6)


def test_self_fit_round_trip():
    truth = TransportParams(c_tilde1=1.8, c_v=1.3)
    es = np.linspace(1.2, 5.0, 40)
    targets = [current_sge(float(e), truth) for e in es]
    start = transport_with(truth, ("c_tilde1", "c_v"), (1.8 * 1.2, 1.3 * 0.8))
    fit = fit_sge_to_points(es, targets, {"c_tilde1", "c_v"}, start)
    assert fit.converged
    assert abs(fit.params[0] - truth.c_tilde1) / truth.c_tilde1 <= 1e-6
    assert abs(fit.params[1] - truth.c_v) / truth.c_v <= 1e-6


def test_empty_free_set_echoes_start():
    tp = TransportParams()
    es = np.linspace(1.2, 5.0, 25)
    fit = fit_sge_to_zener(tp, es, free=frozenset())
    assert fit.converged
    assert fit.iterations == 0
    assert fit.params.size == 0
    assert fit.residual_rms > 0.0  # the un-fitted comparison is not exact


def test_zener_target_fit_is_deterministic():
    tp = TransportParams()
    lo, hi = FIG2B_WINDOW
    es = np.linspace(lo, hi, 100)
    first = fit_sge_to_zener(tp, es, free={"c_tilde1", "c_v"}, start=tp)
    second = fit_sge_to_zener(tp, es, free={"c_tilde1", "c_v"}, start=tp)
    assert first.converged and second.converged
    assert np.array_equal(first.params, second.params)
    assert first.residual_rms == second.residual_rms


def test_zener_target_fit_reproduces_recorded_rms():
    tp = TransportParams()
    lo, hi = FIG2B_WINDOW
    es = np.linspace(lo, hi, 100)
    fit = fit_sge_to_zener(tp, es, free={"c_tilde1", "c_v"}, start=tp)
    fitted = transport_with(tp, ("c_tilde1", "c_v"), fit.params)
    rms_rel = compare_series(curve_series("sge", fitted, es), curve_series("zener", tp, es), (lo, hi))
    assert abs(rms_rel - FIG2B_REFERENCE_RMS_REL) <= 0.01 * FIG2B_REFERENCE_RMS_REL


def test_fit_rejects_grid_at_or_below_threshold():
    tp = TransportParams(e_t=1.0)
    with pytest.raises(ValueError):
        fit_sge_to_zener(tp, np.linspace(0.5, 5.0, 20))
    with pytest.raises(ValueError):
        fit_sge_to_zener(tp, np.linspace(1.0, 5.0, 20))  # includes E_T itself


def test_fit_rejects_unknown_free_names():
    tp = TransportParams()
    with pytest.raises(ValueError):
        fit_sge_to_points(np.array([2.0, 3.0]), np.array([1.0, 2.0]), {"g_p"}, tp)


def test_residual_invariant_under_joint_rescale():
    # multiplying the target amplitude and the start amplitude by the same
    # factor leaves the optimal relative residual unchanged
    scale = 3.7
    lo, hi = 1.2, 5.0
    es = np.linspace(lo, hi, 60)
    tp = TransportParams(g_p=1.0)
    tp_scaled = TransportParams(g_p=scale)

    fit_a = fit_sge_to_zener(tp, es, free={"c_tilde1", "c_v"}, start=tp)
    start_scaled = transport_with(tp_scaled, ("c_tilde1", "c_v"), (scale, 1.0))
    fit_b = fit_sge_to_zener(tp_scaled, es, free={"c_tilde1", "c_v"}, start=start_scaled)

    def rel_rms(fit, target_tp):
        fitted = transport_with(target_tp, ("c_tilde1", "c_v"), fit.params)
        return compare_series(
            curve_series("sge", fitted, es), curve_series("zener", target_tp, es), (lo, hi)
        )

    assert rel_rms(fit_a, tp) == pytest.approx(rel_rms(fit_b, tp_scaled), rel=1e-8)


def test_fit_invariant_under_joint_rescale_of_targets_and_amplitude(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    es = np.linspace(1.2, 5.0, 40)
    factor = st.floats(0.8, 1.2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.booleans(), st.floats(-3.0, 3.0), st.floats(0.2, 5.0), st.floats(0.5, 2.0), factor, factor
    )
    def run(zener, log_s, c_tilde1, c_v, f1, f2):
        s = 10.0**log_s
        start = TransportParams(c_tilde1=c_tilde1 * f1, c_v=c_v * f2)
        start_s = TransportParams(c_tilde1=c_tilde1 * f1 * s, c_v=c_v * f2)
        if zener:
            fit = fit_sge_to_zener(TransportParams(), es, start=start)
            fit_s = fit_sge_to_zener(TransportParams(g_p=s), es, start=start_s)
        else:
            targets = curve_series("sge", TransportParams(c_tilde1=c_tilde1, c_v=c_v), es).currents
            fit = fit_sge_to_points(es, targets, FREE_PARAM_ORDER, start)
            fit_s = fit_sge_to_points(es, s * targets, FREE_PARAM_ORDER, start_s)
        if fit.converged and fit_s.converged:
            assert fit_s.params[0] / s == pytest.approx(fit.params[0], rel=1e-6)
            assert fit_s.params[1] == pytest.approx(fit.params[1], rel=1e-6)
            assert abs(fit_s.residual_rms / s - fit.residual_rms) <= 1e-9

    run()


def test_round_trip_many_random_draws():
    rng = np.random.default_rng(47)
    es = np.linspace(1.2, 5.0, 40)
    for _ in range(10):
        truth = TransportParams(
            c_tilde1=float(rng.uniform(0.2, 5.0)), c_v=float(rng.uniform(0.5, 2.0))
        )
        targets = [current_sge(float(e), truth) for e in es]
        start = transport_with(
            truth,
            ("c_tilde1", "c_v"),
            (truth.c_tilde1 * float(rng.uniform(0.8, 1.2)), truth.c_v * float(rng.uniform(0.8, 1.2))),
        )
        fit = fit_sge_to_points(es, targets, {"c_tilde1", "c_v"}, start)
        assert fit.converged
        assert abs(fit.params[0] - truth.c_tilde1) / truth.c_tilde1 <= 1e-5
        assert abs(fit.params[1] - truth.c_v) / truth.c_v <= 1e-5


def test_array_jacobian_equals_scalar_jacobian():
    rng = np.random.default_rng(31)
    grids = [np.sort(rng.uniform(0.05, 50.0, 300)) for _ in range(4)]
    grids.append(np.geomspace(2e-5, 1e4, 500))  # 35 < |arg| < 710 on both sides
    far = set()
    for es in grids:
        for _ in range(3):
            ct1, cv, e_t = (float(v) for v in rng.uniform(0.3, 3.0, 3))
            chi = cv * e_t / es
            arg = np.sqrt(2.0 / chi) - np.sqrt(chi)
            far |= {int(np.sign(a)) for a in arg[np.abs(arg) > 35.0]}
            d_ct1, d_cv = sge_jacobian_array(es, ct1, cv, e_t)
            rows = [sge_model_jacobian(float(e), ct1, cv, e_t) for e in es]
            assert np.array_equal(d_ct1, [r[0] for r in rows])
            assert np.array_equal(d_cv, [r[1] for r in rows])
    assert far == {-1, 1}
    # where the bare cosh overflows, both raise
    with pytest.raises(OverflowError, match=r"Jacobian .* for fields in \[1e-06, 1e-06\]"):
        sge_model_jacobian(1e-6, 1.0, 1.0, 1.0)
    with pytest.raises(OverflowError, match=r"Jacobian .* for fields in \[1e-07, 1e-06\]"):
        sge_jacobian_array(np.array([1e-7, 1.0, 1e-6]), 1.0, 1.0, 1.0)


def _point_by_point_fit(es, targets, free, start):
    """The fit as a least_squares_fit run whose model and Jacobian go point by point."""
    names = [n for n in FREE_PARAM_ORDER if n in free]

    def model(xs, p):
        if not np.all(np.isfinite(p) & (p > 0.0)):
            return np.full(xs.size, np.inf)
        tp = transport_with(start, names, p)
        return np.array([current_sge(float(x), tp) for x in xs])

    def jacobian(xs, p):
        tp = transport_with(start, names, p)
        rows = [dict(zip(FREE_PARAM_ORDER, sge_model_jacobian(float(x), tp.c_tilde1, tp.c_v, tp.e_t))) for x in xs]
        return np.array([[row[n] for n in names] for row in rows])

    params0 = np.array([getattr(start, n) for n in names])
    return least_squares_fit(model, params0, list(zip(es, targets)), jacobian=jacobian)


def test_whole_grid_fit_equals_point_by_point_fit():
    rng = np.random.default_rng(37)
    zener = TransportParams()
    cases = []
    for free in ({"c_tilde1", "c_v"}, {"c_v"}, {"c_tilde1"}):
        for _ in range(3):
            es = np.linspace(rng.uniform(1.1, 2.0), rng.uniform(3.0, 10.0), int(rng.integers(20, 120)))
            truth = TransportParams(c_tilde1=float(rng.uniform(0.2, 5.0)), c_v=float(rng.uniform(0.5, 2.0)))
            start = transport_with(truth, ("c_tilde1", "c_v"), (truth.c_tilde1 * 1.15, truth.c_v * 0.85))
            cases.append((es, [current_sge(float(e), truth) for e in es], free, start))
            cases.append((es, [current_zener(float(e), zener) for e in es], free, zener))
    for es, targets, free, start in cases:
        fit = fit_sge_to_points(es, targets, free, start)
        ref = _point_by_point_fit(es, targets, free, start)
        assert np.array_equal(fit.params, ref.params)
        assert fit.residual_rms == ref.residual_rms
        assert fit.iterations == ref.iterations
        assert fit.stop == ref.stop


def test_fit_rejects_non_positive_fields():
    with pytest.raises(ValueError, match="positive"):
        fit_sge_to_points(np.array([0.0, 1.0, 2.0]), np.ones(3), {"c_v"}, TransportParams())


def test_zener_fits_match_minpack():
    """240 Zener fits over the benchmark's ranges (20 to 400 fields, lo in
    [1.1, 2], hi in [3, 10]) against MINPACK's lmder at tolerances of 1e-15.

    Every fit converges, to MINPACK's rms within 1e-11 relative, and the
    slowest stays far from max_iter=200.  The valley of the rms fixes the
    parameters only to about 1e-7, so they are compared to 1e-6.
    """
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(43)
    zener = TransportParams()
    iterations = []
    for _ in range(240):
        n = int(round(20.0 * 20.0 ** rng.uniform()))
        es = np.linspace(rng.uniform(1.1, 2.0), rng.uniform(3.0, 10.0), n)
        fit = fit_sge_to_zener(zener, es)
        assert fit.converged, (es[0], es[-1], n, fit)
        targets = current_zener_array(es, 1.0, 1.0)
        ref = optimize.least_squares(
            lambda p: current_sge_array(es, 1.0, p[1], p[0], False) - targets,
            [1.0, 1.0],
            jac=lambda p: np.column_stack(sge_jacobian_array(es, p[0], p[1], 1.0)),
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        ref_rms = np.sqrt(np.mean(ref.fun**2))
        assert fit.residual_rms == pytest.approx(ref_rms, rel=1e-11)
        np.testing.assert_allclose(fit.params, ref.x, rtol=1e-6)
        iterations.append(fit.iterations)
    assert np.median(iterations) <= 20
    assert max(iterations) <= 60
