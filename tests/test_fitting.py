import math

import numpy as np
import pytest

from cdwtunnel.fitting import (
    FIG2B_REFERENCE_RMS_REL,
    FIG2B_WINDOW,
    FREE_PARAM_ORDER,
    compare_series,
    fit_sge_family,
    fit_sge_to_points,
    fit_sge_to_zener,
    sge_model_jacobian,
    transport_with,
)
from cdwtunnel.transport import (
    CurveSeries,
    TransportParams,
    current_sge,
    current_sge_array,
    current_zener,
    current_zener_array,
    curve_series,
    sge_cv_derivatives_array,
)
from oracles import finite_diff_gradient


def _sge_series(tp, es):
    return curve_series("sge", tp, es)


def _sge_jacobian_columns(es, c_tilde1, c_v, e_t):
    """(dI/dc_tilde1, dI/dc_v) of the printed pair current as two columns, from the c_v derivative kernel."""
    g, dg, _ = sge_cv_derivatives_array(es, e_t, c_v)
    return np.column_stack([g, c_tilde1 * dg])


def test_compare_identical_series():
    tp = TransportParams()
    es = np.linspace(1.2, 5.0, 30)
    a = _sge_series(tp, es)
    assert compare_series(a, a) == 0.0


def test_compare_uniform_offset():
    es = np.linspace(1.0, 3.0, 20)
    base = np.linspace(0.5, 2.0, 20)
    a = CurveSeries(es, 1.1 * base)
    b = CurveSeries(es, base)
    assert compare_series(a, b) == pytest.approx(0.1, abs=1e-12)


def test_compare_is_b_normalized_not_symmetric():
    es = np.linspace(1.0, 3.0, 10)
    a = CurveSeries(es, np.full(10, 2.0))
    b = CurveSeries(es, np.full(10, 1.0))
    ab = compare_series(a, b)
    ba = compare_series(b, a)
    assert ab == pytest.approx(1.0)
    assert ba == pytest.approx(0.5)


def test_compare_is_the_b_normalized_relative_rms():
    rng = np.random.default_rng(23)
    es = np.linspace(1.0, 4.0, 31)
    a = CurveSeries(es, rng.uniform(0.1, 3.0, es.size))
    b = CurveSeries(es, rng.uniform(0.1, 3.0, es.size))
    ya, yb = a.currents, b.currents
    assert compare_series(a, b) == float(np.sqrt(np.mean(((ya - yb) / yb) ** 2)))


def test_compare_rejects_grid_mismatch():
    a = CurveSeries(np.linspace(1, 3, 10), np.ones(10))
    b = CurveSeries(np.linspace(1.01, 3.01, 10), np.ones(10))
    with pytest.raises(ValueError, match="grids differ"):
        compare_series(a, b)
    with pytest.raises(ValueError, match="grids differ"):
        compare_series(a, CurveSeries(np.linspace(1, 3, 11), np.ones(11)))


def test_compare_rejects_zero_denominator():
    es = np.linspace(0.5, 1.5, 5)
    a = CurveSeries(es, np.ones(5))
    b = CurveSeries(es, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="zero"):
        compare_series(a, b)


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
    rms_rel = compare_series(curve_series("sge", fitted, es), curve_series("zener", tp, es))
    assert abs(rms_rel - FIG2B_REFERENCE_RMS_REL) <= 0.01 * FIG2B_REFERENCE_RMS_REL


def test_fit_rejects_grid_at_or_below_threshold():
    tp = TransportParams(e_t=1.0)
    with pytest.raises(ValueError):
        fit_sge_to_zener(tp, np.linspace(0.5, 5.0, 20))
    with pytest.raises(ValueError):
        fit_sge_to_zener(tp, np.linspace(1.0, 5.0, 20))  # includes E_T itself


@pytest.mark.parametrize(
    "grid, message",
    [
        (np.array([]), "must not be empty"),
        (np.array([2.0, 3.0, 3.0]), "strictly increasing"),
        (np.array([3.0, 2.0]), "strictly increasing"),
        (np.ones((2, 2)) * 2.0, "1-D"),
        (np.array([2.0, np.nan]), "strictly increasing"),
    ],
)
def test_zener_fit_grid_is_checked_by_its_curve_series(grid, message):
    with pytest.raises(ValueError, match=message):
        fit_sge_to_zener(TransportParams(), grid)


def test_zener_fit_start_must_share_the_threshold():
    es = np.linspace(2.5, 5.0, 20)
    with pytest.raises(ValueError, match=r"start E_T = 2\.0 differs from the Zener E_T = 1\.0"):
        fit_sge_to_zener(TransportParams(), es, start=TransportParams(e_t=2.0))
    # a start with the same E_T only supplies c_tilde1 and c_v
    start = TransportParams(c_tilde1=1.3, c_v=0.9, g_p=7.0)
    fit = fit_sge_to_zener(TransportParams(), es, start=start)
    ref = fit_sge_to_points(es, curve_series("zener", TransportParams(), es).currents, FREE_PARAM_ORDER, start)
    assert np.array_equal(fit.params, ref.params) and fit.residual_rms == ref.residual_rms


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
        return compare_series(curve_series("sge", fitted, es), curve_series("zener", target_tp, es))

    assert rel_rms(fit_a, tp) == pytest.approx(rel_rms(fit_b, tp_scaled), rel=1e-8)


def test_fit_invariant_under_joint_rescale_of_targets_and_amplitude(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    es = np.linspace(1.2, 5.0, 40)
    factor = st.floats(0.8, 1.2)

    # scales out to 10^+-150, where the squares of the targets reach the ends of
    # the double range: the fit runs on targets scaled to below 1
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.booleans(), st.floats(-150.0, 150.0), st.floats(0.2, 5.0), st.floats(0.5, 2.0), factor, factor
    )
    @example(True, 150.0, 1.0, 1.0, 1.0, 1.0)
    @example(False, 150.0, 1.3, 0.7, 1.2, 0.8)
    @example(True, -150.0, 1.0, 1.0, 1.0, 1.0)
    @example(False, -150.0, 4.0, 1.9, 0.8, 1.2)
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
        assert fit.converged and fit_s.converged
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
            cols = _sge_jacobian_columns(es, ct1, cv, e_t)
            rows = [sge_model_jacobian(float(e), ct1, cv, e_t) for e in es]
            assert np.array_equal(cols[:, 0], [r[0] for r in rows])
            assert np.array_equal(cols[:, 1], [r[1] for r in rows])
    assert far == {-1, 1}
    # where the bare cosh overflows, the scalar form raises and names the
    # field, and the array form's c_v column is nan there alone
    with pytest.raises(OverflowError, match=r"Jacobian .* for fields in \[1e-06, 1e-06\]"):
        sge_model_jacobian(1e-6, 1.0, 1.0, 1.0)
    cols = _sge_jacobian_columns(np.array([1e-7, 1.0, 1e-6]), 1.0, 1.0, 1.0)
    assert np.array_equal(np.isnan(cols[:, 1]), [True, False, True])


def test_whole_grid_fit_equals_point_by_point_fit():
    # at the returned c_v, the returned c_tilde1 is the least-squares amplitude
    # <g, y>/<g, g> (or the held start) and the rms is the residual's, with g
    # and the residual evaluated point by point through current_sge
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
        assert fit.converged
        values = dict(zip([n for n in FREE_PARAM_ORDER if n in free], fit.params.tolist()))
        c_v = values.get("c_v", start.c_v)
        unit = TransportParams(e_t=start.e_t, c_v=c_v, c_tilde1=1.0)
        g = [current_sge(float(e), unit) for e in es]
        if "c_tilde1" in free:
            amplitude = math.fsum(a * y for a, y in zip(g, targets)) / math.fsum(a * a for a in g)
            assert values["c_tilde1"] == pytest.approx(amplitude, rel=1e-13)
        else:
            amplitude = start.c_tilde1
        fitted = TransportParams(e_t=start.e_t, c_v=c_v, c_tilde1=values.get("c_tilde1", start.c_tilde1))
        resid = [y - current_sge(float(e), fitted) for e, y in zip(es, targets)]
        rms = math.sqrt(math.fsum(r * r for r in resid) / len(resid))
        assert fit.residual_rms == pytest.approx(rms, rel=1e-12, abs=1e-14 * max(targets))
        assert fitted.c_tilde1 == pytest.approx(amplitude, rel=1e-13)


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
            jac=lambda p: _sge_jacobian_columns(es, p[0], p[1], 1.0),
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


def test_family_members_equal_their_one_member_fits(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    member = st.tuples(
        st.booleans(), st.floats(0.2, 5.0), st.floats(0.5, 2.0), st.floats(0.2, 5.0), st.floats(0.3, 3.0)
    )
    free_sets = st.sampled_from([frozenset(FREE_PARAM_ORDER), frozenset({"c_v"}), frozenset({"c_tilde1"}), frozenset()])

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(free_sets, st.floats(1.1, 2.0), st.floats(3.0, 10.0), st.integers(5, 80), st.lists(member, min_size=1, max_size=8))
    def run(free, lo, hi, n, members):
        # each member fits Zener samples or a pair current of its own, from a start of its own
        es = np.linspace(lo, hi, n)
        targets = np.array([
            current_zener_array(es, 1.0, 1.0) if zener else current_sge_array(es, 1.0, c_v, c_tilde1, False)
            for zener, c_tilde1, c_v, _, _ in members
        ])
        starts = [TransportParams(c_tilde1=s_ct1, c_v=s_cv) for _, _, _, s_ct1, s_cv in members]
        family = fit_sge_family(es, targets, free, starts)
        assert len(family) == len(members)
        for fit, row, start in zip(family, targets, starts):
            alone = fit_sge_to_points(es, row, free, start)
            assert np.array_equal(fit.params, alone.params)
            assert fit.residual_rms == alone.residual_rms
            assert (fit.iterations, fit.stop) == (alone.iterations, alone.stop)

    run()


def test_family_raises_for_its_lowest_failing_member():
    es = np.array([1e-6, 2e-6])
    ok = current_sge_array(es, 1.0, 1.0, 1.0, False)
    targets = np.array([ok, [1.0, 2.0], [1.0, 2.0]])
    starts = [TransportParams()] * 3
    # every member's cosh argument leaves the Jacobian's range at E = 1e-6
    with pytest.raises(OverflowError, match=r"^member 0: pair-current Jacobian overflows: .* \[1e-06, 1e-06\]$") as info:
        fit_sge_family(es, targets, FREE_PARAM_ORDER, starts)
    assert info.value.member == 0
    es = np.array([2.0, 3.0])
    targets = np.array([[1.0, 2.0], [1e300, 1e300], [1.0, 2.0]])
    with pytest.raises(ValueError, match=r"^member 1: sum of squared residuals overflows at the initial parameters$") as info:
        fit_sge_family(es, targets, FREE_PARAM_ORDER, starts)
    assert info.value.member == 1
    with pytest.raises(ValueError, match=r"targets must have shape \(3, 2\)"):
        fit_sge_family(es, targets[:2], FREE_PARAM_ORDER, starts)


def test_fit_whose_cost_derivatives_overflow_at_the_start_raises():
    # chi is about 1, but dg/dc_v ~ g/c_v and d2g/dc_v2 ~ g/c_v^2 leave the double range
    es, targets, start = np.array([1e-300, 2e-300]), np.array([1.0, 2.0]), TransportParams(c_v=1e-300)
    for free in (FREE_PARAM_ORDER, ("c_v",)):
        with pytest.raises(OverflowError, match=r"^c_v derivatives of the cost are not finite at c_v = 1e-300$"):
            fit_sge_to_points(es, targets, free, start)
    # the closed form for c_tilde1 alone needs no derivative
    assert fit_sge_to_points(es, targets, ("c_tilde1",), start).converged


def test_fits_of_c_v_alone_match_minpack():
    """{c_v} fits, c_tilde1 held at its start, against MINPACK's lmder at
    tolerances of 1e-15: the same rms to 1e-11 relative and c_v to 1e-6."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(53)
    for k in range(40):
        es = np.linspace(rng.uniform(1.1, 2.0), rng.uniform(3.0, 10.0), int(rng.integers(20, 200)))
        if k % 2:
            targets = current_zener_array(es, 1.0, 1.0)
        else:
            targets = current_sge_array(es, 1.0, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.2, 5.0)), False)
        start = TransportParams(c_tilde1=float(rng.uniform(0.5, 2.0)), c_v=float(rng.uniform(0.5, 2.0)))
        fit = fit_sge_to_points(es, targets, {"c_v"}, start)
        assert fit.converged
        ref = optimize.least_squares(
            lambda p: current_sge_array(es, 1.0, p[0], start.c_tilde1, False) - targets,
            [start.c_v],
            jac=lambda p: _sge_jacobian_columns(es, start.c_tilde1, p[0], 1.0)[:, 1:],
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
        ref_rms = np.sqrt(np.mean(ref.fun**2))
        assert fit.residual_rms == pytest.approx(ref_rms, rel=1e-11)
        np.testing.assert_allclose(fit.params, ref.x, rtol=1e-6)


def test_fits_of_c_tilde1_alone_are_the_closed_form():
    # c_tilde1 alone is linear least squares: <g, y>/<g, g> at the start c_v, no iteration
    rng = np.random.default_rng(59)
    for _ in range(20):
        es = np.linspace(rng.uniform(1.1, 2.0), rng.uniform(3.0, 10.0), int(rng.integers(2, 200)))
        targets = current_zener_array(es, 1.0, float(rng.uniform(0.1, 10.0)))
        start = TransportParams(c_tilde1=float(rng.uniform(0.5, 2.0)), c_v=float(rng.uniform(0.5, 2.0)))
        fit = fit_sge_to_points(es, targets, {"c_tilde1"}, start)
        g = current_sge_array(es, 1.0, start.c_v, 1.0, False).tolist()
        amplitude = math.fsum(a * y for a, y in zip(g, targets.tolist())) / math.fsum(a * a for a in g)
        assert (fit.iterations, fit.stop) == (0, "converged")
        assert fit.params[0] == pytest.approx(amplitude, rel=1e-13)
        resid = targets - amplitude * np.array(g)
        assert fit.residual_rms == pytest.approx(math.sqrt(math.fsum((resid * resid).tolist()) / es.size), rel=1e-12)


def test_fit_with_currents_near_1e154_converges():
    # the squares of these currents overflow in any sum of two of them; the fit
    # is that of the currents over 1e154, with the amplitude scaled back
    es = np.array([1.0, 1.5])
    for free in (FREE_PARAM_ORDER, ("c_v",), ("c_tilde1",)):
        fit = fit_sge_to_points(es, np.array([1e154, 0.0]), free, TransportParams())
        unit = fit_sge_to_points(es, np.array([1.0, 0.0]), free, TransportParams(c_tilde1=1e-154))
        assert fit.converged and unit.converged
        scale = np.array([1e154 if name == "c_tilde1" else 1.0 for name in FREE_PARAM_ORDER if name in free])
        np.testing.assert_allclose(fit.params, unit.params * scale, rtol=1e-12)
        assert fit.residual_rms == pytest.approx(1e154 * unit.residual_rms, rel=1e-12)
