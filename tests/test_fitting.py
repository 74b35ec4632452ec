import hashlib
import math
import sys

import numpy as np
import pytest

from cdwtunnel import fitting
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fit_sge_family(np.full((1, 2), 2.0), np.ones((1, 2)), FREE_PARAM_ORDER, [TransportParams()]), "one-dimensional"),
        (lambda: fit_sge_family([2.0, 3.0], [[1.0, np.nan]], FREE_PARAM_ORDER, [TransportParams()]), "^targets must be finite$"),
        (lambda: fit_sge_to_points([2.0, 3.0], np.ones((1, 2)), FREE_PARAM_ORDER, TransportParams()), "^targets must be one-dim"),
        (lambda: transport_with(TransportParams(), ("c_v",), (1.0, 2.0)), "one value per free parameter"),
    ],
    ids=["family-fields-2d", "family-target-nan", "points-targets-2d", "transport-with-value-count"],
)
def test_fit_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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

    # scales out to 2^+-900, where the squares of the targets leave the double
    # range: the fit runs on targets scaled to below 1 by a power of two, so a
    # power-of-two scale moves no bit of the scaled problem
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.booleans(), st.integers(-900, 900), st.floats(0.2, 5.0), st.floats(0.5, 2.0), factor, factor
    )
    @example(True, 900, 1.0, 1.0, 1.0, 1.0)
    @example(False, 900, 1.3, 0.7, 1.2, 0.8)
    @example(True, -900, 1.0, 1.0, 1.0, 1.0)
    @example(False, -900, 4.0, 1.9, 0.8, 1.2)
    def run(zener, p, c_tilde1, c_v, f1, f2):
        s = math.ldexp(1.0, p)
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
        assert fit_s.params.tolist() == [fit.params[0] * s, fit.params[1]]
        assert fit_s.iterations == fit.iterations
        rms = math.ldexp(fit.residual_rms, p)
        if rms == 0.0 or rms >= sys.float_info.min:
            assert fit_s.residual_rms == rms

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
    with pytest.raises(OverflowError, match=r"^pair-current Jacobian overflows: .* \[1e-06, 1e-06\]$") as family:
        fit_sge_family(es, targets, FREE_PARAM_ORDER, starts)
    with pytest.raises(OverflowError) as alone:
        fit_sge_to_points(es, targets[0], FREE_PARAM_ORDER, starts[0])
    assert str(family.value) == str(alone.value)
    assert (family.value.member, alone.value.member) == (0, 0)
    es = np.array([2.0, 3.0])
    targets = np.array([[1.0, 2.0]] * 3)
    # with c_tilde1 held at 1e300, the start residual's sum of squares overflows
    starts[1] = TransportParams(c_tilde1=1e300)
    with pytest.raises(ValueError, match=r"^sum of squared residuals overflows at the initial parameters$") as family:
        fit_sge_family(es, targets, ("c_v",), starts)
    with pytest.raises(ValueError) as alone:
        fit_sge_to_points(es, targets[1], ("c_v",), starts[1])
    assert str(family.value) == str(alone.value)
    assert (family.value.member, alone.value.member) == (1, 0)
    with pytest.raises(ValueError, match=r"targets must have shape \(3, 2\)"):
        fit_sge_family(es, targets[:2], FREE_PARAM_ORDER, starts)


def test_an_empty_family_takes_no_round(monkeypatch):
    calls = []
    kernel = fitting._sge_cv_derivatives
    monkeypatch.setattr(fitting, "_sge_cv_derivatives", lambda *args: calls.append(args) or kernel(*args))
    for free in ((), ("c_v",), FREE_PARAM_ORDER):
        assert fit_sge_family(np.array([2.0, 3.0]), np.empty((0, 2)), free, []) == []
    assert len(calls) == 3


# Zener samples, and starting c_v values whose one-member fits reject some trials
# (cost no lower) beside fits that take theirs: with both parameters free, 5.406
# and 6.077 reject round 1 while 1.0 and 0.584 take it; with c_v alone, 1.676,
# 1.885 and 2.119 reject round 1, 3.384 round 2, 6.832 round 3 and 13.793 round 4.
# "mixed" families have a round where some members take and others reject; in
# "all" families every member rejects one round
_ZENER_ES = np.linspace(1.2, 5.0, 40)
_REJECTING_FAMILIES = [
    (FREE_PARAM_ORDER, (5.406, 1.0, 6.077, 0.584), "mixed"),
    (("c_v",), (1.676, 3.384, 6.832, 1.0, 13.793), "mixed"),
    (FREE_PARAM_ORDER, (5.406, 6.077), "all"),
    (("c_v",), (1.676, 1.885, 2.119), "all"),
]


def _one_member_fit_and_costs(monkeypatch, es, row, free, start):
    """The one-member fit of ``row``, with the scaled cost of its start and of each round's trial, in order."""
    costs = []
    projected = fitting._projected

    def spy(*args):
        out = projected(*args)
        costs.append(float(out[1][0]))
        return out

    with monkeypatch.context() as patch:
        patch.setattr(fitting, "_projected", spy)
        fit = fit_sge_to_points(es, row, free, start)
    return fit, costs


@pytest.mark.parametrize("free, start_c_vs, rejecting", _REJECTING_FAMILIES)
def test_members_that_reject_their_trial_keep_their_old_state(monkeypatch, free, start_c_vs, rejecting):
    """A family where, in one round, some members take their trial and others
    reject it, or every member rejects it: each member is bit for bit its
    one-member fit, and ends at the lowest cost it evaluated, so a rejected
    trial never becomes the state and a taken one always does."""
    es = _ZENER_ES
    targets = np.tile(current_zener_array(es, 1.0, 1.0), (len(start_c_vs), 1))
    starts = [TransportParams(c_v=c_v) for c_v in start_c_vs]
    ky = np.frexp(np.abs(targets[0]).max())[1]
    family = fit_sge_family(es, targets, free, starts)
    taken = []
    for fit, row, start in zip(family, targets, starts):
        alone, costs = _one_member_fit_and_costs(monkeypatch, es, row, free, start)
        assert np.array_equal(fit.params, alone.params) and fit.residual_rms == alone.residual_rms
        assert (fit.iterations, fit.stop) == (alone.iterations, alone.stop) == (len(costs) - 1, "converged")
        assert fit.residual_rms == math.ldexp(math.sqrt(min(costs) / es.size), int(ky))
        # a trial is taken where it lowers the lowest cost so far
        taken.append([cost < min(costs[:r]) for r, cost in enumerate(costs) if r])
    # what each member did in each round, over the members still stepping
    rounds = [[t[r] for t in taken if r < len(t)] for r in range(max(map(len, taken)))]
    if rejecting == "mixed":
        assert any(any(done) and not all(done) for done in rounds)
    else:
        assert any(len(done) == len(taken) and not any(done) for done in rounds)


def test_a_family_calls_the_kernel_once_per_round_of_its_longest_fit(monkeypatch):
    """Members that stop at rounds r_j make max(r_j) + 1 kernel calls: the start,
    then one per round on the members still stepping.  A rejected trial is not
    evaluated again, and a one-member fit makes r + 1 calls."""
    calls = []
    kernel = fitting._sge_cv_derivatives
    monkeypatch.setattr(fitting, "_sge_cv_derivatives", lambda *args: calls.append(args) or kernel(*args))
    es = _ZENER_ES
    zero_and_pair = np.array([np.zeros(es.size), current_sge_array(es, 1.0, 1.3, 1.0, False)])
    families = [
        (free, np.tile(current_zener_array(es, 1.0, 1.0), (len(c_vs), 1)), [TransportParams(c_v=c_v) for c_v in c_vs])
        for free, c_vs, _ in _REJECTING_FAMILIES
    ]
    # zero targets run out their 200 steps beside a member that converges
    families.append((("c_v",), zero_and_pair, [TransportParams(), TransportParams()]))
    for free, targets, starts in families:
        calls.clear()
        family = fit_sge_family(es, targets, free, starts)
        rounds = [fit.iterations for fit in family]
        assert len(calls) == max(rounds) + 1
        # the rows of each call: every member at the start, then those still stepping
        assert [c_v.shape[0] for _, _, c_v in calls] == [len(family)] + [
            sum(r >= t for r in rounds) for t in range(1, max(rounds) + 1)
        ]
        for row, start, r in zip(targets, starts, rounds):
            calls.clear()
            assert fit_sge_to_points(es, row, free, start).iterations == r
            assert len(calls) == r + 1
    assert max(rounds) == 200


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


def test_fit_of_currents_near_the_top_of_the_double_range_scales_back_to_an_infinite_amplitude():
    # the closed-form amplitude of the scaled problem is finite; scaled back by
    # the targets' 2^997 it leaves the double range, and the fit reports inf
    fit = fit_sge_to_points(np.linspace(0.02, 0.03, 5), np.full(5, 1e300), ("c_tilde1",), TransportParams())
    assert fit.params.tolist() == [math.inf]
    assert fit.residual_rms == 8.7971118343984e299
    assert (fit.iterations, fit.stop) == (0, "converged")


def _same_float(got, want):
    """``got`` is the float ``want`` reads: both nan, or equal with the same sign (so -0.0 is not 0.0)."""
    want = float(want)
    if math.isnan(want):
        return math.isnan(got)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_float_helpers_of_the_fit_give_numpys_values():
    """The fit's two per-member float helpers against np.float64 arithmetic
    under np.errstate(all="ignore"), at the inputs where Python's own float
    arithmetic raises (an ldexp past the double range) or differs (math.ulp
    at the largest double).  The fit's c_v is never negative."""
    inf, nan, big, tiny = math.inf, math.nan, sys.float_info.max, 5e-324
    ln2 = fitting._LN2
    f64 = np.float64
    with np.errstate(all="ignore"):
        for x in (1.0, -1.0, 0.75, big, -big, tiny, 2.2250738585072014e-308, 0.0, -0.0, inf, -inf, nan):
            for e in (0, 1, 1023, 1024, 2098, 5000, -1, -1022, -1074, -1075, -2098, -5000):
                assert _same_float(fitting._ldexp(x, e), np.ldexp(f64(x), e)), (x, e)
        for c_v in (1.0, 0.75, 0.0, -0.0, tiny, 2.2250738585072014e-308, 1e300, big, inf, nan):
            for step in (0.0, -0.0, 1e-16, -4.5e-16, 1e-300, ln2, -ln2, inf, nan):
                want = np.abs(f64(step)) * f64(c_v) > fitting._STEP_ULPS * np.spacing(f64(c_v))
                assert fitting._moves(step, c_v) == bool(want), (step, c_v)
    # the largest double is where math.ulp parts from np.spacing
    assert fitting._moves(ln2, big) is False and ln2 * big > fitting._STEP_ULPS * math.ulp(big)


def _numpy_plan(y, g, dg, d2g, held, shift, project, c_v, floor):
    """``fitting._projected``'s outputs as arrays, by the fitter's earlier numpy formulation: every row at once,
    with np.float64 division by zero and np.minimum/np.maximum, under np.errstate(all="ignore")."""

    def rowdot(a, b):
        return np.add.reduce(a * b, axis=1)

    c_v, floor, ln2 = np.array(c_v), np.array(floor), fitting._LN2
    with np.errstate(all="ignore"):
        gg = rowdot(g, g)
        c = np.ldexp(np.array(held), np.array(shift))
        if project:
            c = np.where(gg > 0.0, rowdot(g, y) / gg, c)
        r = y - c[:, None] * g
        cost, g1r, g1g1, g2r = rowdot(r, r), rowdot(dg, r), rowdot(dg, dg), rowdot(d2g, r)
        grad = -c * g1r
        curvature = c * (c * g1g1 - g2r)
        if project:
            dc = (g1r - c * rowdot(g, dg)) / gg
            curvature -= dc * dc * gg
        slope, used = c_v * grad, c_v * (c_v * curvature + grad)
        step = np.minimum(np.maximum(-slope / np.where(used > 0.0, used, 0.0), -ln2), ln2)
        flat = np.abs(g1r) <= fitting._GTOL * np.sqrt(g1g1 * cost)
        moves = np.abs(step) * c_v > fitting._STEP_ULPS * np.spacing(c_v)
        go = (cost > floor) & ~flat & np.isfinite(step) & moves
    return c, cost, np.isfinite(grad) & np.isfinite(curvature), slope, used, step, go


def _float_kind(x):
    """Which of nan, +0, -0, +inf, -inf or finite (nonzero) the float ``x`` is."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return f"{x:+}"
    if x == 0.0:
        return "+0" if math.copysign(1.0, x) > 0.0 else "-0"
    return "finite"


def test_newton_plan_of_the_fit_gives_numpys_values():
    """``fitting._projected`` (amplitude, cost, derivability, slope, curvature
    used, bounded step and whether to take it) is bit for bit the numpy
    formulation on hand-built two-field rows: g = 0 on every field, a
    curvature that is not positive under a slope of ±0, nan, ±inf or a finite
    value, raw steps beyond ±ln 2 and nan steps, with and without the
    amplitude projected."""
    inf, nan, big, tiny = math.inf, math.nan, sys.float_info.max, 5e-324
    gs = ([0.0, 0.0], [0.5, 0.25], [-0.0, 1.0])
    ys = ([1.0, -1.0], [0.5, 0.25], [0.0, 0.0])
    dgs = ([1.0, 1.0], [1.0, -1.0], [-0.0, -0.0], [nan, 1.0], [inf, 1.0], [1e300, -1e300], [3.0, 0.5])
    d2gs = ([0.0, 0.0], [10.0, -10.0], [-3.0, 5.0], [inf, 0.0], [0.25, 0.5])
    rows = [
        (y, g, dg, d2g, held, c_v)
        for y in ys
        for g in gs
        for dg in dgs
        for d2g in d2gs
        for held in (1.0, -1.0)
        for c_v in (1.0, 0.5, 0.0, tiny, big)
    ]
    y, g, dg, d2g = (np.array([row[i] for row in rows]) for i in range(4))
    held, c_v = [row[4] for row in rows], [row[5] for row in rows]
    shift, floor, ln2 = [0] * len(rows), [1e-30] * len(rows), fitting._LN2
    seen = set()
    for project in (True, False):
        with np.errstate(all="ignore"):  # the fit's own scope, which ``_projected`` runs in
            got = fitting._projected(y, g, dg, d2g, held, shift, project, c_v, floor)
        want = _numpy_plan(y, g, dg, d2g, held, shift, project, c_v, floor)
        for name, got_col, want_col in zip(("c", "cost", "derivable", "slope", "used", "step", "go"), got, want):
            assert len(got_col) == len(rows)
            for i, (a, b) in enumerate(zip(got_col, want_col.tolist())):
                assert _same_float(a, b), (name, project, rows[i], a, b)
        # what the rows reach: each kind of slope under a curvature that is not
        # positive, raw steps past either bound, and nan steps
        _, _, _, slope, used, step, _ = want
        uphill = used > 0.0  # False at a nan curvature too
        with np.errstate(all="ignore"):
            raw = -slope[uphill] / used[uphill]
        seen.update(_float_kind(s) for s in slope[~uphill].tolist())
        for label, hit in (("raw > ln 2", raw > ln2), ("raw < -ln 2", raw < -ln2), ("nan step", np.isnan(step))):
            if hit.any():
                seen.add(label)
    assert seen == {"+0", "-0", "nan", "+inf", "-inf", "finite", "raw > ln 2", "raw < -ln 2", "nan step"}


def _pinned_fits():
    """A seeded set of fits whose every result bit the engine pin hashes.

    Self-fits and Zener fits over the benchmark's ranges (20 to 400 fields),
    one at a time and as families on a shared grid; all four free sets; the
    50-member family of the ``fit-roundtrip`` check; a self-fit that takes a
    rejected, halved step; and the two fits that run out their budget.
    """
    rng = np.random.default_rng(67)
    zener = TransportParams()
    free_sets = [FREE_PARAM_ORDER, ("c_v",), ("c_tilde1",), ()]
    fits = []
    for k in range(32):
        n = int(round(20.0 * 20.0 ** rng.uniform()))
        es = np.linspace(rng.uniform(1.1, 2.0), rng.uniform(3.0, 10.0), n)
        free = free_sets[k % 4 if k < 8 else 0]  # then both free, as the benchmark's fits
        c_tilde1, c_v, f1, f2 = rng.uniform([0.2, 0.5, 0.8, 0.8], [5.0, 2.0, 1.2, 1.2])
        if k % 3:
            start = TransportParams(c_tilde1=c_tilde1 * f1, c_v=c_v * f2)
            fits.append(fit_sge_to_points(es, current_sge_array(es, 1.0, c_v, c_tilde1, False), free, start))
        else:
            fits.append(fit_sge_to_zener(zener, es, free=free))
    for free in free_sets:
        # members that stop in different rounds, on one grid
        es = np.linspace(rng.uniform(1.1, 2.0), rng.uniform(3.0, 10.0), 60)
        draws = rng.uniform([0.2, 0.5, 0.5, 0.5], [5.0, 2.0, 2.0, 2.0], size=(7, 4))
        targets = current_sge_array(es, 1.0, draws[:, 1:2], draws[:, :1], False)
        targets[::3] = current_zener_array(es, 1.0, 1.0)
        starts = [TransportParams(c_tilde1=s1, c_v=s2) for s1, s2 in draws[:, 2:].tolist()]
        fits.extend(fit_sge_family(es, targets, free, starts))
    # the fit-roundtrip check's family
    draws = np.random.default_rng(20240812).uniform([0.2, 0.5, 0.8, 0.8], [5.0, 2.0, 1.2, 1.2], size=(50, 4))
    starts = [TransportParams(c_tilde1=ct * f1, c_v=cv * f2) for ct, cv, f1, f2 in draws.tolist()]
    es = np.linspace(1.2, 5.0, 40)
    targets = current_sge_array(es, 1.0, draws[:, 1:2], draws[:, :1], False)
    fits.extend(fit_sge_family(es, targets, FREE_PARAM_ORDER, starts))
    # from c_v = 5.2 the first trial step raises the cost and is halved
    es = np.linspace(1.2, 5.0, 60)
    targets = current_sge_array(es, 1.0, 1.3, 2.0, False)
    fits.append(fit_sge_to_points(es, targets, FREE_PARAM_ORDER, TransportParams(c_tilde1=2.0, c_v=5.2)))
    # the cost of these two has no minimum at a finite c_v
    fits.append(fit_sge_to_points(np.array([2.0, 3.0]), np.zeros(2), ("c_v",), TransportParams()))
    es, targets = np.array([15.5535, 15.5878]), np.array([0.01784, 0.7029])
    fits.append(fit_sge_to_points(es, targets, FREE_PARAM_ORDER, TransportParams()))
    return fits


def test_fit_engine_results_are_pinned_bit_for_bit():
    """The params, rms, iterations and stop of every pinned fit, hashed: a
    change to the engine that moves any result bit fails here.  A change that
    moves them on purpose updates the digest and says why in CHANGES.md.  The
    digest holds for one numpy build and CPU: numpy's exp and cosh may round
    differently on another."""
    digest = hashlib.sha256()
    fits = _pinned_fits()
    for fit in fits:
        digest.update(fit.params.tobytes())
        digest.update(np.float64(fit.residual_rms).tobytes())
        digest.update(f"{fit.iterations},{fit.stop};".encode())
    assert len(fits) == 113
    assert sum(fit.stop == "max_iter" for fit in fits) == 2
    assert digest.hexdigest() == "3ea964e08d5e05dd8181b474f9a84205d2e42683ff83d2c012054a47429c37e7"


def test_fits_whose_cost_has_no_finite_minimum_stop_at_max_iter():
    # on zero targets the held-amplitude cost only falls as c_v grows, and the
    # ratio of the two currents below is reached only as c_v goes to 0: both
    # fits take all 200 trial steps, in a family beside a member that converges
    es = np.array([2.0, 3.0])
    targets = np.array([np.zeros(2), current_sge_array(es, 1.0, 1.3, 1.0, False)])
    starts = [TransportParams(), TransportParams()]
    family = fit_sge_family(es, targets, ("c_v",), starts)
    assert (family[0].iterations, family[0].stop, family[0].converged) == (200, "max_iter", False)
    assert family[1].converged and family[1].iterations < 200
    for fit, row, start in zip(family, targets, starts):
        alone = fit_sge_to_points(es, row, ("c_v",), start)
        assert np.array_equal(fit.params, alone.params) and fit.residual_rms == alone.residual_rms
        assert (fit.iterations, fit.stop) == (alone.iterations, alone.stop)
    es, targets = np.array([15.5535, 15.5878]), np.array([0.01784, 0.7029])
    fit = fit_sge_to_points(es, targets, FREE_PARAM_ORDER, TransportParams())
    assert (fit.iterations, fit.stop, fit.converged) == (200, "max_iter", False)
