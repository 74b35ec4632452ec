import math

import numpy as np
import pytest

from cdwtunnel.transport import (
    CurveSeries,
    TransportParams,
    current_sge,
    current_sge_array,
    current_sge_log,
    current_zener,
    current_zener_array,
    curve_series,
    pair_separation,
    sge_cv_derivatives_array,
    sge_from_matrix_element_form,
    sge_jacobian_array,
)

# mpmath: cosh(sqrt2 - 1) e^(-1)
SGE_CHI_ONE = 0.3998923197349531
# mpmath: e^(-1/2)
ZENER_AT_TWO = 0.6065306597126334


def test_pair_separation_values():
    tp = TransportParams(delta_s=1.0, e_star=1.0)
    assert pair_separation(2.0, tp) == pytest.approx(1.0)
    tp2 = TransportParams(delta_s=2.0, e_star=1.0)
    assert pair_separation(2.0, tp2) == pytest.approx(2.0 * pair_separation(2.0, tp))


def test_pair_separation_product_invariant():
    tp = TransportParams(delta_s=1.7, e_star=0.4)
    want = 2.0 * tp.delta_s / tp.e_star
    for e in np.geomspace(0.01, 1000.0, 40):
        assert pair_separation(float(e), tp) * e == pytest.approx(want, rel=1e-15)


def test_pair_separation_domain():
    with pytest.raises(ValueError):
        pair_separation(0.0, TransportParams())
    with pytest.raises(ValueError):
        pair_separation(-2.0, TransportParams())



def test_sge_reference_value():
    tp = TransportParams(c_tilde1=1.0, c_v=1.0, e_t=1.0)
    assert current_sge(1.0, tp) == pytest.approx(SGE_CHI_ONE, rel=1e-13)
    tp3 = TransportParams(c_tilde1=3.0)
    assert current_sge(1.0, tp3) == pytest.approx(3.0 * SGE_CHI_ONE, rel=1e-13)


def test_sge_vanishes_at_small_field():
    tp = TransportParams()
    assert current_sge(1e-6, tp) == 0.0  # underflows, mathematically ~1e-433000


def test_sge_large_field_asymptote():
    tp = TransportParams()
    # ln(I / (C~1/2 e^(sqrt(2E/(ET cv))))) -> 0 monotonically from below
    gaps = []
    for e in (1e4, 1e6, 1e8):
        ratio_log = current_sge_log(e, tp) - (math.log(0.5) + math.sqrt(2.0 * e))
        gaps.append(abs(ratio_log))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 2e-4


def test_sge_strictly_positive():
    tp = TransportParams(c_v=0.8)
    for e in np.geomspace(0.05, 1000.0, 50):
        assert current_sge(float(e), tp) > 0.0


def test_sge_substituted_convention():
    tp = TransportParams(c_v=1.4, c_tilde1=2.0)
    for e in np.geomspace(0.3, 30.0, 15):
        chi = tp.c_v * tp.e_t / e
        want = tp.c_tilde1 * math.cosh(math.sqrt(2.0 / chi) - math.sqrt(chi / 2.0)) * math.exp(-chi / 2.0)
        assert current_sge(float(e), tp, convention="substituted") == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        current_sge(1.0, tp, convention="bogus")


def test_sge_reconciles_with_matrix_element_form():
    # absorbing the factor 2 into c_v where the matrix element carries the
    # 1/2 reproduces the printed law exactly
    tp = TransportParams(c_v=0.7, c_tilde1=2.5)
    for e in np.geomspace(0.2, 20.0, 100):
        printed = current_sge(float(e), tp)
        rebuilt = sge_from_matrix_element_form(float(e), tp)
        assert abs(printed - rebuilt) <= 1e-12 * abs(printed)


def test_sge_log_consistent_with_linear():
    tp = TransportParams(c_tilde1=1.7, c_v=0.9)
    for e in np.geomspace(0.5, 50.0, 10):
        assert math.exp(current_sge_log(float(e), tp)) == pytest.approx(
            current_sge(float(e), tp), rel=1e-12
        )


def test_zener_threshold_and_value():
    tp = TransportParams(e_t=1.0, g_p=1.0)
    for e in np.linspace(0.05, 1.0, 40):
        assert current_zener(float(e), tp) == 0.0
    assert current_zener(2.0, tp) == pytest.approx(ZENER_AT_TWO, rel=1e-14)
    tp5 = TransportParams(e_t=1.0, g_p=5.0)
    assert current_zener(2.0, tp5) == pytest.approx(5.0 * ZENER_AT_TWO, rel=1e-14)


def test_zener_continuous_at_threshold():
    tp = TransportParams()
    assert current_zener(tp.e_t * (1.0 + 1e-12), tp) <= 1e-11


def test_both_currents_strictly_increasing_above_threshold():
    tp = TransportParams(c_v=1.3)
    start = max(tp.e_t, tp.c_v * tp.e_t)
    es = np.linspace(start, 100.0 * tp.e_t, 10_000)
    sge_vals = np.array([current_sge(float(e), tp) for e in es])
    zen_vals = np.array([current_zener(float(e), tp) for e in es])
    assert np.all(np.diff(sge_vals) > 0.0)
    assert np.all(np.diff(zen_vals) > 0.0)


def test_curve_series_zener_below_threshold_is_zero():
    tp = TransportParams(e_t=1.0)
    series = curve_series("zener", tp, np.linspace(0.1, 1.0, 10))
    assert np.all(series.currents == 0.0)


def test_curve_series_sge_positive_and_monotone():
    tp = TransportParams()
    es = np.linspace(tp.c_v * tp.e_t, 50.0, 2000)
    series = curve_series("sge", tp, es)
    assert np.all(series.currents > 0.0)
    assert np.all(np.diff(series.currents) > 0.0)


def test_curve_series_validation():
    tp = TransportParams()
    with pytest.raises(ValueError):
        curve_series("sge", tp, [2.0, 1.0])
    with pytest.raises(ValueError):
        curve_series("sge", tp, [-1.0, 2.0])
    with pytest.raises(ValueError):
        curve_series("nope", tp, [1.0, 2.0])
    with pytest.raises(ValueError):
        CurveSeries([1.0, 2.0], [0.5, -0.5])


def test_curve_series_names_its_first_bad_current():
    with pytest.raises(ValueError) as info:
        CurveSeries([1.0, 2.0, 3.0, 4.0], [0.5, math.nan, -1.0, math.inf])
    assert str(info.value) == "currents must be finite and non-negative; the first bad one is I = nan at E = 2"
    with pytest.raises(ValueError, match="the first bad one is I = -1 at E = 3"):
        CurveSeries([1.0, 2.0, 3.0], [0.5, 1.0, -1.0])


def test_transport_params_validation():
    with pytest.raises(ValueError):
        TransportParams(e_t=0.0)


def _sge_arg(es, e_t, c_v):
    chi = e_t * c_v / es
    return np.sqrt(2.0 / chi) - np.sqrt(chi)


@pytest.mark.parametrize("convention", ["printed", "substituted"])
def test_array_pair_current_equals_scalar_kernel(convention):
    """Every element of the whole-grid kernel is the scalar kernel's value, bit for bit."""
    rng = np.random.default_rng(23)
    substituted = convention == "substituted"
    grids = [np.sort(rng.uniform(0.05, 50.0, 300)) for _ in range(4)]
    # |arg| > 35 on both sides, and fields far enough out that the current overflows
    grids.append(np.geomspace(1e-5, 1e9, 600))
    seen_far = seen_inf = False
    for es in grids:
        for _ in range(3):
            e_t, c_v = rng.uniform(0.3, 3.0, 2)
            c_tilde1 = float(rng.choice([rng.uniform(0.1, 5.0), 1e300]))
            got = current_sge_array(es, e_t, c_v, c_tilde1, substituted)
            tp = TransportParams(e_t=e_t, c_v=c_v, c_tilde1=c_tilde1)
            want = [current_sge(float(e), tp, convention) for e in es]
            assert got.dtype == np.float64 and got.shape == es.shape
            assert np.array_equal(got, want)
            seen_far |= bool(np.any(np.abs(_sge_arg(es, e_t, c_v)) > 35.0))
            seen_inf |= bool(np.any(np.isinf(got)))
    assert seen_far and seen_inf


def test_array_zener_current_equals_scalar_kernel():
    rng = np.random.default_rng(29)
    for _ in range(10):
        e_t, g_p = rng.uniform(0.3, 3.0, 2)
        es = np.sort(np.concatenate([rng.uniform(0.01, 4.0 * e_t, 200), [e_t, 0.5 * e_t]]))
        got = current_zener_array(es, e_t, g_p)
        want = [current_zener(float(e), TransportParams(e_t=e_t, g_p=g_p)) for e in es]
        assert np.array_equal(got, want)
        assert np.all(got[es <= e_t] == 0.0) and np.all(got[es > e_t] > 0.0)
    huge = current_zener_array(np.array([1e300]), 1.0, 1e300)
    assert np.isinf(huge[0]) and huge[0] == current_zener(1e300, TransportParams(e_t=1.0, g_p=1e300))


@pytest.mark.parametrize("model, convention", [("sge", "printed"), ("sge", "substituted"), ("zener", "printed")])
def test_curve_series_equals_pointwise_laws(model, convention):
    tp = TransportParams(e_t=1.3, c_v=0.8, c_tilde1=2.5, g_p=0.7)
    es = np.geomspace(0.05, 5e4, 400)
    series = curve_series(model, tp, es, convention)
    if model == "sge":
        want = [current_sge(float(e), tp, convention) for e in es]
    else:
        want = [current_zener(float(e), tp) for e in es]
    assert np.array_equal(series.currents, want)


def test_curve_series_rejects_unknown_convention():
    with pytest.raises(ValueError, match="convention"):
        curve_series("sge", TransportParams(), [1.0, 2.0], "literal")


def _fields_for_args(args, e_t, c_v):
    """Fields at which the printed law's cosh argument sqrt(2/chi) - sqrt(chi) takes ``args``."""
    s = 0.5 * (np.sqrt(args**2 + 4.0 * math.sqrt(2.0)) - args)  # s = sqrt(chi)
    return np.unique(e_t * c_v / s**2)


def test_kernels_match_mpmath_up_to_cosh_argument_700():
    """Pair current (both conventions), its Jacobian and the Zener law against
    60-digit mpmath at the same float inputs, for |cosh argument| up to 700.

    Each value is within 1e-13 relative; the pair-current values may add the
    error that rounding chi and its square roots carries through their
    condition number, at most sqrt(2/chi) + sqrt(chi) + chi, taken as 4 ulp of
    it.  Where the exact value lies outside the normal float range, the
    kernel returns inf above it and at most the smallest normal below it.
    """
    mpmath = pytest.importorskip("mpmath")
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    u = 2.0**-53
    rng = np.random.default_rng(41)
    checked, reach = 0, 0.0
    for _ in range(4):
        e_t, c_v, c_tilde1 = (float(v) for v in rng.uniform(0.3, 3.0, 3))
        es = _fields_for_args(np.linspace(-700.0, 700.0, 281), e_t, c_v)
        got = {
            "printed": current_sge_array(es, e_t, c_v, c_tilde1, False),
            "substituted": current_sge_array(es, e_t, c_v, c_tilde1, True),
            "zener": current_zener_array(es, e_t, c_tilde1),
        }
        got["d_ct1"], got["d_cv"] = sge_jacobian_array(es, c_tilde1, c_v, e_t)
        with mpmath.workdps(60):
            for k, e in enumerate(es.tolist()):
                field = mpmath.mpf(e)
                chi = e_t * mpmath.mpf(c_v) / field
                a, b = mpmath.sqrt(2 / chi), mpmath.sqrt(chi)
                cosh_decay = mpmath.cosh(a - b) * mpmath.exp(-chi)
                want = {
                    "printed": c_tilde1 * cosh_decay,
                    "substituted": c_tilde1 * mpmath.cosh(a - mpmath.sqrt(chi / 2)) * mpmath.exp(-chi / 2),
                    "zener": c_tilde1 * (field - e_t) * mpmath.exp(-e_t / field) if e > e_t else mpmath.mpf(0),
                    "d_ct1": cosh_decay,
                    "d_cv": -c_tilde1 * mpmath.exp(-chi) * (mpmath.sinh(a - b) * (a + b) / 2 + mpmath.cosh(a - b) * chi) / c_v,
                }
                pair_tol = 1e-13 + 4.0 * u * float(a + b + chi)
                for name, ref in want.items():
                    value = got[name][k]
                    tol = 1e-13 if name == "zener" else pair_tol
                    if abs(ref) > huge:
                        assert value == math.copysign(math.inf, ref), (name, e)
                    elif abs(ref) < tiny:
                        assert abs(value) <= tiny, (name, e, value)
                    else:
                        assert abs(value - float(ref)) <= tol * abs(float(ref)), (name, e, value, ref)
                        checked += 1
                        reach = max(reach, float(abs(a - b)))
    assert checked > 2500 and reach > 690.0


def test_cv_derivative_kernel_matches_mpmath_and_rows_equal_their_one_row_calls():
    """g, dg/dc_v and d2g/dc_v2 of the unit-amplitude pair current against
    60-digit mpmath derivatives at the same float inputs, to 1e-12 relative
    plus the rounding of chi carried through its condition number; each row
    of an (m, n) call is its one-row call bit for bit; the derivatives are
    nan exactly where sge_jacobian raises."""
    mpmath = pytest.importorskip("mpmath")
    u = 2.0**-53
    rng = np.random.default_rng(61)
    e_t = rng.uniform(0.3, 3.0, (6, 1))
    c_v = rng.uniform(0.3, 3.0, (6, 1))
    es = np.geomspace(0.05, 50.0, 40)
    rows = sge_cv_derivatives_array(es, e_t, c_v)
    for i in range(6):
        alone = sge_cv_derivatives_array(es, e_t[i : i + 1], c_v[i : i + 1])
        for got, one in zip(rows, alone):
            assert np.array_equal(got[i : i + 1], one)
    with mpmath.workdps(60):
        for i in range(6):
            for k, e in enumerate(es.tolist()):
                def g(cv, e=e, et=float(e_t[i, 0])):
                    chi = et * cv / mpmath.mpf(e)
                    return mpmath.cosh(mpmath.sqrt(2 / chi) - mpmath.sqrt(chi)) * mpmath.exp(-chi)

                cv = mpmath.mpf(float(c_v[i, 0]))
                chi = float(e_t[i, 0] * c_v[i, 0] / e)
                tol = 1e-12 + 4.0 * u * (math.sqrt(2.0 / chi) + math.sqrt(chi) + chi) ** 2
                for order, got in enumerate(rows):
                    ref = float(mpmath.diff(g, cv, order))
                    assert abs(got[i, k] - ref) <= tol * abs(ref), (i, e, order, got[i, k], ref)
    # out of the Jacobian's range: g stays the overflow-safe current, its derivatives are nan
    g, dg, d2g = sge_cv_derivatives_array(np.array([1e-7, 1e-6, 2e-6]), 1.0, 1.0)
    assert np.isfinite(g).all() and np.isnan(dg[:2]).all() and np.isnan(d2g[:2]).all()
    assert np.isfinite(dg[2]) and np.isfinite(d2g[2])
