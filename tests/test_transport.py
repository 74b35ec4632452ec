import math

import numpy as np
import pytest

from cdwtunnel import numerics
from cdwtunnel.transport import (
    CONVENTIONS,
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


@pytest.mark.filterwarnings("error")
def test_pair_separation_domain():
    with pytest.raises(ValueError):
        pair_separation(0.0, TransportParams())
    with pytest.raises(ValueError):
        pair_separation(-2.0, TransportParams())
    # an L outside the positive doubles names E: 1 / E overflows at the smallest
    # subnormal field, and 2 delta_s / e_star overflows
    with pytest.raises(ValueError, match=r"^separation L = 2 delta_s / \(e_star E\) is inf at E = 5e-324, not a"):
        pair_separation(5e-324, TransportParams())
    with pytest.raises(ValueError, match=r" is inf at E = 2\.0, not a positive finite double$"):
        pair_separation(2.0, TransportParams(delta_s=1e308))
    # (2e-300) (1 / 1e300) underflows to 0
    with pytest.raises(ValueError, match=r" is 0\.0 at E = 1e\+300, not a positive finite double$"):
        pair_separation(1e300, TransportParams(delta_s=1e-300))
    # just inside: a large finite L, and a subnormal one, are returned
    assert pair_separation(1e-300, TransportParams()) == 2.0 * (1.0 / 1e-300)
    assert pair_separation(1e300, TransportParams(delta_s=1e-20)) == 2e-20 * (1.0 / 1e300) > 0.0



def test_sge_reference_value():
    tp = TransportParams(c_tilde1=1.0, c_v=1.0, e_t=1.0)
    assert current_sge(1.0, tp) == pytest.approx(SGE_CHI_ONE, rel=1e-13)
    tp3 = TransportParams(c_tilde1=3.0)
    assert current_sge(1.0, tp3) == pytest.approx(3.0 * SGE_CHI_ONE, rel=1e-13)


def test_sge_vanishes_at_small_field():
    tp = TransportParams()
    assert current_sge(1e-6, tp) == 0.0  # underflows, mathematically ~1e-433000


@pytest.mark.parametrize("convention", ["printed", "substituted"])
def test_sge_is_zero_where_e_t_c_v_over_e_overflows(convention):
    # chi = E_T c_v / E leaves the double range: arg and expo are -inf, and the
    # current is 0.0 rather than exp(inf - inf) = nan (RuntimeWarnings fail here)
    tp = TransportParams()
    for e, params in [(1e-300, tp), (1e-310, tp), (1e-320, tp), (1.0, TransportParams(e_t=1e300, c_v=1e10))]:
        assert current_sge(e, params, convention) == 0.0
    with np.errstate(divide="ignore", over="ignore"):
        chi = 1.0 / np.array([1.0, 1e-300, 1e-310, 5e-324])
    args = np.concatenate([np.sqrt(2.0 / chi) - np.sqrt(chi), [np.inf, np.nan, 40.0, 0.5]])
    expos = np.concatenate([-chi, np.full(4, -np.inf)])
    # the kernel as the current laws call it, with |arg| and cosh(arg) taken once
    with np.errstate(over="ignore"):
        values = numerics._cosh_times_exp_of(np.abs(args), np.cosh(args), expos).tolist()
    assert values[0] == pytest.approx(SGE_CHI_ONE, rel=1e-15) and values[1:] == [0.0] * 7


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
        g, dg, _ = sge_cv_derivatives_array(es, e_t, c_v)
        got["d_ct1"], got["d_cv"] = g, c_tilde1 * dg
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


def test_cv_derivative_kernel_current_is_the_pair_current_on_every_branch():
    """The g of the c_v-derivative kernel is ``current_sge_array`` at unit
    amplitude bit for bit, on fields that reach every branch of the cosh
    product: direct, deep underflow (exp(-chi) below the normal range), far
    (|arg| > 35, on both sides) and chi overflowing to inf (g = 0)."""
    es = np.concatenate([np.geomspace(5e-324, 1e-300, 50), np.geomspace(1e-5, 1e5, 2001)])
    reached = set()
    for e_t, c_v in [(1.0, 1.0), (0.3, 0.7), (2.5, 3.0), (1e3, 7.0)]:
        g, _, _ = sge_cv_derivatives_array(es, e_t, c_v)
        assert np.array_equal(g, current_sge_array(es, e_t, c_v, 1.0, False))
        with np.errstate(over="ignore", divide="ignore"):
            chi = e_t * c_v / es
        near = np.abs(np.sqrt(2.0 / chi) - np.sqrt(chi)) <= 35.0
        deep = near & (-chi < math.log(np.finfo(float).tiny))
        branches = {"direct": near & ~deep, "deep": deep, "far": ~near & (chi < np.inf), "inf": chi == np.inf}
        reached |= {name for name, hit in branches.items() if hit.any()}
        assert np.all(g[chi == np.inf] == 0.0)
    assert reached == {"direct", "deep", "far", "inf"}


def test_cv_derivative_kernel_never_returns_a_negative_g(tmp_path, monkeypatch):
    """g = cosh(arg) exp(-chi) is +0 or more, or nan, for chi from 1e-300 to
    1e300: on the direct branch, where exp(-chi) underflows, on the far
    branch (|arg| > 35) and where g itself overflows to inf.  So a row's
    max g is its max |g| bit for bit, which the fit's scaling relies on."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    from cdwtunnel.transport import _sge_cv_derivatives

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    # chi uniform in its exponent, or as hypothesis draws floats
    chis = st.floats(-300.0, 300.0).map(lambda x: 10.0**x) | st.floats(1e-300, 1e300)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.lists(chis, min_size=1, max_size=40))
    # chi of 1e-300 overflows g, 1e-5 takes the far branch, 1 the direct one,
    # 800 underflows exp(-chi) and 1e300 underflows g to 0
    @example([1e-300, 1e-5, 1.0, 800.0, 1e300])
    def run(chis):
        chi = np.array([chis])
        # chi = c_v e_t / E exactly, with E = e_t = 1
        with np.errstate(all="ignore"):
            g, _, _ = _sge_cv_derivatives(np.ones(chi.size), 1.0, chi)
        assert not np.signbit(g[~np.isnan(g)]).any()
        assert np.array_equal(np.maximum.reduce(g, axis=1), np.maximum.reduce(np.abs(g), axis=1), equal_nan=True)

    run()


def _zener_masked(es, e_t, g_p):
    """The Zener law as a masked scatter: zeros, then the law gathered and scattered above E_T."""
    out = np.zeros_like(es)
    above = ~(es <= e_t)
    ea = es[above]
    with np.errstate(all="ignore"):
        out[above] = g_p * (ea - e_t) * np.exp(-e_t / ea)
    return out


def _cosh_times_exp_masked(a, cosh, expo):
    """``numerics._cosh_times_exp_of`` with its rare path as four masks and three scatters."""
    near = a <= numerics._COSH_DIRECT_LIMIT
    deep = expo < numerics._EXP_NORMAL_MIN
    if near.all() and not deep.any():
        return cosh * np.exp(expo)
    out = np.empty_like(a)
    deep &= near
    direct = near & ~deep
    out[direct] = cosh[direct] * np.exp(expo[direct])
    out[deep] = cosh[deep] * np.exp(expo[deep] + numerics._EXP_SHIFT) * numerics._EXP_UNSHIFT
    far = ~near
    with np.errstate(over="ignore", invalid="ignore"):
        out[far] = np.exp(a[far] + expo[far] - numerics._LN2)
    out[expo == -np.inf] = 0.0
    return out


def _edge_mix(rng, edges, draw, n=400):
    """n values in a seeded order: n // 2 picked from ``edges``, and the n // 2 values of ``draw(n // 4)``."""
    return rng.permutation(np.concatenate([rng.choice(np.asarray(edges, dtype=float), n // 2), draw(n // 4)]))


def test_selections_give_the_masked_forms_bits_on_every_branch():
    rng = np.random.default_rng(30)
    tiny, big = 5e-324, np.finfo(float).max
    cut, normal_min = numerics._COSH_DIRECT_LIMIT, numerics._EXP_NORMAL_MIN
    # |arg| near (<= 35), at and past the cut, far, infinite and nan; expo in range,
    # deep (exp subnormal), past exp's underflow, -inf, nan, and a few positive ones
    arg_edges = [0.0, -0.0, tiny, -tiny, 1.0, cut, -cut, np.nextafter(cut, np.inf), 40.0, 710.6, 1e300, np.inf, -np.inf, np.nan]
    expo_edges = [0.0, -0.0, -tiny, -1.0, -700.0, normal_min, np.nextafter(normal_min, -np.inf), -720.0, -745.2, -746.0, -800.0, -1e300, -big, -np.inf, np.nan, 1.0, 800.0]
    args = _edge_mix(rng, arg_edges, lambda n: np.concatenate([rng.uniform(-60.0, 60.0, n), 10.0 ** rng.uniform(-300.0, 300.0, n)]))
    expos = _edge_mix(rng, expo_edges, lambda n: np.concatenate([-rng.uniform(0.0, 800.0, n), -(10.0 ** rng.uniform(-300.0, 300.0, n))]))
    with np.errstate(all="ignore"):
        a, cosh = np.abs(args), np.cosh(args)
        whole = numerics._cosh_times_exp_of(a, cosh, expos)
        assert whole.tobytes() == _cosh_times_exp_masked(a, cosh, expos).tobytes()
        # one element at a time, which also takes the fast path
        for k in range(a.size):
            one = slice(k, k + 1)
            assert numerics._cosh_times_exp_of(a[one], cosh[one], expos[one]).tobytes() == whole[one].tobytes()
    near, deep, far = a <= cut, expos < normal_min, a > cut
    hit = [near & ~deep, near & deep, far & np.isfinite(expos), expos == -np.inf, np.isnan(whole)]
    assert all(h.any() for h in hit)

    for e_t in (1.0, 0.3, tiny, 1e-300, 1e300):
        es = _edge_mix(rng, [np.nan, np.inf, -np.inf, 0.0, -0.0, tiny, 1e308, big, e_t, np.nextafter(e_t, 0.0), np.nextafter(e_t, np.inf)],
                       lambda n: np.concatenate([e_t * rng.uniform(0.0, 3.0, n), 10.0 ** rng.uniform(-320.0, 308.0, n)]))
        for g_p in (1.0, 5.0, tiny, 1e300):
            got = current_zener_array(es, e_t, g_p)
            assert got.tobytes() == _zener_masked(es, e_t, g_p).tobytes()
            assert np.isnan(got[np.isnan(es)]).all()
            below = es <= e_t
            assert got[below].tobytes() == np.zeros(int(below.sum())).tobytes()


def test_sge_log_and_matrix_element_form_give_a_number_or_value_error(tmp_path, monkeypatch):
    """Over every positive double field the log law and the matrix-element form return
    a float that is not nan, or raise ValueError naming E; neither leaks a bare
    OverflowError or ZeroDivisionError, and a chi that overflows gives ln I = -inf."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    tps = {"default": TransportParams(), "c_v tiny": TransportParams(c_v=5e-324), "c_v huge": TransportParams(c_v=1e300)}
    fields = st.floats(-323.3, 308.2).map(lambda x: 10.0**x) | st.floats(5e-324, 1.7e308, allow_subnormal=True)

    def number_or_value_error(fn, e, *args):
        try:
            v = fn(e, *args)
        except ValueError as exc:
            assert repr(e) in str(exc)
        else:
            assert isinstance(v, float) and not math.isnan(v)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(fields, st.sampled_from(sorted(tps)))
    # chi = inf, cosh overflow below and above threshold, chi underflowing to 0
    @example(1e-310, "default")
    @example(1e-7, "default")
    @example(1e7, "default")
    @example(3.0, "c_v tiny")
    def run(e, name):
        tp = tps[name]
        for convention in CONVENTIONS:
            number_or_value_error(current_sge_log, e, tp, convention)
        number_or_value_error(sge_from_matrix_element_form, e, tp)

    run()
    tp = TransportParams()
    for convention in CONVENTIONS:
        assert current_sge_log(1e-310, tp, convention) == -math.inf
        assert current_sge(1e-310, tp, convention) == 0.0
        with pytest.raises(ValueError, match="at E = 3.0"):
            current_sge_log(3.0, TransportParams(c_v=5e-324), convention)
    for e, params in [(1e-7, tp), (1e7, tp), (3.0, TransportParams(c_v=5e-324)), (1e-310, tp)]:
        with pytest.raises(ValueError, match=f"at E = {e!r}$"):
            sge_from_matrix_element_form(e, params)
