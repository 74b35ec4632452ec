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
    l_over_x,
    pair_separation,
    reference_displacement,
    sge_from_matrix_element_form,
    tunneling_onset,
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


def test_onset_is_field_independent():
    # e* E L collapses to 2 Delta_s under the separation law
    tp = TransportParams(delta_s=1.0, e_star=1.0, eps_g=1.0)
    assert all(tunneling_onset(float(e), tp) for e in np.geomspace(0.01, 100, 20))
    blocked = TransportParams(delta_s=1.0, e_star=1.0, eps_g=2.0 + 1e-9)
    assert not any(tunneling_onset(float(e), blocked) for e in np.geomspace(0.01, 100, 20))
    open_gap = TransportParams(eps_g=0.0)
    assert tunneling_onset(5.0, open_gap)


def test_reference_displacement():
    tp = TransportParams(e_charge=1.0, m_e=1.0, omega=1.0)
    assert reference_displacement(3.0, tp) == pytest.approx(3.0)
    assert reference_displacement(6.0, tp) == pytest.approx(2.0 * reference_displacement(3.0, tp))
    tp4 = TransportParams(e_charge=1.0, m_e=1.0, omega=4.0)
    assert reference_displacement(3.0, tp4) == pytest.approx(reference_displacement(3.0, tp) / 16.0)


def test_l_over_x():
    tp = TransportParams(c_v=1.0, e_t=1.0)
    assert l_over_x(1.0, tp) == pytest.approx(1.0)
    tp2 = TransportParams(c_v=2.5, e_t=1.3)
    assert l_over_x(tp2.c_v * tp2.e_t, tp2) == pytest.approx(1.0)
    for e in np.geomspace(0.1, 100, 20):
        assert l_over_x(float(e), tp2) * e == pytest.approx(tp2.c_v * tp2.e_t, rel=1e-15)


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
    assert series.label == "zener"


def test_curve_series_sge_positive_and_monotone():
    tp = TransportParams()
    es = np.linspace(tp.c_v * tp.e_t, 50.0, 2000)
    series = curve_series("sge", tp, es)
    assert series.label == "sge"
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
        CurveSeries([1.0, 2.0], [0.5, -0.5], label="x")
    series = CurveSeries([1.0, 2.0], [0.5, 0.7], label="x")
    assert series.points() == [(1.0, 0.5), (2.0, 0.7)]


def test_transport_params_validation():
    with pytest.raises(ValueError):
        TransportParams(e_t=0.0)
    with pytest.raises(ValueError):
        TransportParams(eps_g=-0.1)
    assert TransportParams(eps_g=0.0).eps_g == 0.0


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
