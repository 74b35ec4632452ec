"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here at their stated values; measured errors come
from the independent oracle routes in ``cdwtunnel.verify`` or are computed
inline.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import math

import numpy as np
import pytest

from cdwtunnel import potential, transport, verify, wavefunctional

TWO_PI = 2.0 * math.pi


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def check_to_line(number, result):
    ok = report(f"criterion-{number} [{result.name}]", result.passed,
                f"measured {result.measured:.3e} vs tol {result.tolerance:.3e} ({result.detail})")
    assert ok
    return result


def test_criterion_01_normalization_identity():
    check_to_line(1, verify.run_check("normalization"))


def test_criterion_02_thin_wall_transform():
    check_to_line(2, verify.run_check("thin-wall-ft"))


def test_criterion_03_matrix_element_ratio():
    check_to_line(3, verify.run_check("ratio-18-19"))


def test_criterion_04_current_law_reconciliation():
    check_to_line(4, verify.run_check("sge-reconciliation"))


def test_criterion_05_zener_threshold_behavior():
    tp = transport.TransportParams()
    below = [transport.current_zener(float(e), tp) for e in np.linspace(0.01, tp.e_t, 500)]
    zero_below = all(v == 0.0 for v in below)
    continuous = transport.current_zener(tp.e_t * (1.0 + 1e-12), tp) <= 1e-11
    es = np.linspace(tp.e_t * (1.0 + 1e-8), 100.0 * tp.e_t, 10_000)
    vals = np.array([transport.current_zener(float(e), tp) for e in es])
    increasing = bool(np.all(np.diff(vals) > 0.0))
    ok = report(
        "criterion-5 [zener-threshold]",
        zero_below and continuous and increasing,
        f"zero below threshold: {zero_below}, continuous at threshold: {continuous}, "
        f"strictly increasing on 1e4-point grid: {increasing}",
    )
    assert ok


def test_criterion_06_part_one_small_field_limit():
    tp = transport.TransportParams()
    small = transport.current_sge(1e-6 * tp.e_t * tp.c_v, tp)
    ok = report(
        "criterion-6a [sge-small-field]",
        small < 1e-30 * tp.c_tilde1,
        f"I(1e-6 E_T c_v) = {small:.3e} < 1e-30 C~1",
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated bracket excludes the exact value: at E = 1e6 E_T c_v the ratio "
        "I / (C~1/2 e^(sqrt(2E/(E_T c_v)))) equals e^(-(sqrt(chi)+chi)) with chi = 1e-6, "
        "= 0.99899950..., which is below 0.999 by 5.0e-7; the bracket covers the "
        "sqrt(chi) = 1e-3 term but not the additional chi term in the exponent"
    ),
)
def test_criterion_06_part_two_large_field_asymptote():
    tp = transport.TransportParams()
    e = 1e6 * tp.e_t * tp.c_v
    # computed in log space; the current itself overflows double precision here
    log_ratio = transport.current_sge_log(e, tp) - (
        math.log(0.5 * tp.c_tilde1) + math.sqrt(2.0 * e / (tp.e_t * tp.c_v))
    )
    ratio = math.exp(log_ratio)
    ok = report(
        "criterion-6b [sge-large-field]",
        0.999 <= ratio <= 1.001,
        f"ratio at E = 1e6 E_T c_v is {ratio:.10f}, stated bracket [0.999, 1.001]",
    )
    assert ok


def test_criterion_07_zener_comparison_regression():
    first = verify.fig2b_fit()
    second = verify.fig2b_fit()
    deterministic = (
        np.array_equal(first[0].params, second[0].params)
        and first[3] == second[3]
    )
    assert report("criterion-7 [fig2b-determinism]", deterministic, "two runs bit-identical")
    check_to_line(7, verify.run_check("fig2b-fit"))


def test_criterion_08_energy_bound_sweep():
    check_to_line(8, verify.run_check("bogomolnyi-sweep"))


def test_criterion_09_topological_charge():
    worst_pair = 0.0
    for b in (0.5, 1.0, 2.0, 4.0):
        for l in (4.0, 8.0, 12.0):
            kp = wavefunctional.KinkPairProfile(x_a=-0.5 * l, x_b=0.5 * l, b=b)
            prof = wavefunctional.sample_profile(kp, half_width=20.0, n=1001)
            worst_pair = max(worst_pair, abs(potential.topological_charge(prof)))
    worst_kink = 0.0
    for b in (0.5, 1.0, 2.0, 4.0):
        xs = np.linspace(-40.0, 40.0, 2001)
        phis = math.pi * (1.0 + np.tanh(b * xs))
        q = potential.topological_charge(potential.FieldProfile(xs, phis))
        worst_kink = max(worst_kink, abs(q - 1.0))
    ok = report(
        "criterion-9 [topological-charge]",
        worst_pair <= 1e-12 and worst_kink <= 1e-9,
        f"worst pair |Q| = {worst_pair:.2e} (tol 1e-12), worst kink |Q-1| = {worst_kink:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_10_oracle_shape_agreement():
    xs, ln_o, ln_a = verify.oracle_shape_sweep()
    corr = float(np.corrcoef(ln_o, ln_a)[0, 1])
    slope = verify.decay_slope(xs, ln_o)
    ok = report(
        "criterion-10 [oracle-shape]",
        corr >= 0.99 and abs(slope + 1.0) <= 0.05,
        f"corr = {corr:.6f} (>= 0.99), decay slope = {slope:.4f} (within 5% of -1)",
    )
    assert ok


def test_criterion_11_fit_round_trip_and_erf():
    check_to_line(11, verify.run_check("fit-roundtrip"))
    check_to_line(11, verify.run_check("erf-quadrature"))
