import dataclasses
import math

import numpy as np
import pytest

from cdwtunnel.numerics import QuadratureError
from cdwtunnel.tunneling import (
    MatrixElementInputs,
    t_if_analytic,
    t_if_simplified,
    t_if_single_mode_oracle,
    t_if_single_mode_oracles,
)
from cdwtunnel.verify import decay_slope
from cdwtunnel.wavefunctional import WavefunctionalSpec, transport_pair_specs

TWO_PI = 2.0 * math.pi
# mpmath: (1/2) cosh(3/2) e^(-4)
T18_REFERENCE = 0.021542942515590716


def _inputs(**kw):
    base = dict(x_bar=1.0, l=8.0, alpha=0.125, n1=1.0, c1_norm=1.0, c2_norm=1.0, m_star=1.0)
    base.update(kw)
    return MatrixElementInputs(**base)


def test_prefactor_at_unit_occupation():
    # n1 = 1 turns (n1^2 - n1^4/2) into exactly 1/2
    a = t_if_analytic(_inputs())
    s = t_if_simplified(_inputs())
    assert a == pytest.approx(0.5 * s, rel=1e-15)


def test_analytic_reference_value():
    assert t_if_analytic(_inputs()) == pytest.approx(T18_REFERENCE, rel=1e-13)


def test_alpha_doubling_scales_by_exponential():
    base = _inputs(alpha=0.125)
    doubled = _inputs(alpha=0.25)
    factor = math.exp(-0.125 * 8.0 * 8.0 / (2.0 * 1.0))
    assert t_if_analytic(doubled) == pytest.approx(t_if_analytic(base) * factor, rel=1e-12)
    assert t_if_simplified(doubled) == pytest.approx(t_if_simplified(base) * factor, rel=1e-12)


def test_ratio_is_half_across_random_inputs():
    rng = np.random.default_rng(41)
    checked = 0
    while checked < 30:
        x_bar = float(rng.uniform(0.1, 10.0))
        l = float(rng.uniform(0.5, 50.0))
        alpha = float(rng.uniform(0.02, 5.0))
        if alpha * l * l / (2.0 * x_bar) > 600.0:
            continue  # below the normal double range a quotient loses accuracy
        checked += 1
        inputs = MatrixElementInputs(
            x_bar=x_bar,
            l=l,
            alpha=alpha,
            n1=1.0,
            c1_norm=float(rng.uniform(0.1, 10.0)),
            c2_norm=float(rng.uniform(0.1, 10.0)),
            m_star=float(rng.uniform(0.1, 10.0)),
        )
        assert t_if_analytic(inputs) / t_if_simplified(inputs) == pytest.approx(0.5, abs=1e-12)


def test_occupation_factor_enters_exponent():
    # the full form carries n1^2 inside the exponential as well
    n1 = 0.9
    inputs = _inputs(n1=n1)
    pref = (n1**2 - 0.5 * n1**4) / 1.0
    arg = 2.0 * math.sqrt(1.0 / 16.0) - math.sqrt(8.0 / 2.0)
    expo = -0.125 * 8.0 * (n1**2 * 8.0 / 2.0)
    assert t_if_analytic(inputs) == pytest.approx(pref * math.cosh(arg) * math.exp(expo), rel=1e-13)


def test_far_separation_suppression():
    # alpha L > 1/sqrt(2): exponential decay beats the cosh growth; the
    # ladder stops where the value would underflow to an exact 0.0
    vals = [t_if_simplified(_inputs(l=l, alpha=1.0)) for l in (10.0, 15.0, 20.0, 25.0, 30.0, 35.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-200
    assert t_if_simplified(_inputs(l=240.0, alpha=1.0)) == 0.0


def test_normalization_scaling_is_linear():
    base = t_if_simplified(_inputs())
    assert t_if_simplified(_inputs(c1_norm=3.0)) == pytest.approx(3.0 * base, rel=1e-15)
    assert t_if_simplified(_inputs(c2_norm=5.0)) == pytest.approx(5.0 * base, rel=1e-15)
    assert t_if_analytic(_inputs(c1_norm=2.0, c2_norm=2.0)) == pytest.approx(
        4.0 * t_if_analytic(_inputs()), rel=1e-15
    )


def test_both_forms_strictly_decreasing_in_alpha():
    alphas = np.linspace(0.05, 2.0, 25)
    a_vals = [t_if_analytic(_inputs(alpha=float(a), n1=0.97)) for a in alphas]
    s_vals = [t_if_simplified(_inputs(alpha=float(a))) for a in alphas]
    assert all(y > 0.0 for y in a_vals + s_vals)
    assert all(b < a for a, b in zip(a_vals, a_vals[1:]))
    assert all(b < a for a, b in zip(s_vals, s_vals[1:]))


def test_inputs_validation():
    with pytest.raises(ValueError):
        _inputs(n1=1.2)
    with pytest.raises(ValueError):
        _inputs(l=-1.0)
    with pytest.raises(ValueError):
        _inputs(m_star=0.0)


def test_oracle_vanishes_for_identical_states():
    spec = WavefunctionalSpec.normalized(0.5, 2.0, center=1.0)
    assert t_if_single_mode_oracle(spec, spec) <= 1e-12


def test_oracle_is_zero_for_proportional_states():
    spec = WavefunctionalSpec.normalized(0.5, 2.0, center=1.0)
    for scale in (3.0, 7.3, 1e-200):
        other = dataclasses.replace(spec, norm_c=scale * spec.norm_c)
        assert t_if_single_mode_oracle(spec, other) == t_if_single_mode_oracle(other, spec) == 0.0


@pytest.mark.parametrize(
    "l, eps_plus, shown",
    [
        (2.0, 1e6, "|T| = 0 "),  # the final state sits far above the initial one
        (2.0 / 75.5, 1e-3, "|T| = 4.29e-320 "),  # narrow states: a subnormal overlap
    ],
)
def test_oracle_rejects_overlap_below_normal_range(l, eps_plus, shown):
    with pytest.raises(ValueError, match="lies below the normal double range") as info:
        t_if_single_mode_oracle(*transport_pair_specs(l, eps_plus))
    assert shown in str(info.value)


@pytest.mark.filterwarnings("error")
def test_oracle_rejects_overlap_above_normal_range():
    # 2 m* = 2e-320 is subnormal: dividing the normal overlap by it overflows to inf
    with pytest.raises(ValueError, match=r"\|T\| = inf .* lies above the normal double range"):
        t_if_single_mode_oracle(*transport_pair_specs(2.0), m_star=1e-320)


def test_oracle_symmetric_under_state_swap():
    spec_i = WavefunctionalSpec.normalized(0.4, 2.5, center=0.0)
    spec_f = WavefunctionalSpec.normalized(0.4, 2.5, center=TWO_PI)
    forward = t_if_single_mode_oracle(spec_i, spec_f)
    backward = t_if_single_mode_oracle(spec_f, spec_i)
    assert forward == pytest.approx(backward, rel=1e-10)


def test_oracle_matches_closed_form_overlap():
    """Independent check: for equal widths the integral from the midpoint is
    alpha * separation * Ci * Cf * exp(-alpha sep^2 / 2) / m*."""
    alpha, l, sep = 0.3, 1.0 / 0.3, 5.0
    spec_i = WavefunctionalSpec.normalized(alpha, l, center=0.0)
    spec_f = WavefunctionalSpec.normalized(alpha, l, center=sep)
    got = t_if_single_mode_oracle(spec_i, spec_f, tol=1e-13)
    want = alpha * sep * spec_i.norm_c * spec_f.norm_c * math.exp(-alpha * sep**2 / 2.0)
    assert got == pytest.approx(want, rel=1e-9)


def _wronskian_current(spec_i, spec_f, span=12.0):
    """The oracle's integral in closed form: the integrand psi_i psi_f'' -
    psi_f psi_i'' is d/du of W = psi_i psi_f' - psi_f psi_i', so |T| is
    |W(hi) - W(u0)| / (2 m*) on the oracle's default window, m* = 1."""
    u0 = 0.5 * (spec_i.center + spec_f.center)
    hi = max(spec_i.center, spec_f.center) + span / math.sqrt(2.0 * min(spec_i.alpha, spec_f.alpha))

    def w(u):
        psi_i = spec_i.norm_c * math.exp(-spec_i.alpha * (u - spec_i.center) ** 2)
        psi_f = spec_f.norm_c * math.exp(-spec_f.alpha * (u - spec_f.center) ** 2)
        slope_gap = 2.0 * spec_i.alpha * (u - spec_i.center) - 2.0 * spec_f.alpha * (u - spec_f.center)
        return psi_i * psi_f * slope_gap

    return abs(w(hi) - w(u0)) / 2.0


@pytest.mark.parametrize("l", [0.2, 0.5, 1.0, 1.2, 2.0, 5.0])
def test_oracle_matches_wronskian_on_transport_pairs(l):
    # below L = 1.5 the overlap peak is narrow and sits at the barrier point,
    # where the integrand itself vanishes
    specs = transport_pair_specs(l)
    got = t_if_single_mode_oracle(*specs)
    want = _wronskian_current(*specs)
    assert abs(got - want) <= 1e-11
    if want > 1e-8:
        assert abs(got - want) <= 1e-9 * want


def test_oracle_decay_slope_fixed_widths():
    # growing separation at fixed width: ln|T| = const + ln(sep) - alpha sep^2/2,
    # so the prefactor-aware regression recovers the unit decay slope
    alpha = 0.25
    l = 1.0 / alpha
    spec_template = WavefunctionalSpec.normalized(alpha, l, center=0.0)
    xs = np.linspace(2.0, 12.5, 12)
    ln_t = []
    for x in xs:
        sep = math.sqrt(2.0 * float(x) / alpha)
        spec_f = WavefunctionalSpec.normalized(alpha, l, center=sep)
        ln_t.append(math.log(t_if_single_mode_oracle(spec_template, spec_f, tol=1e-13)))
    slope = decay_slope(xs, np.array(ln_t))
    assert slope == pytest.approx(-1.0, abs=0.05)


def test_oracle_rejects_barrier_point_above_window():
    # adjacent doubles near 1e20: the 12-width margin is lost to rounding and
    # the rounded midpoint lands on the upper limit
    lo = math.nextafter(1e20, math.inf)
    spec_i = WavefunctionalSpec.normalized(0.5, 2.0, center=lo)
    spec_f = WavefunctionalSpec.normalized(0.5, 2.0, center=math.nextafter(lo, math.inf))
    with pytest.raises(ValueError, match="barrier point u0 lies above the integration window"):
        t_if_single_mode_oracle(spec_i, spec_f)


def test_oracle_family_equals_the_per_pair_loop_bit_for_bit():
    # the pairs of a matrix-element L grid, plus a proportional pair
    pairs = [transport_pair_specs(l) for l in np.linspace(2.0, 12.0, 25).tolist()]
    spec = WavefunctionalSpec.normalized(0.5, 2.0, center=1.0)
    pairs.insert(3, (spec, dataclasses.replace(spec, norm_c=3.0 * spec.norm_c)))
    for m_star in (1.0, 0.37):
        got = t_if_single_mode_oracles([p[0] for p in pairs], [p[1] for p in pairs], m_star=m_star)
        assert got.tolist() == [t_if_single_mode_oracle(*p, m_star=m_star) for p in pairs]
        assert got[3] == 0.0


def test_oracle_family_names_the_first_underflowing_pair():
    specs = [transport_pair_specs(2.0), transport_pair_specs(2.0, 1e6), transport_pair_specs(2.0 / 75.5)]
    with pytest.raises(ValueError, match=r"^overlap \|T\| = 0 of the states centered at 0\.0 and 1000006\."):
        t_if_single_mode_oracles([s[0] for s in specs], [s[1] for s in specs])
    with pytest.raises(ValueError, match="got 2 initial and 1 final states"):
        t_if_single_mode_oracles([specs[0][0]] * 2, [specs[0][1]])
    assert t_if_single_mode_oracles([], []).shape == (0,)


def test_oracle_stops_on_a_non_finite_integrand():
    # norms far beyond any norm_constant value: psi_i psi_f overflows, and the
    # quadrature names the node in its first round instead of bisecting to its depth limit
    spec_i = WavefunctionalSpec(alpha=1.0, center=0.0, norm_c=1e288)
    spec_f = WavefunctionalSpec(alpha=1.0, center=1.0, norm_c=1e288)
    with pytest.raises(QuadratureError, match=r"^member 0: integrand returned nan at x = 0\.5"):
        t_if_single_mode_oracle(spec_i, spec_f)
