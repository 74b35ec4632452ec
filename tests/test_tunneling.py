import dataclasses
import decimal
import hashlib
import inspect
import math
import sys

import numpy as np
import pytest

from cdwtunnel import numerics, tunneling
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


def test_l_grid_points_are_pinned_bit_for_bit(monkeypatch):
    """The (norm_c, t_if_analytic, t_if_simplified) rows of a seeded L grid,
    built as the CLI and perfbench's l_grid build them, hashed: a change to
    the per-point path that moves any bit fails here.  With alpha = 1/L the
    cosh argument and exponent depend on r = L/(2 x_bar) alone, so r spans
    all three branches of ``_cosh_times_exp``.  The digest holds for one libm:
    another may round exp, cosh or erf differently."""
    calls = []
    kernel = tunneling._cosh_times_exp

    def recorded(arg, expo):
        calls.append((arg, expo))
        return kernel(arg, expo)

    monkeypatch.setattr(tunneling, "_cosh_times_exp", recorded)
    rng = np.random.default_rng(2028)
    rows = []
    for n1s in (np.ones(1000), rng.uniform(0.8, 1.0, 1000)):
        ls = 10.0 ** rng.uniform(math.log10(0.5), math.log10(50.0), n1s.size)
        rs = 10.0 ** rng.uniform(-4.5, 3.2, n1s.size)
        m_stars = rng.uniform(0.5, 2.0, n1s.size)
        for l, r, n1, m_star in zip(ls.tolist(), rs.tolist(), n1s.tolist(), m_stars.tolist()):
            spec_i, spec_f = transport_pair_specs(l)
            x_bar = l / (2.0 * r)
            inputs = MatrixElementInputs(x_bar, l, spec_i.alpha, n1, spec_i.norm_c, spec_f.norm_c, m_star)
            rows.append((spec_f.norm_c, t_if_analytic(inputs), t_if_simplified(inputs)))
    far = [abs(arg) > numerics._COSH_DIRECT_LIMIT for arg, _ in calls]
    shifted = [not f and expo < numerics._EXP_NORMAL_MIN for f, (_, expo) in zip(far, calls)]
    direct = len(calls) - sum(far) - sum(shifted)
    assert len(calls) == 4000 and min(sum(far), sum(shifted), direct) > 100
    assert hashlib.sha256(np.array(rows).tobytes()).hexdigest() == (
        "71a36f94d4049814d0a58fe79ff5fbaf1cb14f759b9f288cf92e585af30b864f"
    )


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


INPUT_FIELDS = ("x_bar", "l", "alpha", "n1", "c1_norm", "c2_norm", "m_star")
GOOD_INPUTS = dict(x_bar=1.5, l=8.0, alpha=0.125, n1=0.9, c1_norm=1.25, c2_norm=0.75, m_star=2.0)


def _raised(build):
    with pytest.raises(Exception) as exc:
        build()
    return type(exc.value), str(exc.value)


def test_inputs_validation():
    # the constructor and dataclasses.replace name each bad field with the same ValueError
    good = MatrixElementInputs(**GOOD_INPUTS)
    for name in INPUT_FIELDS:
        for value in (math.nan, math.inf, -math.inf, 0.0, -1.0):
            expected = (ValueError, f"{name} must be positive and finite")
            assert _raised(lambda: MatrixElementInputs(**{**GOOD_INPUTS, name: value})) == expected
            assert _raised(lambda: dataclasses.replace(good, **{name: value})) == expected
    expected = (ValueError, "n1 must lie in (0, 1]")
    assert _raised(lambda: MatrixElementInputs(**{**GOOD_INPUTS, "n1": 1.5})) == expected
    assert _raised(lambda: dataclasses.replace(good, n1=1.5)) == expected
    # the first bad field in field order is named, and every field's sign and
    # finiteness come before n1's upper bound
    bad = {**GOOD_INPUTS, "alpha": 0.0, "m_star": math.nan}
    assert _raised(lambda: MatrixElementInputs(**bad)) == (ValueError, "alpha must be positive and finite")
    bad = {**GOOD_INPUTS, "n1": 1.5, "m_star": -1.0}
    assert _raised(lambda: MatrixElementInputs(**bad)) == (ValueError, "m_star must be positive and finite")


def test_inputs_reject_a_non_number_as_math_isfinite_does():
    # a string is a TypeError, an int beyond the double range an OverflowError
    for value in ("1.0", 10**400):
        expected = _raised(lambda: math.isfinite(value))
        assert expected[0] in (TypeError, OverflowError)
        for name in INPUT_FIELDS:
            assert _raised(lambda: MatrixElementInputs(**{**GOOD_INPUTS, name: value})) == expected
    # a Decimal nan, whose comparisons with a float raise, is named as a float nan is
    for name in INPUT_FIELDS:
        expected = (ValueError, f"{name} must be positive and finite")
        assert _raised(lambda: MatrixElementInputs(**{**GOOD_INPUTS, name: decimal.Decimal("nan")})) == expected
    # an int just above the largest double converts to it, so it is finite
    assert MatrixElementInputs(**{**GOOD_INPUTS, "x_bar": int(sys.float_info.max) + 1}).x_bar > sys.float_info.max


def test_inputs_are_a_frozen_value_record():
    inputs = MatrixElementInputs(**GOOD_INPUTS)
    assert [f.name for f in dataclasses.fields(MatrixElementInputs)] == list(INPUT_FIELDS)
    # the hand-written __init__ takes the fields in order, with the fields' defaults
    params = inspect.signature(MatrixElementInputs).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(MatrixElementInputs)
    ]
    assert repr(inputs) == (
        "MatrixElementInputs(x_bar=1.5, l=8.0, alpha=0.125, n1=0.9, c1_norm=1.25, c2_norm=0.75, m_star=2.0)"
    )
    twin = MatrixElementInputs(*GOOD_INPUTS.values())
    assert twin == inputs and twin is not inputs and hash(twin) == hash(inputs)
    assert dataclasses.replace(inputs, n1=1.0) != inputs
    assert dataclasses.astuple(MatrixElementInputs(1.5, 8.0, 0.125)) == (1.5, 8.0, 0.125, 1.0, 1.0, 1.0, 1.0)
    for name in INPUT_FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(inputs, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(inputs, name)
    assert dataclasses.asdict(inputs) == GOOD_INPUTS


def test_inputs_store_the_passed_objects_in_field_order():
    huge = int(sys.float_info.max) + 1
    defaults = {p.name: p.default for p in inspect.signature(MatrixElementInputs).parameters.values()}
    required = {name: GOOD_INPUTS[name] for name in INPUT_FIELDS[:3]}
    builds = [
        (GOOD_INPUTS, lambda: MatrixElementInputs(*GOOD_INPUTS.values())),
        (GOOD_INPUTS, lambda: MatrixElementInputs(**GOOD_INPUTS)),
        ({**defaults, **required}, lambda: MatrixElementInputs(*required.values())),
        ({**GOOD_INPUTS, "x_bar": huge}, lambda: MatrixElementInputs(**{**GOOD_INPUTS, "x_bar": huge})),
    ]
    for passed, build in builds:
        inputs = build()
        assert list(vars(inputs)) == list(INPUT_FIELDS)
        assert all(vars(inputs)[name] is passed[name] for name in INPUT_FIELDS)
        assert vars(inputs) == dataclasses.asdict(inputs)


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


def test_oracle_says_an_overlap_below_its_tolerance_is_not_resolved():
    # |T| ~ 1.8e-20 is a normal double, but far below the quadrature's resolution
    spec_i = WavefunctionalSpec.normalized(1.0, 2.0, center=0.0)
    spec_f = WavefunctionalSpec.normalized(1.0, 2.0, center=1e-20)
    with pytest.raises(ValueError) as info:
        t_if_single_mode_oracle(spec_i, spec_f)
    assert str(info.value) == (
        "overlap |T| = 0 of the states centered at 0.0 and 1e-20 lies below the normal double range;"
        " at absolute tolerance tol = 1e-11 the quadrature resolves no |T| below 5e-12"
    )


@pytest.mark.filterwarnings("error")
def test_oracle_rejects_overlap_above_normal_range():
    # 2 m* = 2e-320 is subnormal: dividing the normal overlap by it overflows to inf
    with pytest.raises(ValueError, match=r"\|T\| = inf .* lies above the normal double range"):
        t_if_single_mode_oracle(*transport_pair_specs(2.0), m_star=1e-320)


def test_oracle_rejects_a_mass_that_is_not_positive():
    pair = transport_pair_specs(2.0)
    for m_star in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^m_star must be positive$"):
            t_if_single_mode_oracles([pair[0]], [pair[1]], m_star=m_star)


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
    with pytest.raises(ValueError, match="barrier point u0 lies above the integration window") as info:
        t_if_single_mode_oracle(spec_i, spec_f)
    assert info.value.member == 0


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
    with pytest.raises(ValueError, match=r"^overlap \|T\| = 0 of the states centered at 0\.0 and 1000006\.") as info:
        t_if_single_mode_oracles([s[0] for s in specs], [s[1] for s in specs])
    assert info.value.member == 1
    with pytest.raises(ValueError, match="got 2 initial and 1 final states"):
        t_if_single_mode_oracles([specs[0][0]] * 2, [specs[0][1]])
    assert t_if_single_mode_oracles([], []).shape == (0,)


def test_oracle_stops_on_a_non_finite_integrand():
    # norms far beyond any norm_constant value: psi_i psi_f overflows, and the
    # quadrature names the node in its first round instead of bisecting to its depth limit
    spec_i = WavefunctionalSpec(alpha=1.0, center=0.0, norm_c=1e288)
    spec_f = WavefunctionalSpec(alpha=1.0, center=1.0, norm_c=1e288)
    with pytest.raises(QuadratureError, match=r"^integrand returned nan at x = 0\.5") as alone:
        t_if_single_mode_oracle(spec_i, spec_f)
    assert alone.value.member == 0
    # behind a good pair, the same error names pair 1
    good_i, good_f = transport_pair_specs(2.0)
    with pytest.raises(QuadratureError) as family:
        t_if_single_mode_oracles([good_i, spec_i], [good_f, spec_f])
    assert str(family.value) == str(alone.value)
    assert family.value.member == 1


def test_oracle_window_of_a_width_near_the_double_maximum_raises_no_warning():
    # 2 alpha overflows for alpha = 1e308; the window is formed in the oracle's
    # error-state scope, so each pair ends in a reported error, not a RuntimeWarning
    # (an error under this suite's filterwarnings)
    spec_i = WavefunctionalSpec(alpha=1e308, center=0.0, norm_c=1.0)
    with pytest.raises(QuadratureError, match=r"^integrand returned nan at x = 5\.0108") as info:
        t_if_single_mode_oracle(spec_i, WavefunctionalSpec(alpha=1e308, center=1e-154, norm_c=1.0))
    assert info.value.member == 0
    with pytest.raises(ValueError, match=r"^overlap \|T\| = 0 of the states centered at 0\.0 and 1\.0 lies below"):
        t_if_single_mode_oracle(spec_i, WavefunctionalSpec(alpha=1e308, center=1.0, norm_c=1.0))


def _oracle_quadrature_with_precomputed_coefficients(specs_i, specs_f, m_star=1.0, tol=1e-11):
    """The oracle's unchecked |T| per pair, with 4 a^2 and 2 a precomputed per pair
    and an error-state scope of its own in every integrand round."""
    ai, mi, ci = (np.array([getattr(s, name) for s in specs_i], dtype=float) for name in ("alpha", "center", "norm_c"))
    af, mf, cf = (np.array([getattr(s, name) for s in specs_f], dtype=float) for name in ("alpha", "center", "norm_c"))
    distinct = (ai != af) | (mi != mf)
    u0 = 0.5 * (mi + mf)
    hi = np.where(distinct, np.maximum(mi, mf) + 12.0 * (1.0 / np.sqrt(2.0 * np.minimum(ai, af))), u0)
    with np.errstate(over="ignore"):
        ai_sq4, af_sq4 = 4.0 * ai * ai, 4.0 * af * af
        ai2, af2 = 2.0 * ai, 2.0 * af

    def integrand(u, n):
        di = u - mi[n]
        df = u - mf[n]
        with np.errstate(over="ignore", invalid="ignore"):
            pi_ = ci[n] * np.exp(-ai[n] * di * di)
            pf = cf[n] * np.exp(-af[n] * df * df)
            ppi = pi_ * (ai_sq4[n] * di * di - ai2[n])
            ppf = pf * (af_sq4[n] * df * df - af2[n])
            return np.where((pi_ == 0.0) | (pf == 0.0), 0.0, pi_ * ppf - pf * ppi)

    with np.errstate(over="ignore"):
        return np.abs(numerics.integrate_family(integrand, u0, hi, float(tol))) / (2.0 * float(m_star))


def _outcome(oracle, pairs, m_star, tol):
    """|T| of the pairs as bytes, or the (type, message, member) of the error the oracle raises."""
    try:
        return oracle([p[0] for p in pairs], [p[1] for p in pairs], m_star, tol).tobytes()
    except (QuadratureError, ValueError) as exc:
        return type(exc), str(exc), exc.member


def test_oracle_gives_the_precomputed_coefficient_form_bit_for_bit():
    delta = TWO_PI
    # the oracle-shape sweep's pairs
    pairs = []
    for x in np.linspace(2.0, 12.5, 15).tolist():
        alpha = 2.0 * x / delta**2
        pairs.append((WavefunctionalSpec.normalized(alpha, 1.0 / alpha), WavefunctionalSpec.normalized(alpha, 1.0 / alpha, delta)))
    # a 60-pair grid of widths, width ratios and center offsets
    for alpha in np.geomspace(0.1, 10.0, 5).tolist():
        for ratio in (1.0, 1.5, 3.0):
            for offset in (0.5, 2.0, delta, 7.0):
                pairs.append((WavefunctionalSpec(alpha, -0.3, 1.3), WavefunctionalSpec(alpha * ratio, offset - 0.3, 0.8)))
    # widths where 4 a^2 overflows (from a ~ 6.7e153 up), so the polynomials are inf;
    # |T| grows like sqrt(a), and so does the tolerance
    huge = []
    for alpha in (1e150, 3e152, 6e153, 7e153, 1e155, 1e200, 1e250, 1e300):
        width = 1.0 / math.sqrt(alpha)
        for ratio, offset in ((1.0, 0.5), (1.0, 2.0), (2.0, 0.0), (4.0, 1.0)):
            huge.append((WavefunctionalSpec(alpha, 0.0, 1.0), WavefunctionalSpec(alpha * ratio, offset * width, 1.0)))
        # a wide final state: the narrow Gaussian underflows to 0 on every node, and
        # zeroes the integrand where its polynomial is inf
        huge.append((WavefunctionalSpec(alpha, 0.0, 1.0), WavefunctionalSpec(1e100, 0.0, 1.0)))
    outcomes = set()
    for m_star in (1.0, 0.37):
        for pair in pairs + huge:
            tol = 1e-11 * max(1.0, math.sqrt(pair[0].alpha))
            got = _outcome(t_if_single_mode_oracles, [pair], m_star, tol)
            want = _outcome(_oracle_quadrature_with_precomputed_coefficients, [pair], m_star, tol)
            if got[0] is ValueError:
                # the range check, which both forms share, rejected this |T|
                assert not sys.float_info.min <= np.frombuffer(want)[0] < math.inf
                outcomes.add(("out of range", pair[0].alpha > 1e100))
            else:
                assert got == want
                outcomes.add(("error" if isinstance(got, tuple) else "value", pair[0].alpha > 1e100))
        assert _outcome(t_if_single_mode_oracles, pairs, m_star, 1e-11) == _outcome(
            _oracle_quadrature_with_precomputed_coefficients, pairs, m_star, 1e-11
        )
    # values at ordinary and huge widths, the quadrature errors of inf polynomials,
    # and the |T| = 0 of Gaussians that underflow wherever their polynomials are inf
    assert outcomes == {("value", False), ("value", True), ("error", True), ("out of range", True)}
