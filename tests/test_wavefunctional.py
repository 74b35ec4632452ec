import dataclasses
import inspect
import math

import numpy as np
import pytest

from cdwtunnel.numerics import integrate_adaptive
from cdwtunnel.potential import PotentialParams, eval_extended_potential, topological_charge
from cdwtunnel.wavefunctional import (
    KinkPairProfile,
    WavefunctionalSpec,
    eval_wavefunctional,
    kink_pair_profile,
    norm_constant,
    sample_profile,
    thin_wall_ft,
    thin_wall_ft_oracle,
    transport_pair_specs,
)
from oracles import thin_wall_box

TWO_PI = 2.0 * math.pi
# mpmath: 2 sqrt(2) / pi^(3/2)
FT_L2_K_HALF_PI = 0.5079490874739278


def test_pair_midpoint_saturates():
    kp = KinkPairProfile(x_a=-5.0, x_b=5.0, b=5.0)
    assert kink_pair_profile(0.0, kp) == pytest.approx(2.0, abs=1e-10)


def test_pair_far_tails_cancel():
    kp = KinkPairProfile(x_a=-1.0, x_b=1.0, b=2.0)
    assert kink_pair_profile(1e6, kp) == pytest.approx(0.0, abs=1e-12)
    assert kink_pair_profile(-1e6, kp) == pytest.approx(0.0, abs=1e-12)


def test_pair_value_at_left_center():
    kp = KinkPairProfile(x_a=0.0, x_b=3.0, b=1.2)
    assert kink_pair_profile(0.0, kp) == pytest.approx(math.tanh(kp.b * kp.l), rel=1e-15)


# (x_a, x_b, b, half_width, n): narrow pair, wide shallow pair, the `profile`
# default, steep pair, and one bogomolnyi-sweep profile
ORACLE_GRIDS = [
    (0.0, 1e-3, 3.0, 40.0, 4001),
    (-20.0, 20.0, 0.3, 60.0, 10001),
    (-5.0, 5.0, 1.0, 15.0, 801),
    (-0.5, 0.5, 4.0, 25.0, 4001),
    (-7.5, 7.5, 0.5, 25.0, 4001),
]


@pytest.mark.parametrize("x_a, x_b, b, half_width, n", ORACLE_GRIDS)
def test_profile_matches_mpmath_in_tails_and_core(x_a, x_b, b, half_width, n):
    mpmath = pytest.importorskip("mpmath")
    kp = KinkPairProfile(x_a=x_a, x_b=x_b, b=b)
    prof = sample_profile(kp, half_width, n)
    worst = 0.0
    with mpmath.workdps(60):
        # sinh(bL)/(cosh u cosh v), not the tanh sum, which cancels even at 60 digits
        top = mpmath.sinh(mpmath.mpf(b) * (mpmath.mpf(x_b) - x_a))
        for x, phi in zip(prof.xs.tolist(), prof.phis.tolist()):
            u = mpmath.mpf(b) * (mpmath.mpf(x) - x_a)
            v = mpmath.mpf(b) * (x_b - mpmath.mpf(x))
            ref = top / (mpmath.cosh(u) * mpmath.cosh(v))
            worst = max(worst, float(abs(phi - ref) / ref))
    # conditioning of e^(-2|u|) under rounding of u: 2|u| eps, |u| up to 120
    assert worst <= 1e-13


def test_profile_symmetric_bounded_and_peaked_at_midpoint(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.floats(-3.0, 3.0), st.floats(-2.0, 2.0), st.floats(0.0, 1e4))
    def run(log_l, log_b, d):
        l, b = 10.0**log_l, 10.0**log_b
        kp = KinkPairProfile(x_a=-0.5 * l, x_b=0.5 * l, b=b)
        left, right = kink_pair_profile(-d, kp), kink_pair_profile(d, kp)
        assert left == right
        assert 0.0 <= right <= 2.0
        mid = 2.0 * math.tanh(0.5 * b * l)
        assert abs(kink_pair_profile(0.0, kp) - mid) <= 1e-15 * mid

    run()


_KP = KinkPairProfile(x_a=-2.0, x_b=3.0, b=1.7)
_POTENTIAL = PotentialParams(c1=1.3, c2=0.7)
_STATE = WavefunctionalSpec.normalized(0.4, 5.0, center=2.0)


@pytest.mark.parametrize(
    "kernel",
    [
        lambda x: kink_pair_profile(x, _KP),
        lambda x: eval_extended_potential(x, _POTENTIAL),
        lambda x: eval_wavefunctional(x, _STATE),
    ],
    ids=["kink-pair", "extended-potential", "wavefunctional"],
)
def test_one_kernel_for_points_and_grids(kernel):
    xs = np.concatenate([np.linspace(-40.0, 40.0, 2001), np.random.default_rng(5).normal(0.0, 8.0, 500)])
    on_grid = kernel(xs)
    assert on_grid.shape == xs.shape
    assert on_grid.tolist() == [float(kernel(x)) for x in xs.tolist()]


def test_pair_validation():
    with pytest.raises(ValueError):
        KinkPairProfile(x_a=1.0, x_b=1.0, b=1.0)
    with pytest.raises(ValueError):
        KinkPairProfile(x_a=0.0, x_b=1.0, b=0.0)


def test_pair_ends_must_be_finite():
    for end in (math.inf, -math.inf, math.nan):
        for kwargs in (dict(x_a=end, x_b=1.0, b=1.0), dict(x_a=0.0, x_b=end, b=1.0), dict(x_a=0.0, x_b=1.0, b=end)):
            with pytest.raises(ValueError, match="^kink-pair parameters must be finite$"):
                KinkPairProfile(**kwargs)


def test_thin_wall_ft_rejects_a_box_width_that_is_not_positive():
    for l in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^box width must be positive$"):
            thin_wall_ft(1.0, l)


def test_thin_wall_ft_is_never_a_silent_inf_or_nan():
    # a non-finite amplitude is named as an overflowing k L/2 is
    for k, l, half in [(0.0, math.inf, "nan"), (math.nan, 1.0, "nan"), (1.0, math.inf, "inf"), (math.inf, 2.0, "inf")]:
        message = f"box amplitude sin(k L/2)/k is undefined at k = {k!r}, L = {l!r}, where k L/2 = {half}"
        with pytest.raises(ValueError) as exc:
            thin_wall_ft(k, l)
        assert str(exc.value) == message


def test_sample_profile_charge_and_peak():
    kp = KinkPairProfile(x_a=-5.0, x_b=5.0, b=1.0)
    prof = sample_profile(kp, half_width=20.0, n=1001)  # odd n puts a node at the midpoint
    assert abs(topological_charge(prof)) <= 1e-12
    assert np.max(prof.phis) == pytest.approx(2.0 * math.tanh(kp.b * kp.l / 2.0), rel=1e-12)


def test_sample_profile_two_point_grid():
    kp = KinkPairProfile(x_a=0.0, x_b=1.0, b=1.0)
    prof = sample_profile(kp, half_width=2.0, n=2)
    assert len(prof) == 2
    assert prof.xs[0] == -2.0 and prof.xs[-1] == 3.0


def test_sample_profile_rejects_degenerate_grid():
    kp = KinkPairProfile(x_a=0.0, x_b=1.0, b=1.0)
    with pytest.raises(ValueError):
        sample_profile(kp, half_width=2.0, n=1)
    # numpy refuses 1e17 doubles with a MemoryError and 2**62 or 1e30 with a
    # ValueError; a count too large to allocate is a MemoryError either way
    for n in (10**17, 2**62, 10**30):
        with pytest.raises(MemoryError):
            sample_profile(kp, half_width=2.0, n=n)


def test_sample_profile_family_shares_one_window():
    kps = [KinkPairProfile(x_a=-1.0, x_b=2.0, b=b) for b in (0.5, 3.0)]
    family = sample_profile(iter(kps), half_width=2.0, n=7)
    assert family.phis.shape == (2, 7) and family.xs.tolist() == sample_profile(kps[0], 2.0, 7).xs.tolist()
    with pytest.raises(ValueError, match="at least one kink pair"):
        sample_profile([], half_width=2.0, n=7)
    with pytest.raises(ValueError, match=r"share one \(x_a, x_b\)"):
        sample_profile([kps[0], KinkPairProfile(x_a=-1.0, x_b=3.0, b=1.0)], half_width=2.0, n=7)


def test_sample_profile_rejects_a_window_outside_the_double_range():
    with pytest.raises(ValueError, match=r"window \[-1e\+308, 1e\+308\] leaves the double range"):
        sample_profile(KinkPairProfile(x_a=-1e308, x_b=1e308, b=1.0), half_width=15.0, n=5)
    with pytest.raises(ValueError, match="leaves the double range"):
        sample_profile(KinkPairProfile(x_a=0.0, x_b=1.0, b=1.0), half_width=1.7e308, n=5)


@pytest.mark.filterwarnings("error")
def test_kink_pair_profile_takes_its_limits_where_the_wall_argument_overflows():
    # b (x - x_a) overflows to +-inf; the profile is still 0 outside the pair, 2 inside, 1 on a kink
    kp = KinkPairProfile(x_a=0.0, x_b=1e200, b=1e200)
    xs = np.array([-15.0, 0.0, 1.0, 5e199, 1e200, 1e200 + 1e185])
    assert kink_pair_profile(xs, kp).tolist() == [0.0, 1.0, 2.0, 2.0, 1.0, 0.0]


def test_box_values_and_boundary():
    assert thin_wall_box(0.0, 4.0, 2.0) == 2.0
    assert thin_wall_box(2.0, 4.0, 2.0) == 2.0  # closed interval at |x| = l/2
    assert thin_wall_box(-2.0, 4.0, 2.0) == 2.0
    assert thin_wall_box(2.0000001, 4.0, 2.0) == 0.0


def test_pair_converges_to_box_away_from_walls():
    b, l = 50.0, 2.0
    kp = KinkPairProfile(x_a=-1.0, x_b=1.0, b=b)
    margin = 10.0 / b
    xs = np.concatenate(
        [
            np.linspace(-3.0, -1.0 - margin, 200),
            np.linspace(-1.0 + margin, 1.0 - margin, 200),
            np.linspace(1.0 + margin, 3.0, 200),
        ]
    )
    worst = max(
        abs(kink_pair_profile(float(x), kp) - thin_wall_box(float(x), l, 2.0)) for x in xs
    )
    assert worst <= 1e-8


def test_ft_small_k_limit():
    for l in (1.0, 2.0, 10.0):
        assert thin_wall_ft(0.0, l) == pytest.approx(math.sqrt(2.0 / math.pi) * l / 2.0)
        assert thin_wall_ft(1e-13, l) == thin_wall_ft(0.0, l)


def test_ft_zeros_at_harmonics():
    l = 5.0
    for n in (1, 2, 3):
        k = TWO_PI * n / l
        assert abs(thin_wall_ft(k, l)) <= 1e-15


def test_ft_vanishes_at_every_harmonic(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.integers(1, 1000), st.floats(-3.0, 3.0), st.sampled_from([1.0, -1.0]))
    def run(n, log_l, sign):
        l = 10.0**log_l
        assert abs(thin_wall_ft(sign * TWO_PI * n / l, l)) <= 1e-15 * l

    run()


def test_ft_reference_value():
    assert thin_wall_ft(math.pi / 2.0, 2.0) == pytest.approx(FT_L2_K_HALF_PI, abs=1e-12)


def test_ft_matches_box_transform_quadrature():
    for l in (1.0, 2.0, 5.0, 10.0):
        for k in np.linspace(0.01, 20.0, 12):
            closed = thin_wall_ft(float(k), l)
            direct = thin_wall_ft_oracle(float(k), l)
            assert abs(closed - direct) <= 1e-6 * abs(closed)


def test_ft_oracle_agrees_with_generic_quadrature():
    # the fused oracle must be the same computation as integrate_adaptive
    k, l = 3.3, 4.0
    direct = integrate_adaptive(lambda x: np.cos(k * x), -l / 2, l / 2, 1e-12)
    assert thin_wall_ft_oracle(k, l) == pytest.approx(
        direct / math.sqrt(TWO_PI), rel=1e-12
    )


def test_half_box_oracle_matches_the_whole_box_quadrature():
    # each route is within 1e-12 of the integral, so the two within 2e-12,
    # also where k L/2 is near a multiple of pi and the transform nearly vanishes
    rng = np.random.default_rng(20241019)
    ls = rng.uniform(0.5, 20.0, 40)
    ks = rng.uniform(0.01, 40.0, 40)
    harmonics = rng.integers(1, 20, 40)
    near = TWO_PI * harmonics / ls * (1.0 + rng.uniform(-1e-9, 1e-9, 40))
    ks, ls = np.concatenate([ks, near]), np.concatenate([ls, ls])
    half_box = thin_wall_ft_oracle(ks, ls)
    for k, l, got in zip(ks.tolist(), ls.tolist(), half_box.tolist()):
        whole = integrate_adaptive(lambda x: np.cos(k * x), -0.5 * l, 0.5 * l, 1e-12)
        assert abs(got - whole / math.sqrt(TWO_PI)) <= 2e-12 / math.sqrt(TWO_PI)


def test_ft_oracle_broadcasts_grids_as_one_family():
    ks = np.linspace(0.01, 20.0, 7)
    ls = np.array([1.0, 2.0, 5.0])[:, None]
    grid = thin_wall_ft_oracle(ks, ls)
    assert grid.shape == (3, 7)
    assert grid.tolist() == [[thin_wall_ft_oracle(k, l) for k in ks.tolist()] for l in (1.0, 2.0, 5.0)]
    assert type(thin_wall_ft_oracle(3.3, 4.0)) is float
    with pytest.raises(ValueError, match="box width must be positive"):
        thin_wall_ft_oracle(ks, np.array([1.0, 0.0])[:, None])


def test_norm_constant_small_alpha_limit():
    l = 3.0
    u_max = l / math.sqrt(TWO_PI)
    assert norm_constant(1e-12, l) == pytest.approx(u_max**-0.5, rel=1e-8)


def test_norm_constant_saturated_limit():
    alpha, l = 50.0, 10.0
    assert norm_constant(alpha, l) == pytest.approx(
        math.sqrt(2.0) * (2.0 * alpha / math.pi) ** 0.25, rel=1e-12
    )


def test_norm_constant_round_trip():
    for alpha in (0.1, 1.0, 10.0, 100.0):
        for l in (0.5, 5.0, 50.0):
            c = norm_constant(alpha, l)
            u_max = l / math.sqrt(TWO_PI)
            val = integrate_adaptive(
                lambda u: c * c * np.exp(-2.0 * alpha * u * u), 0.0, u_max, 1e-11
            )
            assert val == pytest.approx(1.0, abs=1e-8)


def test_norm_constant_rejects_bad_inputs():
    with pytest.raises(ValueError):
        norm_constant(0.0, 1.0)
    with pytest.raises(ValueError):
        norm_constant(1.0, -1.0)


@pytest.mark.parametrize(
    "alpha, l, message",
    [
        (math.inf, 1e-320, "alpha must be positive and finite"),
        (math.nan, 1.0, "alpha must be positive and finite"),
        (1.0, math.inf, "separation L must be positive and finite"),
        # 2 alpha overflows, so sqrt(pi / a) is 0
        (1e308, 1.0, "normalization integral is 0.0"),
        # pi / (2 alpha) overflows at a subnormal alpha
        (8.231995621339854e-309, 1.214772269081016e308, "normalization integral is inf"),
    ],
)
def test_norm_constant_rejects_out_of_range_normalization(alpha, l, message):
    with pytest.raises(ValueError, match=message):
        norm_constant(alpha, l)


def test_wavefunctional_peak_and_symmetry():
    spec = WavefunctionalSpec.normalized(1.0, 5.0, center=1.5)
    assert eval_wavefunctional(spec.center, spec) == spec.norm_c
    for d in (0.1, 0.5, 2.0):
        assert eval_wavefunctional(spec.center + d, spec) == eval_wavefunctional(
            spec.center - d, spec
        )
    assert eval_wavefunctional(spec.center + 1.0, spec) == pytest.approx(
        spec.norm_c * math.exp(-1.0), rel=1e-15
    )


def test_wavefunctional_maximized_at_center():
    spec = WavefunctionalSpec.normalized(0.7, 4.0, center=0.3)
    peak = eval_wavefunctional(spec.center, spec)
    rng = np.random.default_rng(31)
    for u in rng.uniform(-10, 10, size=300):
        if u != spec.center:
            assert eval_wavefunctional(float(u), spec) < peak


def test_transport_pair_specs():
    l = 7.0
    initial, final = transport_pair_specs(l)
    assert initial.alpha == final.alpha == pytest.approx(1.0 / l)
    assert initial.center == 0.0
    assert final.center == pytest.approx(TWO_PI + 1e-3)
    # one normalization per pair, the closed form's for (alpha, L)
    assert initial.norm_c == final.norm_c == norm_constant(1.0 / l, l)
    for eps_plus in (0.0, -1e-3, -TWO_PI, math.nan):
        with pytest.raises(ValueError, match="eps_plus must be positive"):
            transport_pair_specs(l, eps_plus)
    # alpha = 1/L
    assert transport_pair_specs(2.0)[0].alpha == 0.5
    assert transport_pair_specs(1.0)[0].alpha == 1.0
    for l in np.geomspace(0.1, 100, 20):
        assert transport_pair_specs(float(l))[0].alpha * l == pytest.approx(1.0, rel=1e-15)
    for l in (0.0, -1.0):
        with pytest.raises(ValueError, match="separation L must be positive"):
            transport_pair_specs(l)


@pytest.mark.parametrize(
    "l, eps_plus, message",
    [
        (0.0, 1e-3, "separation L must be positive"),
        (-1.0, 1e-3, "separation L must be positive"),
        (math.nan, 1e-3, "separation L must be positive"),
        # 1/L overflows, and norm_constant rejects alpha
        (5e-324, 1e-3, "alpha must be positive and finite, got inf"),
        (math.inf, 1e-3, "alpha must be positive and finite, got 0.0"),
        (7.0, 0.0, "eps_plus must be positive, got 0.0"),
        (7.0, -1e-3, "eps_plus must be positive, got -0.001"),
        (7.0, math.nan, "eps_plus must be positive, got nan"),
        (7.0, math.inf, "center must be finite"),
        # eps_plus, then L, then norm_constant, then the final center
        (0.0, 0.0, "eps_plus must be positive, got 0.0"),
        (math.nan, math.inf, "separation L must be positive"),
        (5e-324, math.inf, "alpha must be positive and finite, got inf"),
    ],
)
def test_transport_pair_specs_rejects_in_order(l, eps_plus, message):
    assert _raised(lambda: transport_pair_specs(l, eps_plus)) == (ValueError, message)


def test_transport_pair_states_equal_checked_construction(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.floats(1e-300, 1e300), st.floats(0.0, 1e300, exclude_min=True))
    def run(l, eps_plus):
        alpha = 1.0 / l
        norm_c = norm_constant(alpha, l)
        built = (WavefunctionalSpec(alpha, 0.0, norm_c), WavefunctionalSpec(alpha, TWO_PI + eps_plus, norm_c))
        for spec, ref in zip(transport_pair_specs(l, eps_plus), built):
            assert spec == ref and hash(spec) == hash(ref)
            assert vars(spec) == dataclasses.asdict(spec) == vars(ref)
            assert [type(getattr(spec, name)) for name in GOOD_SPEC] == [float] * 3
            for name in GOOD_SPEC:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(spec, name, 1.0)

    run()


GOOD_SPEC = dict(alpha=0.25, center=1.5, norm_c=0.875)


def _raised(build):
    with pytest.raises(Exception) as exc:
        build()
    return type(exc.value), str(exc.value)


def test_spec_validation():
    # the constructor and dataclasses.replace give the same ValueError; any finite center is valid
    good = WavefunctionalSpec(**GOOD_SPEC)
    for value in (0.0, -1.0):
        for name in ("alpha", "norm_c"):
            expected = (ValueError, f"{name} must be positive and finite")
            assert _raised(lambda: WavefunctionalSpec(**{**GOOD_SPEC, name: value})) == expected
            assert _raised(lambda: dataclasses.replace(good, **{name: value})) == expected
        assert WavefunctionalSpec(**{**GOOD_SPEC, "center": value}).center == value
    # alpha, then norm_c, then center
    assert _raised(lambda: WavefunctionalSpec(alpha=math.nan, center=math.nan, norm_c=0.0)) == (
        ValueError,
        "alpha must be positive and finite",
    )
    assert _raised(lambda: WavefunctionalSpec(alpha=1.0, center=math.nan, norm_c=0.0)) == (
        ValueError,
        "norm_c must be positive and finite",
    )
    # a center that is not a real number, or an int beyond the double range, fails as math.isfinite does
    for center in ("0.0", 10**400):
        assert _raised(lambda: WavefunctionalSpec(alpha=1.0, center=center, norm_c=1.0)) == _raised(
            lambda: math.isfinite(center)
        )


def test_spec_requires_finite_alpha_and_norm():
    good = WavefunctionalSpec(**GOOD_SPEC)
    for value in (math.nan, math.inf, -math.inf):
        for name, message in (
            ("alpha", "alpha must be positive and finite"),
            ("norm_c", "norm_c must be positive and finite"),
            ("center", "center must be finite"),
        ):
            assert _raised(lambda: WavefunctionalSpec(**{**GOOD_SPEC, name: value})) == (ValueError, message)
            assert _raised(lambda: dataclasses.replace(good, **{name: value})) == (ValueError, message)
        assert _raised(lambda: WavefunctionalSpec.normalized(0.5, 2.0, center=value)) == (
            ValueError,
            "center must be finite",
        )


def test_spec_is_a_frozen_value_record():
    spec = WavefunctionalSpec(**GOOD_SPEC)
    assert [f.name for f in dataclasses.fields(WavefunctionalSpec)] == ["alpha", "center", "norm_c"]
    params = inspect.signature(WavefunctionalSpec).parameters.values()
    assert [(p.name, p.default) for p in params] == [(name, inspect.Parameter.empty) for name in GOOD_SPEC]
    assert repr(spec) == "WavefunctionalSpec(alpha=0.25, center=1.5, norm_c=0.875)"
    twin = WavefunctionalSpec(0.25, 1.5, 0.875)
    assert twin == spec and twin is not spec and hash(twin) == hash(spec)
    assert dataclasses.replace(spec, center=0.0) != spec
    for name in GOOD_SPEC:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(spec, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(spec, name)
    assert dataclasses.asdict(spec) == GOOD_SPEC
