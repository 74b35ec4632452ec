import dataclasses
import math

import numpy as np
import pytest

from cdwtunnel.potential import (
    FieldProfile,
    PotentialParams,
    alpha_from_separation,
    bogomolnyi_check,
    delta_e_gap,
    eval_extended_potential,
    topological_charge,
)
from cdwtunnel.wavefunctional import KinkPairProfile, kink_pair_profile, sample_profile
from oracles import printed_potential_terms

TWO_PI = 2.0 * math.pi
EPS = np.finfo(float).eps


def test_extended_potential_vanishes_at_vacuum():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = PotentialParams(
            c1=float(rng.uniform(-3, 3)),
            c2=float(rng.uniform(-3, 3)),
            phi0=float(rng.uniform(-8, 8)),
        )
        assert eval_extended_potential(p.phi0, p) == 0.0


def test_extended_potential_worked_values():
    p = PotentialParams(c1=1.0, c2=1.0, phi0=1.0)
    assert eval_extended_potential(-1.0, p) == pytest.approx(20.0, abs=1e-12)
    p = PotentialParams(c1=2.0, c2=0.5, phi0=2.0)
    assert eval_extended_potential(0.0, p) == pytest.approx(16.0, abs=1e-12)


def test_extended_potential_factored_form():
    """The factored evaluation d^2 (C1 + C2 d^2) against the printed three terms,
    within 8 ulp of the terms' summed magnitudes (their cancellation scale)."""
    rng = np.random.default_rng(5)
    for _ in range(500):
        p = PotentialParams(
            c1=float(rng.uniform(-2, 2)),
            c2=float(rng.uniform(-2, 2)),
            phi0=float(rng.uniform(-7, 7)),
        )
        # anywhere, within 1e-6 of the vacuum, where every term is O(d^2), and at -phi0
        phi = np.concatenate([rng.uniform(-9, 9, 8), p.phi0 * (1.0 + rng.uniform(-1e-6, 1e-6, 2)), [-p.phi0]])
        terms = printed_potential_terms(phi, p.c1, p.c2, p.phi0)
        scale = sum(np.abs(t) for t in terms)
        got = eval_extended_potential(phi, p)
        assert np.all(np.abs(got - sum(terms)) <= 8.0 * EPS * scale)
    # the printed form cancels about 16-fold at phi = pi on the default vacuum
    terms = printed_potential_terms(math.pi, 1.0, 1.0, TWO_PI)
    assert sum(abs(t) for t in terms) > 15.0 * abs(sum(terms))


def test_extended_potential_joint_sign_flip():
    rng = np.random.default_rng(9)
    for _ in range(300):
        c1, c2, phi0, phi = rng.uniform(-3, 3, size=4)
        a = eval_extended_potential(phi, PotentialParams(c1=c1, c2=c2, phi0=phi0))
        b = eval_extended_potential(-phi, PotentialParams(c1=c1, c2=c2, phi0=-phi0))
        assert a == pytest.approx(b, rel=1e-12, abs=1e-12)



def test_gap_energy():
    p = PotentialParams(c1=1.0, c2=0.0, phi0=0.0)
    assert delta_e_gap(p, 1.0, 2.0) == pytest.approx(-3.0)
    assert delta_e_gap(p, 0.7, 0.7) == 0.0


def test_gap_energy_antisymmetry():
    rng = np.random.default_rng(17)
    p = PotentialParams(c1=0.7, c2=1.3, phi0=2.0)
    for _ in range(200):
        a, b = rng.uniform(-6, 6, size=2)
        assert delta_e_gap(p, a, b) == -delta_e_gap(p, b, a)


def test_alpha_from_separation():
    assert alpha_from_separation(2.0) == 0.5
    assert alpha_from_separation(1.0) == 1.0
    for l in np.geomspace(0.1, 100, 20):
        assert alpha_from_separation(float(l)) * l == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        alpha_from_separation(0.0)
    with pytest.raises(ValueError):
        alpha_from_separation(-1.0)


def test_topological_charge_pair_is_zero():
    kp = KinkPairProfile(x_a=-5.0, x_b=5.0, b=1.0)
    prof = sample_profile(kp, half_width=20.0, n=501)
    assert abs(topological_charge(prof)) <= 1e-12


def test_topological_charge_single_kink():
    xs = np.linspace(-25.0, 25.0, 1001)
    phis = math.pi * (1.0 + np.tanh(xs))
    assert topological_charge(FieldProfile(xs, phis)) == pytest.approx(1.0, abs=1e-9)


def test_topological_charge_constant_profile():
    prof = FieldProfile([0.0, 1.0, 2.0], [0.3, 0.3, 0.3])
    assert topological_charge(prof) == 0.0


def test_topological_charge_equal_endpoints():
    rng = np.random.default_rng(23)
    for _ in range(50):
        interior = rng.uniform(-3, 3, size=20)
        phis = np.concatenate([[1.234], interior, [1.234]])
        prof = FieldProfile(np.arange(phis.size, dtype=float), phis)
        assert abs(topological_charge(prof)) <= 1e-12


def test_field_profile_validation():
    with pytest.raises(ValueError):
        FieldProfile([0.0], [1.0])
    with pytest.raises(ValueError):
        FieldProfile([0.0, 0.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        FieldProfile([1.0, 0.5], [1.0, 2.0])
    with pytest.raises(ValueError):
        FieldProfile([0.0, 1.0], [1.0, math.inf])
    # a nan or inf in xs is refused as non-finite, before the order is checked
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^profile values must be finite$"):
            FieldProfile([0.0, bad, 2.0], [0.0, 1.0, 2.0])


def test_field_profile_keeps_read_only_copies_of_its_samples():
    # a profile caches its gradient and energy moments; a caller that changes
    # its own arrays afterwards must reach neither them nor the samples
    xs = np.linspace(-10.0, 10.0, 201)
    phis = np.sin(xs)
    prof = FieldProfile(xs, phis)
    fresh = FieldProfile(xs.copy(), phis.copy())
    xs[:] = np.linspace(0.0, 1.0, 201)
    phis[:] = TWO_PI
    p = PotentialParams(c1=1.0, c2=1.0, phi0=TWO_PI)
    check = dict(p=p, phi_c=0.0, phi_f=0.0, phi_t=TWO_PI)
    assert bogomolnyi_check(prof, **check) == bogomolnyi_check(fresh, **check)
    assert topological_charge(prof) == topological_charge(fresh)
    for samples in (prof.xs, prof.phis):
        with pytest.raises(ValueError, match="read-only"):
            samples[0] = 0.0


def test_potential_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(c1=math.nan)


def test_bound_rhs_collapses_when_phi_c_is_vacuum():
    p = PotentialParams(c1=1.0, c2=1.0, phi0=TWO_PI)
    kp = KinkPairProfile(x_a=-4.0, x_b=4.0, b=1.0)
    prof = sample_profile(kp, half_width=10.0, n=801)
    report = bogomolnyi_check(prof, p, phi_c=p.phi0, phi_f=1.0, phi_t=1.0)
    assert report.rhs == pytest.approx(report.q_abs, abs=1e-12)
    assert report.satisfied


def test_bound_fig2a_pair_default_params():
    p = PotentialParams()
    kp = KinkPairProfile(x_a=-5.0, x_b=5.0, b=1.0)
    prof = sample_profile(kp, half_width=25.0, n=4001)
    report = bogomolnyi_check(prof, p, phi_c=0.0, phi_f=0.0, phi_t=TWO_PI)
    assert report.satisfied
    assert report.braces == pytest.approx(2.0 * delta_e_gap(p, 0.0, TWO_PI))
    assert report.q_abs <= 1e-12


def test_bound_small_sweep():
    for b in (0.5, 2.0):
        for l in (6.0, 12.0):
            for c1, c2 in ((0.5, 2.0), (2.0, 0.5)):
                p = PotentialParams(c1=c1, c2=c2, phi0=TWO_PI)
                if delta_e_gap(p, 0.0, TWO_PI) < 0.0:
                    continue
                kp = KinkPairProfile(x_a=-0.5 * l, x_b=0.5 * l, b=b)
                prof = sample_profile(kp, half_width=25.0, n=3001)
                report = bogomolnyi_check(prof, p, phi_c=0.0, phi_f=0.0, phi_t=TWO_PI)
                assert report.satisfied


def test_bound_lhs_is_the_trapezoid_of_the_printed_energy(tmp_path, monkeypatch):
    """Over random profiles and coefficients of either sign, the moment-built lhs is
    the direct trapezoid of (d_x phi)^2/2 + V_printed within a few ulp of the trapezoid
    of the terms' magnitudes, and a profile's reports do not depend on the order of checks."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    coefficient = st.floats(-3.0, 3.0)
    params = st.builds(PotentialParams, c1=coefficient, c2=coefficient, phi0=st.floats(-8.0, 8.0))
    samples = st.lists(st.tuples(st.floats(1e-3, 2.0), st.floats(-10.0, 10.0)), min_size=2, max_size=60)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(samples=samples, p1=params, p2=params, share_phi0=st.booleans())
    def run(samples, p1, p2, share_phi0):
        if share_phi0:
            p2 = PotentialParams(c1=p2.c1, c2=p2.c2, phi0=p1.phi0)
        xs = np.cumsum([step for step, _ in samples])
        phis = np.array([phi for _, phi in samples])
        first, second = FieldProfile(xs, phis), FieldProfile(xs, phis)
        args = (0.0, 0.0, TWO_PI)
        forward = [bogomolnyi_check(first, p, *args) for p in (p1, p2)]
        backward = [bogomolnyi_check(second, p, *args) for p in (p2, p1)][::-1]
        assert [dataclasses.astuple(r) for r in forward] == [dataclasses.astuple(r) for r in backward]
        for p, report in zip((p1, p2), forward):
            terms = printed_potential_terms(phis, p.c1, p.c2, p.phi0)
            direct = np.trapezoid(first.gradient_energy + sum(terms), xs)
            scale = np.trapezoid(first.gradient_energy + sum(np.abs(t) for t in terms), xs)
            # with the smallest normal double for terms that underflow
            assert abs(report.lhs - direct) <= 8.0 * EPS * scale + np.finfo(float).tiny

    run()


def test_field_profile_family_validation():
    with pytest.raises(ValueError, match=r"shape \(n,\) or \(m, n\)"):
        FieldProfile([0.0, 1.0], [[0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match=r"shape \(n,\) or \(m, n\)"):
        FieldProfile([0.0, 1.0], [[[0.0, 1.0]]])
    with pytest.raises(ValueError, match="finite"):
        FieldProfile([0.0, 1.0], [[0.0, 1.0], [math.nan, 1.0]])
    family = FieldProfile([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [2.0, 1.0, 0.0]])
    assert len(family) == 3 and family.phis.shape == (2, 3)


@pytest.mark.filterwarnings("error")
def test_winding_and_energy_outside_the_double_range_are_value_errors():
    p, args = PotentialParams(), (0.0, 0.0, TWO_PI)
    # the d^4 moment overflows
    spike = FieldProfile([0.0, 1.0, 2.0], [0.0, 1e80, 0.0])
    with pytest.raises(ValueError, match=r"^static energy is inf, outside the double range$"):
        bogomolnyi_check(spike, p, *args)
    # phi(x_last) - phi(x_first) overflows
    wide = FieldProfile([0.0, 1.0], [-1e308, 1e308])
    with pytest.raises(ValueError, match=r"^topological charge is inf, outside the double range$"):
        topological_charge(wide)
    with pytest.raises(ValueError, match="^topological charge is inf"):
        bogomolnyi_check(wide, p, *args)
    # a slope of 1e10 / 1e-300 overflows the gradient energy
    steep = FieldProfile([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0])
    with pytest.raises(ValueError, match="^static energy is inf"):
        bogomolnyi_check(steep, p, *args)
    # a false vacuum whose potential overflows leaves the bound itself infinite
    with pytest.raises(ValueError, match=r"^bound right side is inf"):
        bogomolnyi_check(FieldProfile([0.0, 1.0], [0.0, 0.0]), p, 0.0, 1e200, TWO_PI)
    # in a family the error names the first bad row
    calm = [0.0, 1.0, 0.0]
    with pytest.raises(ValueError, match=r"^static energy is inf in row 1, outside the double range$"):
        bogomolnyi_check(FieldProfile([0.0, 1.0, 2.0], [calm, [0.0, 1e80, 0.0], [0.0, 1e90, 0.0]]), p, *args)
    with pytest.raises(ValueError, match=r"^topological charge is -inf in row 2, outside the double range$"):
        topological_charge(FieldProfile([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0], [1e308, -1e308]]))


def test_bound_reports_hold_python_scalars_in_profiles_and_families():
    p = PotentialParams(c1=1.3, c2=0.7)
    kps = [KinkPairProfile(x_a=-3.0, x_b=3.0, b=b) for b in (0.5, 1.0, 3.0)]
    family = bogomolnyi_check(sample_profile(kps, 10.0, 601), p, 0.0, 0.0, TWO_PI)
    assert isinstance(family, list) and len(family) == 3
    for kp, row in zip(kps, family):
        single = bogomolnyi_check(sample_profile(kp, 10.0, 601), p, 0.0, 0.0, TWO_PI)
        for report in (single, row):
            assert [type(v) for v in dataclasses.astuple(report)] == [float, float, float, float, bool]
        assert row == single and repr(row) == repr(single)
    assert type(topological_charge(sample_profile(kps[0], 10.0, 601))) is float


def test_every_row_of_a_family_is_its_own_one_row_profile(tmp_path, monkeypatch):
    """A family from sample_profile, row by row, against the one-pair profile: the same
    bits in xs, phis, gradient energy, energy moments, winding and every bound report."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    coefficient = st.floats(0.1, 3.0)
    params = st.builds(PotentialParams, c1=coefficient, c2=coefficient, phi0=st.floats(-8.0, 8.0))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        bs=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6),
        x_a=st.floats(-50.0, 50.0),
        l=st.floats(1e-3, 50.0),
        half_width=st.floats(0.1, 50.0),
        n=st.integers(2, 5000),
        potentials=st.lists(params, min_size=1, max_size=3),
    )
    def run(bs, x_a, l, half_width, n, potentials):
        kps = [KinkPairProfile(x_a=x_a, x_b=x_a + l, b=b) for b in bs]
        family = sample_profile(kps, half_width, n)
        assert family.phis.shape == (len(bs), n)
        windings = topological_charge(family)
        reports = [bogomolnyi_check(family, p, 0.0, 0.0, TWO_PI) for p in potentials]
        for row, kp in enumerate(kps):
            single = sample_profile(kp, half_width, n)
            assert single.phis.shape == (n,)
            assert family.xs.tobytes() == single.xs.tobytes()
            assert family.phis[row].tobytes() == single.phis.tobytes()
            assert family.gradient_energy[row].tobytes() == single.gradient_energy.tobytes()
            assert windings[row].tobytes() == np.float64(topological_charge(single)).tobytes()
            for p, family_reports in zip(potentials, reports):
                assert family._energy_moments(p.phi0)[row] == single._energy_moments(p.phi0)[0]
                assert repr(family_reports[row]) == repr(bogomolnyi_check(single, p, 0.0, 0.0, TWO_PI))

    run()


def _xs_path(xs, phis, phi0):
    """The non-uniform route, spelled out: ``np.gradient`` on xs of each row less its first
    sample, and the pair-sum trapezoid with the halving taken out of the sum.  (gradient
    energy, [(G, M2, M4) per row])."""
    rows = (-1, xs.size)
    gradient_energy = 0.5 * np.gradient(phis - phis[..., :1], xs, axis=-1) ** 2
    dx = np.diff(xs)
    d2 = (phis.reshape(rows) - phi0) ** 2
    sums = []
    for y in (gradient_energy.reshape(rows), d2, d2 * d2):
        pair = y[:, 1:] + y[:, :-1]
        pair *= dx
        sums.append(np.add.reduce(pair, axis=1).tolist())
    return gradient_energy, [(0.5 * g, 0.5 * m2, 0.5 * m4) for g, m2, m4 in zip(*sums)]


def _uniform_path_slack(xs, phis, phi0):
    """Per row, the (G, M2, M4) distance allowed between the uniform and the xs route
    beyond 1e-13 relative.  The steps differ from h by up to tol = 4 ulp of the largest
    |x|, which moves each slope and trapezoid weight by up to tol/h; summed by parts
    that is at most ~tol times the integrand's total variation.  The xs route's own
    gradient weights do not sum to exactly 0, so each of its slopes also carries
    ~eps |phi - phi_first| / h."""
    rows = (-1, xs.size)
    tol = 4.0 * np.spacing(max(abs(xs[0]), abs(xs[-1])))
    shifted = (phis - phis[..., :1]).reshape(rows)
    slope = np.gradient(shifted, xs, axis=-1)
    d2 = (phis.reshape(rows) - phi0) ** 2
    variation = [2.0 * tol * np.sum(np.abs(np.diff(y, axis=1)), axis=1) for y in (0.5 * slope**2, d2, d2 * d2)]
    variation[0] += 8.0 * EPS * np.sum(np.abs(slope * shifted), axis=1)
    return list(zip(*variation))


def test_uniform_grids_take_the_step_and_other_grids_keep_the_xs_route(tmp_path, monkeypatch):
    """On a sample_profile window (a linspace) the profile takes the scalar step h: its
    (G, M2, M4) are within 1e-13 relative, plus the grid's own rounding, of the xs route
    and every family row is bit for bit its one-row profile.  A geomspace grid or a
    linspace with one sample moved keeps the xs route bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    def same_as_xs_route(prof, phi0):
        gradient_energy, moments = _xs_path(prof.xs, prof.phis, phi0)
        assert prof._step is None
        assert prof.gradient_energy.tobytes() == gradient_energy.tobytes()
        assert prof._energy_moments(phi0) == moments

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        bs=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4),
        x_a=st.floats(-50.0, 50.0),
        l=st.floats(1e-3, 50.0),
        half_width=st.floats(0.1, 50.0),
        n=st.integers(2, 20000),
        phi0=st.floats(-8.0, 8.0),
        moved=st.tuples(st.floats(0.0, 1.0), st.integers(16, 2**50), st.sampled_from((-1.0, 1.0))),
        ratio=st.floats(2.0, 1e3),
    )
    def run(bs, x_a, l, half_width, n, phi0, moved, ratio):
        kps = [KinkPairProfile(x_a=x_a, x_b=x_a + l, b=b) for b in bs]
        family = sample_profile(kps, half_width, n)
        assert family._step == (family.xs[-1] - family.xs[0]) / (n - 1)
        moments = family._energy_moments(phi0)
        _, reference = _xs_path(family.xs, family.phis, phi0)
        slack = _uniform_path_slack(family.xs, family.phis, phi0)
        for got, want, allowed in zip(moments, reference, slack):
            for a, b, s in zip(got, want, allowed):
                assert abs(a - b) <= 1e-13 * abs(b) + s + np.finfo(float).tiny
        for row, kp in enumerate(kps):
            single = sample_profile(kp, half_width, n)
            assert family.gradient_energy[row].tobytes() == single.gradient_energy.tobytes()
            assert moments[row] == single._energy_moments(phi0)[0]
        if n < 3:
            return  # every 2-sample grid is uniform
        # one inner sample moved by 16 ulp of the largest |x| (its steps then miss h by
        # more than the 4 ulp a uniform grid allows) up to 45% of a step
        where, ulps, sign = moved
        xs = family.xs.copy()
        ulp = np.spacing(max(abs(xs[0]), abs(xs[-1])))
        xs[1 + int(where * (n - 3))] += sign * min(ulps * ulp, 0.45 * family._step)
        same_as_xs_route(FieldProfile(xs, family.phis), phi0)
        geometric = np.geomspace(half_width, half_width * ratio, n)
        same_as_xs_route(FieldProfile(geometric, family.phis), phi0)

    run()


def test_off_grid_moments_are_the_pair_sum_trapezoid_where_pair_products_are_normal(tmp_path, monkeypatch):
    """On sorted random grids and on linspace grids with their inner samples moved, a
    family's (G, M2, M4) equal the spelled-out pair sum bit for bit wherever every pair
    product is a normal double (0 aside) and no total overflows: halving a normal
    product, or a sum of them, is exact.  Every 2-sample grid is uniform, so n >= 3."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        m=st.integers(1, 4),
        n=st.integers(3, 400),
        perturbed=st.booleans(),
        moved=st.floats(0.01, 0.45),
        scale=st.integers(-100, 100),
        seed=st.integers(0, 2**32 - 1),
    )
    def run(m, n, perturbed, moved, scale, seed):
        rng = np.random.default_rng(seed)
        if perturbed:
            xs = np.linspace(-20.0, 30.0, n)
            xs[1:-1] += rng.uniform(-moved, moved, n - 2) * (xs[1] - xs[0])
        else:
            xs = np.unique(rng.uniform(-50.0, 50.0, n))
        # amplitudes on a 2^-10 lattice times 2^scale: every nonzero d is at least
        # 2^(scale - 10), and d^4 stays far below the largest double
        phis = rng.integers(-(2**20), 2**20, (m, xs.size)) * 2.0 ** (scale - 10)
        phi0 = float(rng.integers(-(2**20), 2**20)) * 2.0 ** (scale - 10)
        profile = FieldProfile(xs, phis if m > 1 else phis[0])
        assert profile._step is None
        gradient_energy, moments = _xs_path(profile.xs, profile.phis, phi0)
        d2 = (phis - phi0) ** 2
        for y in (gradient_energy.reshape(phis.shape), d2, d2 * d2):
            products = np.diff(xs) * (y[:, 1:] + y[:, :-1])
            assert np.all((products == 0.0) | (products >= 2.0 * np.finfo(float).tiny))
            assert np.all(np.isfinite(products.sum(axis=1)))
        assert profile.gradient_energy.tobytes() == gradient_energy.tobytes()
        assert profile._energy_moments(phi0) == moments

    run()


def test_off_grid_moments_halve_each_pair_product_before_the_sum():
    """At the ends of the double range the halving inside the sum shows.  Near overflow
    an M4 whose unhalved pair sum reads inf is finite, and so is the static energy.  Where
    pair products are subnormal each halving rounds to the smallest subnormal s = 2^-1074,
    so a moment moves by at most n s / 2 against the pair sum, which rounds once."""
    xs = [0.0, 1.0, 3.0]
    # d^4 = c on every sample: pairs 2c and 4c, unhalved total 6c > max, moment 3c
    c = 4e307
    flat = FieldProfile(xs, [c**0.25] * 3)
    with np.errstate(over="ignore"):
        _, pair_sum = _xs_path(flat.xs, flat.phis, 0.0)
    g, m2, m4 = flat._energy_moments(0.0)[0]
    assert pair_sum[0][2] == math.inf and math.isfinite(m4)
    assert abs(m4 - 3.0 * c) <= 4.0 * EPS * m4 and g == 0.0
    report = bogomolnyi_check(flat, PotentialParams(c1=1.0, c2=1.0, phi0=0.0), 0.0, 0.0, 0.0)
    assert report.lhs == m2 + m4 and math.isfinite(report.lhs)
    # d^2 = s, 0, s: the pair products s and 2 s; halved, s/2 rounds to 0 (to even),
    # so M2 = s, where the pair sum reads (3 s)/2, which rounds to 2 s
    s = 5e-324
    tiny = FieldProfile(xs, [2.0**-537, 0.0, 2.0**-537])
    _, pair_sum = _xs_path(tiny.xs, tiny.phis, 0.0)
    moments = tiny._energy_moments(0.0)[0]
    assert (moments[1], pair_sum[0][1]) == (s, 2 * s)
    for got, want in zip(moments, pair_sum[0]):
        assert abs(got - want) <= len(tiny) * s / 2


def test_the_bogomolnyi_sweep_holds_on_the_uniform_route(monkeypatch):
    """verify's sweep keeps 0 violations, and its smallest lhs - rhs is within 1e-12
    relative of the one the xs route gives on the same profiles."""
    from cdwtunnel import potential, verify

    checked = []
    real_check = potential.bogomolnyi_check

    def recording_check(profile, p, *args, **kwargs):
        reports = real_check(profile, p, *args, **kwargs)
        checked.append((profile, p, reports))
        return reports

    monkeypatch.setattr(potential, "bogomolnyi_check", recording_check)
    failures, _, _ = verify.check_bogomolnyi_sweep()
    assert failures == 0.0 and len(checked) == 36
    uniform, xs_route = [], []
    for profile, p, reports in checked:
        assert profile._step is not None
        _, moments = _xs_path(profile.xs, profile.phis, p.phi0)
        for (g, m2, m4), report in zip(moments, reports):
            uniform.append(report.lhs - report.rhs)
            xs_route.append(g + p.c1 * m2 + p.c2 * m4 - report.rhs)
    assert abs(min(uniform) - min(xs_route)) <= 1e-12 * abs(min(xs_route))


def _extended_g(xs, phi):
    """G of the samples ``phi`` on ``xs`` in np.longdouble, from np.gradient's non-uniform
    weights written on the differences: (h1^2 d+ + h2^2 d-) / (h1 h2 (h1 + h2)) inside and
    one-sided differences at the ends, then the trapezoid."""
    x, f = xs.astype(np.longdouble), phi.astype(np.longdouble)
    dx, df = np.diff(x), np.diff(f)
    h1, h2 = dx[:-1], dx[1:]
    inner = (h1 * h1 * df[1:] + h2 * h2 * df[:-1]) / (h1 * h2 * (h1 + h2))
    slope = np.concatenate([df[:1] / dx[:1], inner, df[-1:] / dx[-1:]])
    y = slope * slope / 2
    return float(np.sum((y[1:] + y[:-1]) * dx) / 2)


def test_the_xs_route_keeps_a_profile_offset_out_of_its_gradient(tmp_path, monkeypatch):
    """On a linspace window whose inner samples are moved by up to 20% of a step, G is
    within 1e-12 relative of an extended-precision gradient and trapezoid of the same
    samples.  np.gradient's three weights per sample do not sum to exactly 0, so on xs of
    the raw samples each slope carried ~eps |phi| / h, and G of a nearly flat kink pair
    offset from 0 (the example: phi ~1e-3, slopes ~1e-7) erred by up to ~1e-9."""
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("np.longdouble is no wider than a double here")
    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        x_a=st.floats(-50.0, 50.0),
        l=st.floats(1e-3, 10.0),
        b=st.floats(0.01, 10.0),
        half_width=st.floats(0.05, 10.0),
        n=st.integers(3, 20000),
        moved=st.floats(0.01, 0.2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(x_a=-5.5118, l=0.0191, b=0.05376, half_width=0.11096, n=16662, moved=0.2, seed=0)
    def run(x_a, l, b, half_width, n, moved, seed):
        kp = KinkPairProfile(x_a=x_a, x_b=x_a + l, b=b)
        xs = sample_profile(kp, half_width, n).xs.copy()
        h = (xs[-1] - xs[0]) / (n - 1)
        xs[1:-1] += np.random.default_rng(seed).uniform(-moved, moved, n - 2) * h
        profile = FieldProfile(xs, kink_pair_profile(xs, kp))
        assert profile._step is None
        g = profile._energy_moments(0.0)[0][0]
        want = _extended_g(profile.xs, profile.phis)
        assert abs(g - want) <= 1e-12 * want

    run()


@pytest.mark.filterwarnings("error")
def test_a_span_beyond_the_double_range_takes_the_xs_route_without_a_warning():
    # x_last - x_first overflows, and with 2 samples so does the step: no step is
    # taken, and no warning is raised on the way to the bound's error
    for xs, phis in (([-1e308, 1e308], [0.0, 1.0]), ([-1e308, 0.0, 1e308], [0.0, 1.0, 0.0])):
        wide = FieldProfile(xs, phis)
        assert wide._step is None
        assert np.all(np.isfinite(wide.gradient_energy))
        assert topological_charge(wide) == (phis[-1] - phis[0]) / TWO_PI
        with pytest.raises(ValueError, match="^static energy is"):
            bogomolnyi_check(wide, PotentialParams(), 0.0, 0.0, TWO_PI)
    # a step out of order that overflows is refused as such, also without a warning
    with pytest.raises(ValueError, match="^xs must be strictly increasing$"):
        FieldProfile([0.0, 1e308, -1e308, 1.0], [0.0, 1.0, 2.0, 3.0])
