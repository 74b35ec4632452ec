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
from cdwtunnel.wavefunctional import KinkPairProfile, sample_profile
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
