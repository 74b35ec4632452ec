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

TWO_PI = 2.0 * math.pi


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
    """Independent route: the three printed terms collapse to
    (phi-phi0)^2 (C1 + C2 (phi-phi0)^2)."""
    rng = np.random.default_rng(5)
    for _ in range(500):
        p = PotentialParams(
            c1=float(rng.uniform(-2, 2)),
            c2=float(rng.uniform(-2, 2)),
            phi0=float(rng.uniform(-7, 7)),
        )
        phi = float(rng.uniform(-9, 9))
        d2 = (phi - p.phi0) ** 2
        factored = d2 * (p.c1 + p.c2 * d2)
        got = eval_extended_potential(phi, p)
        assert got == pytest.approx(factored, rel=1e-10, abs=1e-10)


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
