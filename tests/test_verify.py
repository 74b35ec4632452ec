"""The verify registry: each check's default tolerance and what an override changes."""

import dataclasses
import inspect

import pytest

from cdwtunnel import fitting, numerics, potential, tunneling, verify, wavefunctional
from oracles import ratio_18_19_scalar_draws

DEFAULT_TOLERANCES = {
    "erf-quadrature": 1e-12,
    "normalization": 1e-8,
    "thin-wall-ft": 1e-6,
    "ratio-18-19": 1e-12,
    "sge-reconciliation": 1e-12,
    "zener-threshold": 1.0,
    "bogomolnyi-sweep": 0.0,
    "topological-charge": 1.0,
    "oracle-shape": 1.0,
    "fig2b-fit": 1.0,
    "fit-roundtrip": 1e-5,
}


@pytest.fixture(scope="module")
def defaults():
    return {r.name: r for r in verify.run_checks()}


def test_registry_maps_each_name_to_a_zero_argument_check():
    assert list(verify.CHECKS) == list(DEFAULT_TOLERANCES)
    for check in verify.CHECKS.values():
        assert inspect.signature(check).parameters == {}


def test_default_tolerances(defaults):
    assert {name: r.tolerance for name, r in defaults.items()} == DEFAULT_TOLERANCES
    assert all(r.passed for r in defaults.values())


@pytest.mark.parametrize("name", DEFAULT_TOLERANCES)
def test_tolerance_override_changes_only_tolerance_and_passed(defaults, name):
    overridden = verify.run_check(name, -1.0)
    assert overridden.tolerance == -1.0 and not overridden.passed
    assert dataclasses.replace(overridden, tolerance=DEFAULT_TOLERANCES[name], passed=True) == defaults[name]


def test_bogomolnyi_sweep_covers_its_whole_grid(defaults, monkeypatch):
    # 4 steepnesses x 4 separations x 3 C1 x 3 C2, every one with a positive gap
    assert defaults["bogomolnyi-sweep"].detail == "bound violations across 144 grid profiles"
    # one family of the four steepnesses per L: one sampling, one gradient and
    # one integration of the energy moments each, read by all nine (C1, C2)
    # pairs, whose checks give one report per steepness
    sampled, checked, gradients, moments = [], [], [], []
    sample, check, gradient = wavefunctional.sample_profile, potential.bogomolnyi_check, potential.np.gradient
    integrate = potential.FieldProfile._integrate_moments
    monkeypatch.setattr(wavefunctional, "sample_profile", lambda *a, **k: sampled.append(a) or sample(*a, **k))
    monkeypatch.setattr(potential, "bogomolnyi_check", lambda *a, **k: checked.append(check(*a, **k)) or checked[-1])
    monkeypatch.setattr(potential.np, "gradient", lambda *a, **k: gradients.append(a) or gradient(*a, **k))
    monkeypatch.setattr(potential.FieldProfile, "_integrate_moments", lambda *a: moments.append(a) or integrate(*a))
    assert verify.run_check("bogomolnyi-sweep") == defaults["bogomolnyi-sweep"]
    assert (len(sampled), len(checked), len(gradients)) == (4, 36, 4)
    assert [len(kps) for kps, *_ in sampled] == [4] * 4
    assert sum(len(reports) for reports in checked) == 144
    assert len(moments) == 4


# integrand nodes per check: one quadrature-family call each evaluates the same
# nodes as one engine call per integral, which made 646, 79, 483 and 60 integrand
# calls; thin-wall-ft integrates the half box [0, L/2], half the whole box's 66738 nodes
QUADRATURE_WORK = {
    "erf-quadrature": 2100,
    "normalization": 2793,
    "thin-wall-ft": 32046,
    "oracle-shape": 2205,
}


@pytest.mark.parametrize("name", QUADRATURE_WORK)
def test_quadrature_checks_make_one_family_call_of_few_rounds(monkeypatch, name):
    engine = numerics.integrate_family
    calls, nodes = [], []

    def counted(f, *args, **kwargs):
        def g(x, member):
            nodes.append(x.size)
            return f(x, member)

        calls.append(name)
        return engine(g, *args, **kwargs)

    for module in (numerics, wavefunctional, tunneling):
        monkeypatch.setattr(module, "integrate_family", counted)
    # and no check falls back to one engine call per integral
    monkeypatch.setattr(numerics, "integrate_adaptive", None)
    assert verify.run_check(name).passed
    assert len(calls) == 1
    assert len(nodes) <= 10
    assert sum(nodes) == QUADRATURE_WORK[name]


def test_fit_roundtrip_makes_one_family_call_of_50_members(defaults, monkeypatch):
    family = fitting.fit_sge_family
    calls = []

    def counted(es, targets, free, starts):
        calls.append((targets.shape, len(starts), set(free)))
        return family(es, targets, free, starts)

    monkeypatch.setattr(fitting, "fit_sge_family", counted)
    # and no self-fit goes through the one-member front
    monkeypatch.setattr(fitting, "fit_sge_to_points", None)
    assert verify.run_check("fit-roundtrip") == defaults["fit-roundtrip"]
    assert calls == [((50, 40), 50, {"c_tilde1", "c_v"})]


def test_ratio_check_reads_the_scalar_draws_from_one_block(defaults):
    # one random() block read in stream order gives the inputs of one uniform() call per value, bit for bit
    inputs, draws = ratio_18_19_scalar_draws()
    assert draws == 693 <= verify._RATIO_18_19_BLOCK
    assert verify._ratio_18_19_inputs() == inputs
    assert defaults["ratio-18-19"].measured == 2.220446049250313e-16
