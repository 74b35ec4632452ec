"""The verify registry: each check's default tolerance and what an override changes."""

import dataclasses
import inspect

import pytest

from cdwtunnel import verify

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


def test_bogomolnyi_sweep_covers_its_whole_grid(defaults):
    # 4 steepnesses x 4 separations x 3 C1 x 3 C2, every one with a positive gap
    assert defaults["bogomolnyi-sweep"].detail == "bound violations across 144 grid profiles"
