"""The extended quartic potential, gap energies and the bound diagnostic.

Nothing here solves field equations; it only evaluates energies on
caller-supplied data.  A profile computes its gradient energy density once,
on first use, so bound checks of one profile under many potentials share it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundReport",
    "FieldProfile",
    "PotentialParams",
    "alpha_from_separation",
    "bogomolnyi_check",
    "delta_e_gap",
    "eval_extended_potential",
    "topological_charge",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients c1, c2 and vacuum phi0 of the extended quartic potential."""

    c1: float = 1.0
    c2: float = 1.0
    phi0: float = TWO_PI

    def __post_init__(self):
        for name in ("c1", "c2", "phi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class FieldProfile:
    """A sampled field configuration phi(x) on a strictly increasing grid."""

    def __init__(self, xs, phis):
        xs = np.asarray(xs, dtype=float)
        phis = np.asarray(phis, dtype=float)
        if xs.ndim != 1 or phis.ndim != 1 or xs.size != phis.size:
            raise ValueError("xs and phis must be 1-D arrays of equal length")
        if xs.size < 2:
            raise ValueError("profile needs at least 2 samples")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("xs must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(phis))):
            raise ValueError("profile values must be finite")
        self.xs = xs
        self.phis = phis

    def __len__(self):
        return self.xs.size

    @functools.cached_property
    def gradient_energy(self):
        """(d_x phi)^2 / 2 at every sample, from ``np.gradient``; computed on first use."""
        return 0.5 * np.gradient(self.phis, self.xs) ** 2


@dataclass(frozen=True)
class BoundReport:
    """Result of the energy-bound diagnostic on one profile.

    lhs is the static Euclidean energy of the profile, rhs the topological
    lower bound |Q| + (phi0 - phi_C)^2/2 * braces with braces = 2 * gap.
    """

    lhs: float
    q_abs: float
    rhs: float
    braces: float
    satisfied: bool


def eval_extended_potential(phi, p):
    """C1 (phi-phi0)^2 - 4 C2 phi phi0 (phi-phi0)^2 + C2 (phi^2-phi0^2)^2, phi a float or array."""
    d = phi - p.phi0
    s = phi * phi - p.phi0 * p.phi0
    return p.c1 * d * d - 4.0 * p.c2 * phi * p.phi0 * d * d + p.c2 * s * s


def delta_e_gap(p, phi_f, phi_t):
    """Gap energy V(phi_F) - V(phi_T) between false and true vacuum values."""
    return eval_extended_potential(phi_f, p) - eval_extended_potential(phi_t, p)


def alpha_from_separation(l):
    """Gaussian width coefficient 1/L from the pair separation."""
    if not l > 0.0:
        raise ValueError("separation L must be positive")
    return 1.0 / l


def topological_charge(profile):
    """Winding (phi(x_last) - phi(x_first)) / (2 pi)."""
    return (profile.phis[-1] - profile.phis[0]) / TWO_PI


def bogomolnyi_check(profile, p, phi_c, phi_f, phi_t):
    """Energy-bound diagnostic: static energy vs |Q| + (phi0-phi_C)^2/2 * braces.

    The left side is the trapezoid integral of the profile's
    ``gradient_energy`` plus V(phi) over the supplied grid; satisfied allows
    a 1e-9 relative slack on the right side.
    """
    q = topological_charge(profile)
    braces = 2.0 * delta_e_gap(p, phi_f, phi_t)
    lhs = float(np.trapezoid(profile.gradient_energy + eval_extended_potential(profile.phis, p), profile.xs))
    rhs = abs(q) + 0.5 * (p.phi0 - phi_c) ** 2 * braces
    satisfied = lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
    return BoundReport(lhs=lhs, q_abs=abs(q), rhs=rhs, braces=braces, satisfied=satisfied)
