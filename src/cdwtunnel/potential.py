"""The extended quartic potential, gap energies and the bound diagnostic.

Nothing here solves field equations; it only evaluates energies on
caller-supplied data.  The printed potential
C1 (phi-phi0)^2 - 4 C2 phi phi0 (phi-phi0)^2 + C2 (phi^2-phi0^2)^2 is
d^2 (C1 + C2 d^2) with d = phi - phi0, so a profile's static energy under
any (C1, C2) is G + C1 M2 + C2 M4, from the trapezoid moments
G = int (d_x phi)^2/2, M2 = int d^2 and M4 = int d^4.  A profile computes
its gradient energy density once and the three moments once per phi0, each
on first use, so bound checks of one profile under many potentials share
them.
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
    """A sampled field configuration phi(x) on a strictly increasing grid.

    ``xs`` and ``phis`` are read-only copies, so the cached energies stay those of the samples.
    """

    def __init__(self, xs, phis):
        xs = np.array(xs, dtype=float)
        phis = np.array(phis, dtype=float)
        if xs.ndim != 1 or phis.ndim != 1 or xs.size != phis.size:
            raise ValueError("xs and phis must be 1-D arrays of equal length")
        if xs.size < 2:
            raise ValueError("profile needs at least 2 samples")
        if not np.all(np.diff(xs) > 0.0):
            raise ValueError("xs must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(phis))):
            raise ValueError("profile values must be finite")
        xs.flags.writeable = phis.flags.writeable = False
        self.xs = xs
        self.phis = phis
        self._moments = {}

    def __len__(self):
        return self.xs.size

    @functools.cached_property
    def gradient_energy(self):
        """(d_x phi)^2 / 2 at every sample, from ``np.gradient``; computed on first use."""
        return 0.5 * np.gradient(self.phis, self.xs) ** 2

    def _energy_moments(self, phi0):
        """(G, M2, M4) for this phi0, from ``_integrate_moments`` on first use."""
        if phi0 not in self._moments:
            self._moments[phi0] = self._integrate_moments(phi0)
        return self._moments[phi0]

    def _integrate_moments(self, phi0):
        """Trapezoid integrals of ``gradient_energy``, d^2 and d^4, d = phi - phi0.

        Each is ``np.trapezoid(y, xs)`` with one ``np.diff(xs)`` shared by
        the three and the halving taken out of the sum, which is exact away
        from underflow.
        """
        dx = np.diff(self.xs)
        d2 = (self.phis - phi0) ** 2
        return tuple(0.5 * float((dx * (y[1:] + y[:-1])).sum()) for y in (self.gradient_energy, d2, d2 * d2))


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
    """C1 (phi-phi0)^2 - 4 C2 phi phi0 (phi-phi0)^2 + C2 (phi^2-phi0^2)^2, phi a float or array.

    Evaluated in the factored form d^2 (C1 + C2 d^2), d = phi - phi0, which
    the printed three terms cancel down to.
    """
    d = phi - p.phi0
    d2 = d * d
    return d2 * (p.c1 + p.c2 * d2)


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
    ``gradient_energy`` plus V(phi) over the supplied grid, read from the
    profile's cached moments as G + C1 M2 + C2 M4; satisfied allows a 1e-9
    relative slack on the right side.
    """
    q = topological_charge(profile)
    braces = 2.0 * delta_e_gap(p, phi_f, phi_t)
    g, m2, m4 = profile._energy_moments(p.phi0)
    lhs = g + p.c1 * m2 + p.c2 * m4
    rhs = abs(q) + 0.5 * (p.phi0 - phi_c) ** 2 * braces
    satisfied = lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
    return BoundReport(lhs=lhs, q_abs=abs(q), rhs=rhs, braces=braces, satisfied=satisfied)
