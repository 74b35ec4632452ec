"""Potential-energy functions, gap energies and the bound diagnostic.

The extended quartic potential, the driven sine-Gordon form and the
quadratic Hamiltonian density are separate families; nothing here solves
field equations, it only evaluates energies on caller-supplied data.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundReport",
    "FieldProfile",
    "PotentialParams",
    "alpha_from_separation",
    "bogomolnyi_check",
    "bound_braces",
    "delta_e_gap",
    "eval_driven_sg",
    "eval_extended_potential",
    "hamiltonian_density",
    "topological_charge",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients of the potential families.

    c1, c2, phi0 parameterize the extended quartic potential; d1, d2 the
    driven sine-Gordon form (classical cosine term about 100x the quadratic
    quantum addition by default); mu, varphi, i0 the quadratic Hamiltonian
    density.
    """

    c1: float = 1.0
    c2: float = 1.0
    phi0: float = TWO_PI
    d1: float = 100.0
    d2: float = 1.0
    mu: float = 1.0
    varphi: float = 0.0
    i0: float = 0.0

    def __post_init__(self):
        for name in ("c1", "c2", "phi0", "d1", "d2", "mu", "varphi", "i0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.d1 < 0.0 or self.d2 < 0.0:
            raise ValueError("d1 and d2 must be non-negative")
        if self.mu < 0.0:
            raise ValueError("mu must be non-negative")


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


def eval_driven_sg(phi, p):
    """D1 (1 - cos phi) + D2 phi^2."""
    phi = float(phi)
    return p.d1 * (1.0 - math.cos(phi)) + p.d2 * phi * phi


def hamiltonian_density(phi, pi, dphi_dx, p):
    """pi^2/2 + (d_x phi)^2/2 + mu^2 (phi - varphi)^2/2 - I0(mu)/2."""
    phi, pi, dphi_dx = float(phi), float(pi), float(dphi_dx)
    d = phi - p.varphi
    return 0.5 * (pi * pi + dphi_dx * dphi_dx + p.mu * p.mu * d * d - p.i0)


def delta_e_gap(p, phi_f, phi_t):
    """Gap energy V(phi_F) - V(phi_T) between false and true vacuum values."""
    return eval_extended_potential(phi_f, p) - eval_extended_potential(phi_t, p)


def bound_braces(p, phi_f, phi_t):
    """The braces quantity of the energy bound: twice the gap energy."""
    return 2.0 * delta_e_gap(p, phi_f, phi_t)


def alpha_from_separation(l):
    """Gaussian width coefficient 1/L from the pair separation."""
    if not l > 0.0:
        raise ValueError("separation L must be positive")
    return 1.0 / l


def topological_charge(profile):
    """Winding (phi(x_last) - phi(x_first)) / (2 pi)."""
    return (profile.phis[-1] - profile.phis[0]) / TWO_PI


def _profile_energy(profile, p):
    grad = np.gradient(profile.phis, profile.xs)
    v = eval_extended_potential(profile.phis, p)
    return float(np.trapezoid(0.5 * grad**2 + v, profile.xs))


def bogomolnyi_check(profile, p, phi_c, phi_f, phi_t):
    """Energy-bound diagnostic: static energy vs |Q| + (phi0-phi_C)^2/2 * braces.

    The left side is the trapezoid integral of (d_x phi)^2/2 + V(phi) over
    the supplied grid; satisfied allows a 1e-9 relative slack on the right
    side.
    """
    q = topological_charge(profile)
    braces = bound_braces(p, phi_f, phi_t)
    lhs = _profile_energy(profile, p)
    rhs = abs(q) + 0.5 * (p.phi0 - phi_c) ** 2 * braces
    satisfied = lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
    return BoundReport(lhs=lhs, q_abs=abs(q), rhs=rhs, braces=braces, satisfied=satisfied)
