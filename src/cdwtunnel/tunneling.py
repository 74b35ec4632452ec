"""Tunneling matrix elements and the golden-rule channel contract.

Two analytic magnitudes are provided: ``t_if_analytic`` keeps the
occupation factor n1 everywhere and ``t_if_simplified`` is the reduced
form feeding the transport current; at n1 = 1 the analytic form is exactly
half the simplified one (the dropped prefactor is preserved and tested,
not silently fixed).  The independent route is a single-mode quadrature
oracle over the collective coordinate.
"""

import math
from dataclasses import dataclass

from .numerics import _cosh_times_exp, integrate_adaptive
from .wavefunctional import eval_wavefunctional

__all__ = [
    "MatrixElementInputs",
    "current_from_matrix_element",
    "t_if_analytic",
    "t_if_simplified",
    "t_if_single_mode_oracle",
]

CHANNELS = ("boson_coherent", "quasiparticle")


@dataclass(frozen=True)
class MatrixElementInputs:
    """Geometry, width and normalization inputs of the analytic magnitudes.

    c1_norm and c2_norm are the wavefunctional normalization constants, not
    the potential coefficients.  hbar = 1 throughout; m_star defaults to 1.
    """

    x_bar: float
    l: float
    alpha: float
    n1: float = 1.0
    c1_norm: float = 1.0
    c2_norm: float = 1.0
    m_star: float = 1.0

    def __post_init__(self):
        for name in ("x_bar", "l", "alpha", "n1", "c1_norm", "c2_norm", "m_star"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if self.n1 > 1.0:
            raise ValueError("n1 must lie in (0, 1]")


def _cosh_exp_factor(inputs, n1sq):
    """cosh(2 sqrt(x/2L) - sqrt(L/2x)) e^(-a L n1^2 L/(2x)), overflow-safe."""
    x_bar, l = inputs.x_bar, inputs.l
    arg = 2.0 * math.sqrt(x_bar / (2.0 * l)) - math.sqrt(l / (2.0 * x_bar))
    expo = -inputs.alpha * l * (n1sq * (l / (2.0 * x_bar)))
    return _cosh_times_exp(arg, expo)


def t_if_analytic(inputs):
    """(2/(2 m*)) (n1^2 - n1^4/2) C1 C2 cosh(2 sqrt(x/2L) - sqrt(L/2x)) e^(-a L n1^2 L/(2x))."""
    n1sq = inputs.n1 * inputs.n1
    pref = (2.0 / (2.0 * inputs.m_star)) * (n1sq - 0.5 * n1sq * n1sq) * inputs.c1_norm * inputs.c2_norm
    return pref * _cosh_exp_factor(inputs, n1sq)


def t_if_simplified(inputs):
    """(C1 C2 / m*) cosh(2 sqrt(x/2L) - sqrt(L/2x)) e^(-a L L/(2x))."""
    return inputs.c1_norm * inputs.c2_norm / inputs.m_star * _cosh_exp_factor(inputs, 1.0)


def t_if_single_mode_oracle(spec_i, spec_f, u0=None, m_star=1.0, tol=1e-11):
    """|T| by adaptive quadrature over the retained mode amplitude u.

    Integrates (1/2m*) [psi_i psi_f'' - psi_f psi_i''] theta(u - u0) with
    the Gaussian second derivatives taken analytically; u0 defaults to the
    midpoint of the two centers.  The upper limit sits 12 Gaussian widths
    above the higher center, where the integrand is long dead.
    Quadrature non-convergence propagates.
    """
    if not m_star > 0.0:
        raise ValueError("m_star must be positive")
    if u0 is None:
        u0 = 0.5 * (spec_i.center + spec_f.center)
    width = 1.0 / math.sqrt(2.0 * min(spec_i.alpha, spec_f.alpha))
    hi = max(spec_i.center, spec_f.center) + 12.0 * width
    if hi <= u0:
        raise ValueError("barrier point u0 lies above the integration window")
    ai, mi = spec_i.alpha, spec_i.center
    af, mf = spec_f.alpha, spec_f.center

    def integrand(u):
        di = u - mi
        df = u - mf
        pi_ = eval_wavefunctional(u, spec_i)
        pf = eval_wavefunctional(u, spec_f)
        ppi = pi_ * (4.0 * ai * ai * di * di - 2.0 * ai)
        ppf = pf * (4.0 * af * af * df * df - 2.0 * af)
        return pi_ * ppf - pf * ppi

    val = integrate_adaptive(integrand, float(u0), float(hi), float(tol))
    return abs(val) / (2.0 * float(m_star))


def current_from_matrix_element(t, channel, rho=0.0):
    """Golden-rule channel contract: |t| for coherent bosons, 2 pi |t|^2 rho otherwise."""
    if channel not in CHANNELS:
        raise ValueError(f"channel must be one of {CHANNELS}")
    if rho < 0.0:
        raise ValueError("density of states rho must be non-negative")
    if channel == "boson_coherent":
        return abs(t)
    return 2.0 * math.pi * t * t * rho
