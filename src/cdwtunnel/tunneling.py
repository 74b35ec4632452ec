"""Tunneling matrix elements and their quadrature oracle.

Two analytic magnitudes are provided: ``t_if_analytic`` keeps the
occupation factor n1 everywhere and ``t_if_simplified`` is the reduced
form feeding the transport current; at n1 = 1 the analytic form is exactly
half the simplified one (the dropped prefactor is preserved and tested,
not silently fixed).  The independent route is a single-mode quadrature
oracle over the collective coordinate; where the overlap of two distinct
states falls below the normal double range it raises, never returning a silent 0.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import _cosh_times_exp, integrate_adaptive
from .wavefunctional import eval_wavefunctional

__all__ = [
    "MatrixElementInputs",
    "t_if_analytic",
    "t_if_simplified",
    "t_if_single_mode_oracle",
]

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


def t_if_single_mode_oracle(spec_i, spec_f, m_star=1.0, tol=1e-11):
    """|T| by adaptive quadrature over the retained mode amplitude u.

    Integrates (1/2m*) [psi_i psi_f'' - psi_f psi_i''] theta(u - u0) with
    the Gaussian second derivatives taken analytically, from the barrier
    point u0, the midpoint of the two centers, to 12 Gaussian widths above
    the higher center, where the integrand is long dead.  States with equal
    (alpha, center) are proportional and give exactly 0.  For any other pair
    a |T| below ``sys.float_info.min`` raises ValueError rather than return a
    silent 0 or a subnormal; quadrature non-convergence propagates.
    """
    if not m_star > 0.0:
        raise ValueError("m_star must be positive")
    ai, mi = spec_i.alpha, spec_i.center
    af, mf = spec_f.alpha, spec_f.center
    if (ai, mi) == (af, mf):
        return 0.0
    u0 = 0.5 * (mi + mf)
    width = 1.0 / math.sqrt(2.0 * min(ai, af))
    hi = max(mi, mf) + 12.0 * width
    if hi <= u0:
        raise ValueError("barrier point u0 lies above the integration window")

    def integrand(u):
        di = u - mi
        df = u - mf
        with np.errstate(over="ignore", invalid="ignore"):
            pi_ = eval_wavefunctional(u, spec_i)
            pf = eval_wavefunctional(u, spec_f)
            ppi = pi_ * (4.0 * ai * ai * di * di - 2.0 * ai)
            ppf = pf * (4.0 * af * af * df * df - 2.0 * af)
            # a Gaussian that underflowed to 0 zeroes the integrand, even where its polynomial overflowed
            return np.where((pi_ == 0.0) | (pf == 0.0), 0.0, pi_ * ppf - pf * ppi)

    t = abs(integrate_adaptive(integrand, u0, hi, float(tol))) / (2.0 * float(m_star))
    if t < sys.float_info.min:
        raise ValueError(
            f"overlap |T| = {t:.3g} of the states centered at {mi!r} and {mf!r}"
            " lies below the normal double range"
        )
    return t
