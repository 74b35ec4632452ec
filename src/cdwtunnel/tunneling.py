"""Tunneling matrix elements and their quadrature oracle.

Two analytic magnitudes are provided: ``t_if_analytic`` keeps the
occupation factor n1 everywhere and ``t_if_simplified`` is the reduced
form feeding the transport current; at n1 = 1 the analytic form is exactly
half the simplified one (the dropped prefactor is preserved and tested,
not silently fixed).  The independent route is a single-mode quadrature
oracle over the collective coordinate, which integrates a whole list of
state pairs in one quadrature-family call, under one error-state scope
around the quadrature and the division by 2 m*; where the overlap of two
distinct states leaves the normal double range it raises, never
returning a silent 0 or inf; errors follow ``numerics``' batch-engine convention.

``MatrixElementInputs`` is built once per point of an L grid, so it is a
frozen dataclass with its own ``__init__`` (one chained check, one keyword
``__dict__`` write) in place of the generated one's ``object.__setattr__``
per field.
"""

import dataclasses
import math
import sys

import numpy as np

from .numerics import _cosh_times_exp, _member_error, integrate_family

__all__ = [
    "MatrixElementInputs",
    "t_if_analytic",
    "t_if_simplified",
    "t_if_single_mode_oracle",
    "t_if_single_mode_oracles",
]

_MAX = sys.float_info.max

# One record is built per point of an L grid; on perfbench's grid_eval the
# l_grid ops are ~93% of the timed work.  A frozen dataclass's generated
# __init__ stores each field with its own object.__setattr__ call: built with
# keywords, a 7-field frozen record took 1.3-1.6 us against 0.43-0.47 us for
# the same class unfrozen, and 1.8-2.2 us with the checks below in a
# __post_init__.  So this __init__ checks all fields in one chained
# comparison, runs the per-field loop only to name a bad field, and stores
# the fields with one keyword write to __dict__, which builds no tuple, zip or
# dict of its own: 1.2-1.5 us with keywords and 0.86-0.97 us positional
# (timeit minima; CPython 3.11, 2-CPU Xeon).
@dataclasses.dataclass(frozen=True, init=False)
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

    def __init__(self, x_bar, l, alpha, n1=1.0, c1_norm=1.0, c2_norm=1.0, m_star=1.0):
        try:
            # <= the largest double, not < inf: an int beyond the double range
            # goes to the loop, where math.isfinite raises its OverflowError
            valid = (
                0.0 < x_bar <= _MAX
                and 0.0 < l <= _MAX
                and 0.0 < alpha <= _MAX
                and 0.0 < n1 <= 1.0
                and 0.0 < c1_norm <= _MAX
                and 0.0 < c2_norm <= _MAX
                and 0.0 < m_star <= _MAX
            )
        except Exception:  # the loop raises what math.isfinite and the comparisons raise
            valid = False
        if not valid:
            values = (x_bar, l, alpha, n1, c1_norm, c2_norm, m_star)
            for name, v in zip(_FIELDS, values):
                if not (math.isfinite(v) and v > 0.0):
                    raise ValueError(f"{name} must be positive and finite")
            if n1 > 1.0:
                raise ValueError("n1 must lie in (0, 1]")
        # keywords arrive as a dict; updated from (name, value) pairs instead,
        # the __dict__ took 2.3x as long for seven attribute reads (CPython 3.11)
        self.__dict__.update(
            x_bar=x_bar, l=l, alpha=alpha, n1=n1, c1_norm=c1_norm, c2_norm=c2_norm, m_star=m_star
        )


_FIELDS = tuple(f.name for f in dataclasses.fields(MatrixElementInputs))


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
    """|T| of one pair of states: the one-pair form of ``t_if_single_mode_oracles``."""
    return float(t_if_single_mode_oracles([spec_i], [spec_f], m_star, tol)[0])


def t_if_single_mode_oracles(specs_i, specs_f, m_star=1.0, tol=1e-11):
    """|T| by adaptive quadrature over the retained mode amplitude u, for each pair (specs_i[n], specs_f[n]).

    Integrates (1/2m*) [psi_i psi_f'' - psi_f psi_i''] theta(u - u0) with
    the Gaussian second derivatives taken analytically, from the barrier
    point u0, the midpoint of the two centers, to 12 Gaussian widths above
    the higher center, where the integrand is long dead.  All pairs are the
    members of one ``integrate_family`` call, and the result is an array.
    The quadrature meets an absolute ``tol`` by its error estimate, so each
    |T| is good to an absolute tol / (2 m*), 5e-12 at the defaults, and a
    smaller |T| is not resolved: at alpha = 1 and L = 2, centers 1e-16
    apart read |T| = 1.15e-16 against 1.79e-16, and 1e-17 apart read 0.
    States with equal (alpha, center) are proportional and give exactly 0.
    For any other pair a |T| below ``sys.float_info.min`` or not finite (the
    division by a tiny 2 m* overflows) raises ValueError rather than return
    a silent 0, a subnormal or inf, naming the first such pair in input
    order, and saying so where |T| is also below that error bound;
    quadrature non-convergence propagates.  Either error carries the index
    of its pair as ``member``.
    """
    if not m_star > 0.0:
        raise ValueError("m_star must be positive")
    if len(specs_i) != len(specs_f):
        raise ValueError(f"got {len(specs_i)} initial and {len(specs_f)} final states")
    fields = ("alpha", "center", "norm_c")
    ai, mi, ci = (np.array([getattr(s, name) for s in specs_i], dtype=float) for name in fields)
    af, mf, cf = (np.array([getattr(s, name) for s in specs_f], dtype=float) for name in fields)
    distinct = (ai != af) | (mi != mf)
    u0 = 0.5 * (mi + mf)

    def integrand(u, n):
        a_i, a_f = ai[n], af[n]
        di = u - mi[n]
        df = u - mf[n]
        pi_ = ci[n] * np.exp(-a_i * di * di)
        pf = cf[n] * np.exp(-a_f * df * df)
        # the Gaussians' second-derivative polynomials 4 a^2 d^2 - 2 a overflow to inf for a huge a
        ppi = pi_ * (4.0 * a_i * a_i * di * di - 2.0 * a_i)
        ppf = pf * (4.0 * a_f * a_f * df * df - 2.0 * a_f)
        # a Gaussian that underflowed to 0 zeroes the integrand, even where its polynomial overflowed
        return np.where((pi_ == 0.0) | (pf == 0.0), 0.0, pi_ * ppf - pf * ppi)

    with np.errstate(over="ignore", invalid="ignore"):
        # 2 alpha overflows to inf for alpha above ~9e307, and the window shrinks to the higher center
        hi = np.maximum(mi, mf) + 12.0 * (1.0 / np.sqrt(2.0 * np.minimum(ai, af)))
        beyond = np.flatnonzero(distinct & (hi <= u0))
        if beyond.size:
            raise _member_error(ValueError("barrier point u0 lies above the integration window"), beyond[0])
        # a proportional pair integrates over the empty interval [u0, u0]
        hi = np.where(distinct, hi, u0)
        t = np.abs(integrate_family(integrand, u0, hi, float(tol))) / (2.0 * float(m_star))
    bad = np.flatnonzero(distinct & ~((t >= sys.float_info.min) & (t < math.inf)))
    if bad.size:
        n = bad[0]
        side = "below" if t[n] < sys.float_info.min else "above"
        message = (
            f"overlap |T| = {t[n]:.3g} of the states centered at {float(mi[n])!r} and {float(mf[n])!r}"
            f" lies {side} the normal double range"
        )
        bound = float(tol) / (2.0 * float(m_star))
        if t[n] < bound:
            message += f"; at absolute tolerance tol = {float(tol)!r} the quadrature resolves no |T| below {bound:.3g}"
        raise _member_error(ValueError(message), n)
    return t
