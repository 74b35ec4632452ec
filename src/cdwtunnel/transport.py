"""The field-to-separation map and the two current-vs-field laws.

``current_sge`` is the soliton-pair law as printed, with chi = E_T c_v / E:

    I = C~1 cosh(sqrt(2E/(E_T c_v)) - sqrt(chi)) exp(-chi)

Back-substituting the pair geometry into the matrix element instead yields
exp(-chi/2) and sqrt(chi/2); since c_v exists to absorb such bookkeeping,
both conventions are exposed through ``convention`` and the printed form is
the default.  The printed law is ungated below threshold (it carries no
threshold clause); the Zener law is zero at and below E_T.

Each law, the pair current's Jacobian and its first two c_v-derivatives
(which the fitter reads) is one array kernel over a grid of fields; the
scalar functions are one-element calls of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _cosh_times_exp_of

__all__ = [
    "CurveSeries",
    "TransportParams",
    "curve_series",
    "current_sge",
    "current_sge_log",
    "current_zener",
    "pair_separation",
    "sge_from_matrix_element_form",
]

CONVENTIONS = ("printed", "substituted")
MODELS = ("sge", "zener")
_COSH_ARG_MAX = math.acosh(np.finfo(float).max)  # largest |x| with finite cosh, sinh


@dataclass(frozen=True)
class TransportParams:
    """Constants of the two current laws and of the pair separation.

    e_t is the shared threshold, c_v and c_tilde1 the pair current's
    geometry factor and amplitude, g_p the Zener amplitude; delta_s and
    e_star give the separation L = (2 delta_s / e_star) / E.
    """

    e_t: float = 1.0
    c_v: float = 1.0
    c_tilde1: float = 1.0
    g_p: float = 1.0
    delta_s: float = 1.0
    e_star: float = 1.0

    def __post_init__(self):
        for name in ("e_t", "c_v", "c_tilde1", "g_p", "delta_s", "e_star"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite")


class CurveSeries:
    """Sampled (E, I) curve with strictly increasing positive fields."""

    def __init__(self, es, currents):
        es = np.asarray(es, dtype=float)
        currents = np.asarray(currents, dtype=float)
        if es.ndim != 1 or currents.ndim != 1 or es.size != currents.size:
            raise ValueError("es and currents must be 1-D arrays of equal length")
        if es.size == 0:
            raise ValueError("series must not be empty")
        if not (np.all(es > 0.0) and np.all(np.diff(es) > 0.0)):
            raise ValueError("fields must be positive and strictly increasing")
        ok = np.isfinite(currents) & (currents >= 0.0)
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(
                "currents must be finite and non-negative; the first bad one is"
                f" I = {currents[k]:.12g} at E = {es[k]:.12g}"
            )
        self.es = es
        self.currents = currents


def _check_field(e):
    if not e > 0.0:
        raise ValueError("field E must be positive")


def pair_separation(e, tp):
    """Pair separation (2 Delta_s / e*) / E; L is inversely proportional to E."""
    _check_field(e)
    return (2.0 * tp.delta_s / tp.e_star) * (1.0 / e)


def _substituted(convention):
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    return convention == "substituted"


def _sge_arg_expo(e, e_t, c_v, substituted):
    chi = e_t * c_v / e
    if substituted:
        # literal back-substitution of the pair geometry: the 1/2 next to
        # the observer point stays in the exponent and second cosh term
        arg = np.sqrt(2.0 / chi) - np.sqrt(0.5 * chi)
        expo = -0.5 * chi
    else:
        arg = np.sqrt(2.0 / chi) - np.sqrt(chi)
        expo = -chi
    return arg, expo


def _single_field(e):
    """The positive field ``e`` as a one-element array for the ``*_array`` kernels."""
    _check_field(e)
    return np.array([float(e)])


def current_sge(e, tp, convention="printed"):
    """Soliton-pair current at field e; see module docs for the convention flag.

    Overflow-safe: huge fields give inf, vanishing fields underflow to 0.0.
    """
    es = _single_field(e)
    return float(current_sge_array(es, tp.e_t, tp.c_v, tp.c_tilde1, _substituted(convention))[0])


def current_sge_array(es, e_t, c_v, c_tilde1, substituted):
    """Soliton-pair current over the float array of fields ``es``.

    Takes the raw parameter values: ``current_sge`` and ``curve_series``
    pass a ``TransportParams``'s, and ``verify.check_fit_roundtrip``
    broadcasts (m, 1) columns of them against ``es`` for a family of curves.
    """
    with np.errstate(all="ignore"):
        arg, expo = _sge_arg_expo(es, e_t, c_v, substituted)
        return c_tilde1 * _cosh_times_exp_of(np.abs(arg), np.cosh(arg), expo)


def current_sge_log(e, tp, convention="printed"):
    """ln of current_sge; stable where the current itself over/underflows.

    -inf where chi = E_T c_v / E overflows, the ln of a current below every
    double; ValueError, naming E, where chi underflows to 0.
    """
    _check_field(e)
    chi = tp.e_t * tp.c_v / float(e)
    if chi == 0.0:
        raise ValueError(f"chi = E_T c_v / E underflows to 0 at E = {e!r}")
    if chi == math.inf:
        return -math.inf
    arg, expo = _sge_arg_expo(float(e), tp.e_t, tp.c_v, _substituted(convention))
    a = abs(float(arg))
    # ln cosh(a) = a + ln(1 + e^(-2a)) - ln 2
    return math.log(tp.c_tilde1) + a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0) + float(expo)


def sge_jacobian(e, c_tilde1, c_v, e_t):
    """(dI/dc_tilde1, dI/dc_v) of the printed pair current at field e.

    Raises OverflowError, naming the fields, where |arg| exceeds about 710.48,
    the range of a bare cosh and sinh, unlike the overflow-safe current itself.
    """
    es = _single_field(e)
    g, dg, _ = sge_cv_derivatives_array(es, e_t, c_v)
    if np.isnan(dg[0]):
        raise _jacobian_overflow(es)
    return float(g[0]), float(c_tilde1 * dg[0])


def _jacobian_overflow(fields):
    """The OverflowError of a pair-current Jacobian whose cosh argument leaves its range at ``fields``."""
    return OverflowError(
        f"pair-current Jacobian overflows: |cosh argument| > {_COSH_ARG_MAX:.2f} for fields in"
        f" [{float(fields.min())!r}, {float(fields.max())!r}]"
    )


@np.errstate(all="ignore")
def sge_cv_derivatives_array(es, e_t, c_v):
    """(g, dg/dc_v, d2g/dc_v2) of the unit-amplitude printed pair current g = I / c_tilde1.

    ``es``, ``e_t`` and ``c_v`` broadcast together: fields of shape (n,)
    against parameters of shape (m, 1) give three (m, n) arrays, each row
    computed as its own one-row call computes it.  g is the overflow-safe
    current; both derivatives are nan where |arg| exceeds about 710.48, the
    range of a bare cosh and sinh, where ``sge_jacobian`` raises.  The
    floating-point errors of the evaluation are ignored: this is
    ``_sge_cv_derivatives`` under one ``np.errstate`` scope.
    """
    return _sge_cv_derivatives(es, e_t, c_v)


def _sge_cv_derivatives(es, e_t, c_v):
    """``sge_cv_derivatives_array`` without its error-state scope, for a caller that already ignores errors."""
    chi = c_v * e_t / es
    a = np.sqrt(2.0 / chi)
    b = np.sqrt(chi)
    arg = a - b
    size, cosh = np.abs(arg), np.cosh(arg)
    g = _cosh_times_exp_of(size, cosh, -chi)
    t = np.tanh(arg)
    # h = ln g against chi, with d arg/d chi = -(a+b)/(2 chi) and
    # d2 arg/d chi2 = (3a+b)/(4 chi^2):
    # chi h' = -(t (a+b)/2 + chi), chi^2 h'' = sech^2 (a+b)^2/4 + t (3a+b)/4;
    # then g' = g chi h' / c_v and g'' = g ((chi h')^2 + chi^2 h'') / c_v^2
    half_sum = 0.5 * (a + b)
    d1 = -(t * half_sum + chi)
    u = half_sum / cosh
    d2 = d1 * d1 + u * u + t * (0.75 * a + 0.25 * b)
    inv = 1.0 / c_v
    dg = g * d1 * inv
    d2g = g * d2 * (inv * inv)
    over = size > _COSH_ARG_MAX
    if over.any():
        dg[over] = math.nan
        d2g[over] = math.nan
    return g, dg, d2g


def current_zener(e, tp):
    """Zener law G_p (E - E_T) e^(-E_T/E) for E > E_T, else 0."""
    return float(current_zener_array(_single_field(e), tp.e_t, tp.g_p)[0])


def current_zener_array(es, e_t, g_p):
    """Zener law over the float array ``es``: one selection, +0.0 at and below E_T, under one error-state scope."""
    with np.errstate(all="ignore"):
        return np.where(es <= e_t, 0.0, g_p * (es - e_t) * np.exp(-e_t / es))


def sge_from_matrix_element_form(e, tp):
    """Printed current law re-assembled from the matrix-element form.

    The matrix-element magnitude reads cosh(2 sqrt(x/2L) - sqrt(L/2x))
    * exp(-aL L/(2x)) with aL = 1.  The printed law follows by absorbing
    the factor 2 into c_v exactly where the 1/2 sits next to the observer
    point: the exponent and second cosh term use L/(2x) := c_v E_T / E,
    while the first cosh term keeps the literal ratio L/x := c_v E_T / E.
    Agreeing with ``current_sge`` to rounding is the reconciliation check.
    Where a term leaves the double range so that no value is left (math
    raises, or cosh(inf) meets exp(-inf)), ValueError names E.
    """
    _check_field(e)
    chi = tp.c_v * tp.e_t / e
    try:
        first = 2.0 * math.sqrt(1.0 / (2.0 * chi))
        second = math.sqrt((2.0 * chi) / 2.0)
        expo = -1.0 * ((2.0 * chi) / 2.0)
        value = tp.c_tilde1 * math.cosh(first - second) * math.exp(expo)
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if math.isnan(value):
        raise ValueError(f"the matrix-element form leaves the double range at E = {e!r}")
    return value


def curve_series(model, tp, e_grid, convention="printed"):
    """Evaluate the selected current law on a strictly increasing grid.

    The whole grid goes through one array kernel; every value equals the
    scalar ``current_sge``/``current_zener`` at that field.  ``CurveSeries``
    checks the grid.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    es = np.asarray(e_grid, dtype=float)
    if model == "sge":
        vals = current_sge_array(es, tp.e_t, tp.c_v, tp.c_tilde1, _substituted(convention))
    else:
        vals = current_zener_array(es, tp.e_t, tp.g_p)
    return CurveSeries(es, vals)
