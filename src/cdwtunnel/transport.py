"""Field-to-geometry maps and the two current-vs-field laws.

``current_sge`` is the soliton-pair law as printed, with chi = E_T c_v / E:

    I = C~1 cosh(sqrt(2E/(E_T c_v)) - sqrt(chi)) exp(-chi)

Back-substituting the pair geometry into the matrix element instead yields
exp(-chi/2) and sqrt(chi/2); since c_v exists to absorb such bookkeeping,
both conventions are exposed through ``convention`` and the printed form is
the default.  The printed law is ungated below threshold (it carries no
threshold clause); the Zener law is zero at and below E_T.

Each law and the pair current's Jacobian is one array kernel over a grid of
fields; the scalar functions are one-element calls of it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import _COSH, _EXP, _SINH, _cosh_times_exp_array

__all__ = [
    "CurveSeries",
    "TransportParams",
    "curve_series",
    "current_sge",
    "current_sge_log",
    "current_zener",
    "l_over_x",
    "pair_separation",
    "reference_displacement",
    "sge_from_matrix_element_form",
    "tunneling_onset",
]

CONVENTIONS = ("printed", "substituted")
MODELS = ("sge", "zener")
_COSH_ARG_MAX = math.acosh(np.finfo(float).max)  # largest |x| with finite math.cosh, sinh


@dataclass(frozen=True)
class TransportParams:
    """Threshold, amplitudes and microscopic constants of the current laws."""

    e_t: float = 1.0
    c_v: float = 1.0
    c_tilde1: float = 1.0
    g_p: float = 1.0
    delta_s: float = 1.0
    e_star: float = 1.0
    eps_g: float = 1.0
    m_e: float = 1.0
    omega: float = 1.0
    e_charge: float = 1.0

    def __post_init__(self):
        for name in ("e_t", "c_v", "c_tilde1", "g_p", "delta_s", "e_star", "m_e", "omega", "e_charge"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if not (math.isfinite(self.eps_g) and self.eps_g >= 0.0):
            raise ValueError("eps_g must be non-negative and finite")


class CurveSeries:
    """Sampled (E, I) curve with strictly increasing positive fields."""

    def __init__(self, es, currents, label):
        es = np.asarray(es, dtype=float)
        currents = np.asarray(currents, dtype=float)
        if es.ndim != 1 or currents.ndim != 1 or es.size != currents.size:
            raise ValueError("es and currents must be 1-D arrays of equal length")
        if es.size == 0:
            raise ValueError("series must not be empty")
        if not (np.all(es > 0.0) and np.all(np.diff(es) > 0.0)):
            raise ValueError("fields must be positive and strictly increasing")
        if not np.all(np.isfinite(currents)) or np.any(currents < 0.0):
            raise ValueError("currents must be finite and non-negative")
        self.es = es
        self.currents = currents
        self.label = str(label)

    def __len__(self):
        return self.es.size

    def points(self):
        return list(zip(self.es.tolist(), self.currents.tolist()))


def _check_field(e):
    if not e > 0.0:
        raise ValueError("field E must be positive")


def pair_separation(e, tp):
    """Pair separation (2 Delta_s / e*) / E; L is inversely proportional to E."""
    _check_field(e)
    return (2.0 * tp.delta_s / tp.e_star) * (1.0 / e)


def tunneling_onset(e, tp):
    """Literal onset inequality e* E L(E) > eps_G.

    Because L(E) = (2 Delta_s/e*)/E, the product e* E L collapses to
    2 Delta_s and the outcome is independent of E; the literal inequality
    is evaluated anyway.
    """
    _check_field(e)
    return tp.e_star * e * pair_separation(e, tp) > tp.eps_g


def reference_displacement(e, tp):
    """Harmonic observer point e_charge E / (m omega^2)."""
    _check_field(e)
    return tp.e_charge * e / (tp.m_e * tp.omega**2)


def l_over_x(e, tp):
    """Separation-to-observer ratio c_v E_T / E."""
    _check_field(e)
    return tp.c_v * tp.e_t / e


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

    Takes the raw parameter values, so fits can pass trial values without
    building a ``TransportParams``.
    """
    with np.errstate(all="ignore"):
        arg, expo = _sge_arg_expo(es, e_t, c_v, substituted)
        return c_tilde1 * _cosh_times_exp_array(arg, expo)


def current_sge_log(e, tp, convention="printed"):
    """ln of current_sge; stable where the current itself over/underflows."""
    _check_field(e)
    arg, expo = _sge_arg_expo(float(e), tp.e_t, tp.c_v, _substituted(convention))
    a = abs(float(arg))
    # ln cosh(a) = a + ln(1 + e^(-2a)) - ln 2
    return math.log(tp.c_tilde1) + a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0) + float(expo)


def sge_jacobian(e, c_tilde1, c_v, e_t):
    """(dI/dc_tilde1, dI/dc_v) of the printed pair current at field e.

    Uses bare cosh/sinh, so it raises OverflowError, naming the fields,
    where |arg| exceeds about 710.48, unlike the overflow-safe current itself.
    """
    d_ct1, d_cv = sge_jacobian_array(_single_field(e), c_tilde1, c_v, e_t)
    return float(d_ct1[0]), float(d_cv[0])


def sge_jacobian_array(es, c_tilde1, c_v, e_t):
    """``sge_jacobian`` over the float array ``es``: two arrays, one element per field."""
    with np.errstate(all="ignore"):
        chi = c_v * e_t / es
        a = np.sqrt(2.0 / chi)
        b = np.sqrt(chi)
        arg = a - b
        try:
            cosh_arg, sinh_arg = _COSH(arg), _SINH(arg)
        except OverflowError:
            over = es[np.abs(arg) > _COSH_ARG_MAX]
            msg = f"pair-current Jacobian overflows: |cosh argument| > {_COSH_ARG_MAX:.2f} for fields in"
            raise OverflowError(f"{msg} [{float(over.min())!r}, {float(over.max())!r}]") from None
        decay = _EXP(-chi)
        # dI/dchi = C~1 e^-chi [sinh(arg)(-(a+b)/(2 chi)) - cosh(arg)], dchi/dc_v = chi/c_v
        dchi = c_tilde1 * decay * (-sinh_arg * (a + b) / (2.0 * chi) - cosh_arg)
        return cosh_arg * decay, dchi * chi / c_v


def current_zener(e, tp):
    """Zener law G_p (E - E_T) e^(-E_T/E) for E > E_T, else 0."""
    return float(current_zener_array(_single_field(e), tp.e_t, tp.g_p)[0])


def current_zener_array(es, e_t, g_p):
    """Zener law over the float array of fields ``es``."""
    out = np.zeros_like(es)
    above = ~(es <= e_t)
    ea = es[above]
    with np.errstate(all="ignore"):
        out[above] = g_p * (ea - e_t) * _EXP(-e_t / ea)
    return out


def sge_from_matrix_element_form(e, tp):
    """Printed current law re-assembled from the matrix-element form.

    The matrix-element magnitude reads cosh(2 sqrt(x/2L) - sqrt(L/2x))
    * exp(-aL L/(2x)) with aL = 1.  The printed law follows by absorbing
    the factor 2 into c_v exactly where the 1/2 sits next to the observer
    point: the exponent and second cosh term use L/(2x) := c_v E_T / E,
    while the first cosh term keeps the literal ratio L/x := c_v E_T / E.
    Agreeing with ``current_sge`` to rounding is the reconciliation check.
    """
    _check_field(e)
    chi = tp.c_v * tp.e_t / e
    first = 2.0 * math.sqrt(1.0 / (2.0 * chi))
    second = math.sqrt((2.0 * chi) / 2.0)
    expo = -1.0 * ((2.0 * chi) / 2.0)
    return tp.c_tilde1 * math.cosh(first - second) * math.exp(expo)


def curve_series(model, tp, e_grid, convention="printed"):
    """Evaluate the selected current law on a strictly increasing grid.

    The whole grid goes through one array kernel; every value equals the
    scalar ``current_sge``/``current_zener`` at that field.
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    es = np.asarray(e_grid, dtype=float)
    if es.ndim != 1 or es.size == 0:
        raise ValueError("e_grid must be a non-empty 1-D array")
    if not (np.all(es > 0.0) and np.all(np.diff(es) > 0.0)):
        raise ValueError("e_grid must be positive and strictly increasing")
    if model == "sge":
        vals = current_sge_array(es, tp.e_t, tp.c_v, tp.c_tilde1, _substituted(convention))
    else:
        vals = current_zener_array(es, tp.e_t, tp.g_p)
    return CurveSeries(es, vals, label=model)
