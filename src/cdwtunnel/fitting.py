"""Curve comparison and fits of the pair current against Zener-law samples.

The threshold E_T is shared between the two laws, never fitted; only the
amplitude c_tilde1 and the geometry factor c_v are free.  A comparison is
the relative RMS normalized by the second series, so it is deliberately
asymmetric in its arguments.

Fits evaluate whole grids: the model and Jacobian handed to
``least_squares_fit`` each compute every field point in one call of the
``*_array`` kernels, from the trial values of the free parameters alone.
No ``TransportParams`` is built per point or per trial; the fields are
checked once, before the fit starts.
"""

import dataclasses
import math

import numpy as np

from .numerics import least_squares_fit

# ``current_sge`` is not called here: it is imported so that the name
# ``fitting.current_sge``, which perfbench's tracer wraps to count per-point
# model evaluations, keeps existing.
from .transport import current_sge, current_sge_array, current_zener_array, sge_jacobian_array
from .transport import sge_jacobian as sge_model_jacobian

__all__ = [
    "FIG2B_REFERENCE_RMS_REL",
    "FIG2B_WINDOW",
    "FREE_PARAM_ORDER",
    "compare_series",
    "fit_sge_to_points",
    "fit_sge_to_zener",
    "sge_model_jacobian",
    "transport_with",
]

FREE_PARAM_ORDER = ("c_tilde1", "c_v")

# Comparison window in units of E_T; near threshold the Zener law vanishes
# and relative metrics diverge.
FIG2B_WINDOW = (1.2, 5.0)

# Relative RMS of the converged reference fit (window above, 100 linear
# points, E_T = 1, G_p = 1, start c_tilde1 = c_v = 1), measured once by this
# repository's own fitter and kept as a regression constant: later runs
# must reproduce it to 1%.
FIG2B_REFERENCE_RMS_REL = 0.4755059374594367


def compare_series(a, b, window):
    """b-normalized relative RMS sqrt(mean(((a-b)/b)^2)) of series a from series b.

    Both series must carry identical E grids inside the window and b must
    be nonzero there.  Swapping the arguments changes the normalization, so
    the result is not symmetric.
    """
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must satisfy lo < hi")
    sel_a = (a.es >= lo) & (a.es <= hi)
    sel_b = (b.es >= lo) & (b.es <= hi)
    ea, eb = a.es[sel_a], b.es[sel_b]
    if ea.size == 0:
        raise ValueError("window contains no points")
    if ea.size != eb.size or not np.array_equal(ea, eb):
        raise ValueError("series grids differ inside the window")
    ya, yb = a.currents[sel_a], b.currents[sel_b]
    if np.any(yb == 0.0):
        raise ValueError("second series is zero inside the window")
    rel = (ya - yb) / yb
    return float(np.sqrt(np.mean(rel**2)))


def transport_with(base, free, values):
    """Copy of ``base`` with the named free parameters replaced by ``values``."""
    names = [n for n in FREE_PARAM_ORDER if n in free]
    if len(names) != len(values):
        raise ValueError("one value per free parameter required")
    return dataclasses.replace(base, **dict(zip(names, (float(v) for v in values))))


def _validate_grid(e_grid, e_t):
    es = np.asarray(e_grid, dtype=float)
    if es.ndim != 1 or es.size == 0:
        raise ValueError("field grid must be a non-empty 1-D array")
    if not np.all(np.diff(es) > 0.0):
        raise ValueError("field grid must be strictly increasing")
    if np.any(es <= e_t):
        raise ValueError("field grid must lie strictly above the threshold E_T")
    return es


def fit_sge_to_points(es, targets, free, start):
    """Fit the printed pair current to (E, I) samples, freeing only ``free``.

    Free parameters are taken in FREE_PARAM_ORDER; everything else is held
    at ``start``.  Every field must be positive.  An empty ``free`` set is a
    zero-parameter ``least_squares_fit``: it reports the residual of the
    start parameters after 0 iterations and raises the start errors of a fit.
    """
    es = np.asarray(es, dtype=float)
    targets = np.asarray(targets, dtype=float)
    names = [n for n in FREE_PARAM_ORDER if n in free]
    unknown = set(free) - set(FREE_PARAM_ORDER)
    if unknown:
        raise ValueError(f"cannot free {sorted(unknown)}; allowed: {FREE_PARAM_ORDER}")
    if not np.all(es > 0.0):
        raise ValueError("field E must be positive")

    def unpack(params):
        values = dict(zip(names, map(float, params)))
        return values.get("c_tilde1", start.c_tilde1), values.get("c_v", start.c_v)

    def model(xs, params):
        if not all(math.isfinite(v) and v > 0.0 for v in params):
            return np.full(xs.size, math.inf)
        c_tilde1, c_v = unpack(params)
        return current_sge_array(xs, start.e_t, c_v, c_tilde1, False)

    def jacobian(xs, params):
        c_tilde1, c_v = unpack(params)
        d_ct1, d_cv = sge_jacobian_array(xs, c_tilde1, c_v, start.e_t)
        columns = {"c_tilde1": d_ct1, "c_v": d_cv}
        return np.column_stack([columns[n] for n in names])

    params0 = np.array([getattr(start, n) for n in names], dtype=float)
    return least_squares_fit(model, params0, np.column_stack((es, targets)), jacobian)


def fit_sge_to_zener(tp_zener, e_grid, free=frozenset(FREE_PARAM_ORDER), start=None):
    """Fit the pair current to Zener-law samples on a shared above-threshold grid.

    E_T is held fixed at the Zener value.  A grid point at or below E_T is a
    domain error (the Zener law is zero there and relative comparison is
    meaningless); non-convergence is reported through the FitResult flag.
    """
    es = _validate_grid(e_grid, tp_zener.e_t)
    if start is None:
        start = tp_zener
    if start.e_t != tp_zener.e_t:
        start = transport_with(tp_zener, ("c_tilde1", "c_v"), (start.c_tilde1, start.c_v))
    targets = current_zener_array(es, tp_zener.e_t, tp_zener.g_p)
    return fit_sge_to_points(es, targets, free, start)
