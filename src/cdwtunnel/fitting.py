"""Curve comparison and fits of the pair current against Zener-law samples.

E_T is shared between the two laws and never fitted: a Zener fit takes it
from the Zener parameters alone.  Only the amplitude c_tilde1 and the
geometry factor c_v are free.  A comparison is the relative RMS normalized
by the second series, so it is deliberately asymmetric in its arguments.

The pair current is I = c_tilde1 g(E; c_v), linear in its amplitude, so a
fit is variable projection (Golub and Pereyra, SIAM J. Numer. Anal. 10,
413, 1973): at each c_v the best amplitude is <g, y>/<g, g> in closed
form, and what is left is a one-dimensional problem in c_v, solved by a
safeguarded Newton iteration on the exact first and second derivatives of
the projected cost.  ``fit_sge_family`` fits many target rows on one field
grid in lockstep, for every free set, and builds each member's result in
the round it stops.  Only the grid work of a round is numpy, on the (m, n)
rows of the members still stepping: one kernel call, the power-of-two
scaling and the row sums.  Each member's bookkeeping (c_v, amplitude, cost,
Newton step, stop tests) is Python floats, read from those row sums once
per round, so it costs a few float operations per member rather than a
numpy call per quantity.  The whole fit runs under one ``np.errstate``
scope, so the kernel (``sge_cv_derivatives_array`` without its own scope)
opens none.  Where Python's floats would raise or differ, ``_projected``
writes out numpy's two zero divisions, ``_ldexp`` an overflow (a result)
and ``_moves`` np.spacing (inf at the largest double, unlike math.ulp).
``fit_sge_to_points`` is that family with one member, each member is bit
for bit its own one-member fit, and a failing family raises by the
batch-engine convention ``numerics`` states.  No ``TransportParams`` is
built per point or per trial.
"""

import dataclasses
import math

import numpy as np

from .numerics import _member_error

# ``current_sge`` and ``sge_model_jacobian`` are not called here: they are
# imported so that the names ``fitting.current_sge`` and
# ``fitting.sge_model_jacobian``, which perfbench's tracer wraps to count
# per-point model and Jacobian evaluations, keep existing.
from .transport import _jacobian_overflow, _sge_cv_derivatives, current_sge, curve_series
from .transport import sge_jacobian as sge_model_jacobian

__all__ = [
    "FIG2B_REFERENCE_RMS_REL",
    "FIG2B_WINDOW",
    "FREE_PARAM_ORDER",
    "FitResult",
    "compare_series",
    "fit_sge_family",
    "fit_sge_to_points",
    "fit_sge_to_zener",
    "transport_with",
]

FREE_PARAM_ORDER = ("c_tilde1", "c_v")

# Field span of the reference fit in units of E_T; near threshold the Zener
# law vanishes and relative metrics diverge.
FIG2B_WINDOW = (1.2, 5.0)

# Relative RMS of the converged reference fit (span above, 100 linear
# points, E_T = 1, G_p = 1, start c_tilde1 = c_v = 1), measured once by this
# repository's own fitter and kept as a regression constant: later runs
# must reproduce it to 1%.
FIG2B_REFERENCE_RMS_REL = 0.4755059374594367

_STOP_REASONS = ("converged", "max_iter")


@dataclasses.dataclass
class FitResult:
    """Outcome of one fit: the free parameters in FREE_PARAM_ORDER and the residual rms.

    ``iterations`` counts the fitter's trial steps.  ``stop`` says why the
    fit ended: ``"converged"`` (one of the fitter's stop tests passed) or
    ``"max_iter"`` (the budget of trial steps ran out).  ``converged`` is
    read from ``stop``.
    """

    params: np.ndarray
    residual_rms: float
    iterations: int
    stop: str = "converged"

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.stop not in _STOP_REASONS:
            raise ValueError(f"stop must be one of {_STOP_REASONS}")
        if self.converged and not (math.isfinite(self.residual_rms) and self.residual_rms >= 0.0):
            raise ValueError("converged fit must carry a finite non-negative residual")

    @property
    def converged(self):
        """True exactly when ``stop`` is ``"converged"``."""
        return self.stop == "converged"


def compare_series(a, b):
    """b-normalized relative RMS sqrt(mean(((a-b)/b)^2)) of series a from series b.

    The E grids must be identical and b nonzero on them; swapping the
    arguments changes the normalization, so the result is not symmetric.
    """
    if not np.array_equal(a.es, b.es):
        raise ValueError("series grids differ")
    if np.any(b.currents == 0.0):
        raise ValueError("second series is zero on the grid")
    rel = (a.currents - b.currents) / b.currents
    return float(np.sqrt(np.mean(rel**2)))


def _free_names(free):
    """The names in ``free``, in FREE_PARAM_ORDER; ValueError names any other."""
    unknown = set(free) - set(FREE_PARAM_ORDER)
    if unknown:
        raise ValueError(f"cannot free {sorted(unknown)}; allowed: {list(FREE_PARAM_ORDER)}")
    return [n for n in FREE_PARAM_ORDER if n in free]


def transport_with(base, free, values):
    """Copy of ``base`` with the named free parameters replaced by ``values``."""
    names = _free_names(free)
    if len(names) != len(values):
        raise ValueError("one value per free parameter required")
    return dataclasses.replace(base, **dict(zip(names, (float(v) for v in values))))


# Stop tests of the c_v iteration: the cosine of dg/dc_v and the residual
# (_GTOL), the actual and predicted cost reductions of a step relative to the
# cost (_FTOL), the residual norm relative to the target norm
# (_RESIDUAL_FLOOR) and the length of a step in ulp of c_v (_STEP_ULPS).
# _MAX_ROUNDS bounds the trial steps of one member, and _LN2 one step in ln c_v.
_GTOL = 1e-12
_FTOL = 1e-14
_RESIDUAL_FLOOR = 16.0 * np.finfo(float).eps
_STEP_ULPS = 4.0
_MAX_ROUNDS = 200
_LN2 = float(np.log(2.0))


def fit_sge_to_points(es, targets, free, start):
    """Fit the printed pair current to (E, I) samples, freeing only ``free``.

    ``fit_sge_family`` with one member: its result and errors are that
    member's, ``member`` 0 included.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("targets must be one-dimensional")
    return fit_sge_family(es, targets[None, :], free, [start])[0]


@np.errstate(all="ignore")
def fit_sge_family(es, targets, free, starts):
    """Fit each row of ``targets`` on the field grid ``es`` from its own start, in lockstep.

    ``es`` holds the n positive fields, ``targets`` the (m, n) currents and
    ``starts`` m ``TransportParams``; ``free`` (a subset of FREE_PARAM_ORDER)
    is shared.  Free parameters are taken in FREE_PARAM_ORDER; everything
    else is held at the member's start.  Returns m ``FitResult``s.

    c_tilde1, where free, is the closed form <g, y>/<g, g> at each c_v,
    with g the unit-amplitude pair current; it carries the sign of <g, y>,
    and falls back to the start value where g vanishes on every field.  It
    is not constrained: data whose currents are mostly negative fit a
    negative c_tilde1, which ``TransportParams`` rejects, so a caller that
    builds the model from the fit checks the sign.
    c_v, where free, takes safeguarded Newton steps on the cost with the
    amplitude projected out (or held, for ``{"c_v"}``), from the exact
    first and second c_v-derivatives of that cost.  The steps are taken in
    ln c_v, which keeps c_v positive: a step at most doubles or halves c_v,
    goes that far downhill where the curvature is not positive, and is
    halved when its trial does not lower the cost.  ``iterations`` counts
    these trial steps; ``{"c_tilde1"}`` and ``{}`` take none.  Converged
    means the residual is at the rounding level of the targets (16 ulp of
    their norm), dg/dc_v is within a cosine of 1e-12 of orthogonal to the
    residual, the cost no longer resolves a step (actual and predicted
    reductions both at most 1e-14 of it, or a rejected step predicted to
    gain less than that or the rounding level), or the step is at most 4
    ulp of c_v; else the fit stops at ``"max_iter"`` after 200 trial steps.

    Every free set runs one round loop (with c_v held, all stop in round
    0), each round one kernel call on the rows of the members still
    stepping; a member's ``FitResult`` is built in the round it stops, which
    is its ``iterations``.  The (m, n) work stays in numpy; every quantity
    of one member is a Python float (or int), one list entry per member
    still stepping, read from the row sums once per round: a member that
    takes its trial moves to it, and one that rejects it keeps its state
    and halves its step.  Floating-point errors are ignored for the whole
    fit, in this one scope, and numpy's value is written out where Python's
    floats would raise or differ: ``_projected`` its two zero divisions,
    ``_ldexp`` an overflow (a result) and ``_moves`` np.spacing (inf at the
    largest double).  Every per-member reduction is a row sum, so each
    member is bit for bit its own one-member fit.  Targets and g are scaled
    by powers of two to a largest magnitude below 1, so no sum of squares
    overflows; the amplitude and rms are scaled back.

    The start checks read the scaled problem: a g that is not finite, or a
    start rms that is not finite once scaled back, raises ValueError; with
    a parameter free, a cosh argument past the range of the Jacobian raises
    OverflowError naming the fields, as does a derivative of the cost that
    is not finite.  The error of the lowest-index failing member is
    raised, with its index as ``member``.
    """
    es = np.asarray(es, dtype=float)
    targets = np.asarray(targets, dtype=float)
    names = _free_names(free)
    if es.ndim != 1 or es.size == 0:
        raise ValueError("fields must be a non-empty one-dimensional array")
    if targets.shape != (len(starts), es.size):
        raise ValueError(f"targets must have shape ({len(starts)}, {es.size}), got {targets.shape}")
    if not np.all(es > 0.0):
        raise ValueError("field E must be positive")
    if not np.all(np.isfinite(targets)):
        raise ValueError("targets must be finite")
    m, n = targets.shape
    e_t = np.array([s.e_t for s in starts], dtype=float)
    c_v = np.array([s.c_v for s in starts], dtype=float)
    held = [float(s.c_tilde1) for s in starts]
    g, dg, d2g, k = _scaled(es, e_t, c_v)
    c_v = c_v.tolist()
    # the scaled problem: targets over 2^ky with ky the exponent of each row's max |y|
    ky = np.frexp(np.abs(targets).max(axis=1))[1]
    y = np.ldexp(targets, -ky[:, None])
    floor = ((_RESIDUAL_FLOOR * np.sqrt(_rowdot(y, y))) ** 2).tolist()
    ky = ky.tolist()
    project = "c_tilde1" in names
    c, cost, derivable, slope, used, step, go = _projected(
        y, g, dg, d2g, held, [a - b for a, b in zip(k, ky)], project, c_v, floor
    )

    # the start checks, on the scaled problem
    unevaluable = (~np.isfinite(g).all(axis=1)).tolist()
    out_of_range = np.isnan(dg).any(axis=1).tolist()
    for i in range(m):
        if unevaluable[i]:
            exc = ValueError("model is not evaluable at the initial parameters")
        elif not math.isfinite(_ldexp(math.sqrt(cost[i] / n), ky[i])):
            exc = ValueError("sum of squared residuals overflows at the initial parameters")
        elif out_of_range[i] and names:
            exc = _jacobian_overflow(es[np.isnan(dg[i])])
        elif not derivable[i] and "c_v" in names:
            exc = OverflowError(f"c_v derivatives of the cost are not finite at c_v = {c_v[i]!r}")
        else:
            continue
        raise _member_error(exc, i)

    # The members still stepping (``live``) keep their state in lists, one
    # entry each, and their rows of ``e_t`` and ``y``; all of them shrink when
    # some member stops.  All enter at round 0 and none re-enters, so a
    # member stopping in a round took that many steps.
    fits = [None] * m
    live, rounds = list(range(m)), 0
    if "c_v" not in names:
        go = [False] * m  # with c_v held, every member stops in round 0
    while live:
        spent = rounds == _MAX_ROUNDS
        if spent or not all(go):
            for j, on in enumerate(go):
                if spent or not on:
                    params = [_ldexp(c[j], ky[j] - k[j]) if name == "c_tilde1" else c_v[j] for name in names]
                    rms = _ldexp(math.sqrt(cost[j] / n), ky[j])
                    fits[live[j]] = FitResult(params, rms, rounds, "max_iter" if on else "converged")
            if spent or not any(go):
                break
            keep = [j for j, on in enumerate(go) if on]
            e_t, y = e_t[keep], y[keep]
            live, c_v, held, ky, floor, k, c, cost, slope, used, step = (
                [v[j] for j in keep] for v in (live, c_v, held, ky, floor, k, c, cost, slope, used, step)
            )
        rounds += 1
        trial = np.multiply(c_v, np.exp(step))
        gt, dgt, d2gt, kt = _scaled(es, e_t, trial)
        shift = [a - b for a, b in zip(kt, ky)]
        trial = trial.tolist()
        c_t, cost_t, derivable, slope_t, used_t, planned, onward = _projected(
            y, gt, dgt, d2gt, held, shift, project, trial, floor
        )
        go = []
        for j, (cost_j, cost_tj, step_j) in enumerate(zip(cost, cost_t, step)):
            tol = _FTOL * cost_j
            predicted = -(2.0 * slope[j] + used[j] * step_j) * step_j
            # the cost no longer resolves the step: converged, at the trial if it is no worse
            unresolved = abs(cost_j - cost_tj) <= tol and predicted <= tol
            if derivable[j] and (cost_tj < cost_j or unresolved and cost_tj <= cost_j):
                # a member that takes its trial steps on from it by its new plan
                c_v[j], k[j], c[j], cost[j] = trial[j], kt[j], c_t[j], cost_tj
                slope[j], used[j], step[j] = slope_t[j], used_t[j], planned[j]
                go.append(not unresolved and onward[j])
            else:
                # one that rejects it steps on from where it was by half its step,
                # unless the step is predicted to gain less than the cost resolves
                # (1e-14 of it, or the residual floor): halving only shrinks that
                step[j] = half = 0.5 * step_j
                go.append(not unresolved and predicted > tol and predicted > floor[j] and _moves(half, c_v[j]))
    return fits


def _rowdot(a, b):
    """Row sums of a * b; an axis sum, not a BLAS product, so a row does not depend on the others."""
    return np.add.reduce(a * b, axis=1)


def _scaled(es, e_t, c_v):
    """g, dg/dc_v and d2g/dc_v2 per row, each divided by 2^k with k the exponent of the row's max g, and k.

    g is at least +0 or nan, so its max is its max magnitude.  The kernel
    body opens no ``np.errstate`` of its own; it runs inside the fit's.
    """
    g, dg, d2g = _sge_cv_derivatives(es, e_t[:, None], c_v[:, None])
    k = np.frexp(np.maximum.reduce(g, axis=1))[1]
    shift = -k[:, None]
    return np.ldexp(g, shift), np.ldexp(dg, shift), np.ldexp(d2g, shift), k.tolist()


def _projected(y, g, dg, d2g, held, shift, project, c_v, floor):
    """Each row's amplitude, cost and Newton step in ln c_v, as lists with one entry per row.

    The held amplitude of a row is its ``held`` times 2^``shift``; with
    ``project`` it is replaced by <g, y>/<g, g> wherever <g, g> > 0.  The
    cost's c_v-gradient is -2 c <dg, r>, from the residual r itself: it does
    not cancel on a zero-residual fit.  Its curvature is exact (Golub and
    Pereyra's, where the amplitude is projected).  Returned are the
    amplitude, the cost, whether that gradient and curvature are finite,
    the cost's slope and the curvature used in ln c_v (each halved), the
    step bounded to ±ln 2, and whether to take it: the cost is above its
    ``floor``, dg/dc_v is not within a cosine of 1e-12 of orthogonal to r,
    and the step is finite and moves c_v.
    """
    gg = _rowdot(g, g).tolist()
    if project:
        gy = _rowdot(g, y).tolist()
        c = [b / a if a > 0.0 else _ldexp(h, s) for a, b, h, s in zip(gg, gy, held, shift)]
    else:
        c = [_ldexp(h, s) for h, s in zip(held, shift)]
    r = y - np.array(c)[:, None] * g
    cost, g1r, g1g1, g2r = (_rowdot(a, b).tolist() for a, b in ((r, r), (dg, r), (dg, dg), (d2g, r)))
    gdg = _rowdot(g, dg).tolist() if project else gg  # read only with project
    derivable, slope, used, step, go = [], [], [], [], []
    for c_j, cost_j, g1r_j, g1g1_j, g2r_j, gdg_j, gg_j, v, f0 in zip(c, cost, g1r, g1g1, g2r, gdg, gg, c_v, floor):
        grad = -c_j * g1r_j
        curvature = c_j * (c_j * g1g1_j - g2r_j)
        if project:
            # the amplitude moves at dc/dc_v = (<dg, r> - c <g, dg>)/<g, g>; at <g, g> = 0, dc^2 <g, g> is nan
            dc = (g1r_j - c_j * gdg_j) / gg_j if gg_j > 0.0 else math.nan
            curvature -= dc * dc * gg_j
        derivable.append(math.isfinite(grad) and math.isfinite(curvature))
        # the Newton step in ln c_v, bounded to ±ln 2 (max and min pass a nan); a curvature that is
        # not positive divides by zero as -slope inf: downhill to the bound, nan at a slope of ±0 or nan
        slope_j, used_j = v * grad, v * (v * curvature + grad)
        step_j = min(max(-slope_j / used_j if used_j > 0.0 else -slope_j * math.inf, -_LN2), _LN2)
        slope.append(slope_j)
        used.append(used_j)
        step.append(step_j)
        flat = abs(g1r_j) <= _GTOL * math.sqrt(g1g1_j * cost_j)
        go.append(cost_j > f0 and not flat and math.isfinite(step_j) and _moves(step_j, v))
    return c, cost, derivable, slope, used, step, go


# The two float helpers left: ``_ldexp``, whose overflow is a result (an infinite amplitude,
# an overflowing start rms), and ``_moves``, as np.spacing is inf at the largest double where
# math.ulp is finite.  ``_projected`` writes out its two divisions that can meet a zero denominator.


def _ldexp(x, e):
    """x 2^e; a result past the double range is ±inf instead of OverflowError."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _moves(step, c_v):
    """Whether a step in ln c_v is longer than 4 ulp of c_v, as ``|step| c_v > 4 np.spacing(c_v)`` reads.

    c_v is never negative (a fit starts positive, and a step multiplies it by
    exp(step)), so np.spacing(c_v) is the gap to the next float up: inf at the
    largest double, where math.ulp is finite, and nan at inf and nan.
    """
    return abs(step) * c_v > _STEP_ULPS * (math.nextafter(c_v, math.inf) - c_v)


def fit_sge_to_zener(tp_zener, e_grid, free=frozenset(FREE_PARAM_ORDER), start=None):
    """Fit the pair current to Zener-law samples on a shared above-threshold grid.

    ``start`` (default ``tp_zener``) gives the starting c_tilde1 and c_v and
    must share the Zener E_T.  A grid point at or below E_T is a domain error
    (the Zener law is zero there); the targets' ``CurveSeries`` checks the
    rest of the grid.  Non-convergence is reported through the FitResult flag.
    """
    if np.any(np.asarray(e_grid, dtype=float) <= tp_zener.e_t):
        raise ValueError("field grid must lie strictly above the threshold E_T")
    start = tp_zener if start is None else start
    if start.e_t != tp_zener.e_t:
        raise ValueError(f"start E_T = {start.e_t!r} differs from the Zener E_T = {tp_zener.e_t!r}")
    targets = curve_series("zener", tp_zener, e_grid)
    return fit_sge_to_points(targets.es, targets.currents, free, start)
