"""Curve comparison and fits of the pair current against Zener-law samples.

E_T is shared between the two laws and never fitted: a Zener fit takes it
from the Zener parameters alone.  Only the amplitude c_tilde1 and the
geometry factor c_v are free.  The pair current is I = c_tilde1 g(E; c_v),
linear in its amplitude, so a fit is variable projection (Golub and
Pereyra, SIAM J. Numer. Anal. 10, 413, 1973): the amplitude is projected
out in closed form, and c_v takes safeguarded Newton steps on what is left.
"""

import dataclasses
import math

import numpy as np

from .numerics import _member_error

# current_sge and sge_model_jacobian are not called here: perfbench's tracer
# wraps the names fitting.current_sge and fitting.sge_model_jacobian.
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
    arguments changes the normalization, so the result is not symmetric.  A
    relative deviation beyond the double range is a ValueError naming its
    first field and the two currents there; where only the squares overflow,
    the deviations are scaled by their largest magnitude first.
    """
    if not np.array_equal(a.es, b.es):
        raise ValueError("series grids differ")
    if np.any(b.currents == 0.0):
        raise ValueError("second series is zero on the grid")
    with np.errstate(over="ignore"):
        rel = (a.currents - b.currents) / b.currents
        finite = np.isfinite(rel)
        if not finite.all():
            k = int(np.argmin(finite))
            raise ValueError(
                f"relative deviation (a - b)/b is not finite at E = {b.es[k]:.12g}:"
                f" a = {a.currents[k]:.12g}, b = {b.currents[k]:.12g}"
            )
        rms = float(np.sqrt(np.mean(rel**2)))
        if rms == math.inf:
            scale = float(np.max(np.abs(rel)))
            rms = scale * float(np.sqrt(np.mean((rel / scale) ** 2)))
    return rms


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
    """Fit the printed pair current to (E, I) samples, freeing only ``free``: ``fit_sge_family`` with one member."""
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
    is its ``iterations``.  The (m, n) work stays in numpy; each member's
    state is its last accepted record (``_projected``'s), Python floats
    read from the row sums once per round under the fit's one
    ``np.errstate`` scope.  A taken trial's record replaces it; a rejected
    trial keeps it with its step halved.  Every per-member reduction
    is a row sum, so each member is bit for bit its own one-member fit.
    Targets and g are scaled by powers of two to a largest magnitude below
    1, so no sum of squares overflows; the amplitude and rms are scaled back.

    The start checks read the scaled problem: a g that is not finite, or a
    start rms that is not finite once scaled back, raises ValueError; with
    a parameter free, a cosh argument past the range of the Jacobian raises
    OverflowError naming the fields, as does a derivative of the cost that
    is not finite.  Errors follow the batch-engine rule of ``numerics``.
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
    # the scaled problem: targets over 2^ky with ky the exponent of each row's max |y|
    ky = np.frexp(np.abs(targets).max(axis=1))[1]
    y = np.ldexp(targets, -ky[:, None])
    floor = ((_RESIDUAL_FLOOR * np.sqrt(_rowdot(y, y))) ** 2).tolist()
    ky = ky.tolist()
    project = "c_tilde1" in names
    now = _projected(y, g, dg, d2g, held, [a - b for a, b in zip(k, ky)], project, c_v.tolist(), floor)

    # the start checks, on the scaled problem
    unevaluable = (~np.isfinite(g).all(axis=1)).tolist()
    out_of_range = np.isnan(dg).any(axis=1).tolist()
    for i, (c_v_i, _, _, cost, derivable, *_) in enumerate(now):
        if unevaluable[i]:
            exc = ValueError("model is not evaluable at the initial parameters")
        elif not math.isfinite(_ldexp(math.sqrt(cost / n), ky[i])):
            exc = ValueError("sum of squared residuals overflows at the initial parameters")
        elif out_of_range[i] and names:
            exc = _jacobian_overflow(es[np.isnan(dg[i])])
        elif not derivable and "c_v" in names:
            exc = OverflowError(f"c_v derivatives of the cost are not finite at c_v = {c_v_i!r}")
        else:
            continue
        raise _member_error(exc, i)

    # ``now`` holds the record of each member still stepping (``live``); it,
    # their ``held``, ``ky`` and ``floor`` and their rows of ``e_t`` and ``y``
    # shrink when some member stops.  All enter at round 0 and none
    # re-enters, so a member stopping in a round took that many steps.
    fits, live = [None] * m, list(range(m))
    # with c_v held, every member stops in round 0
    go = [record[-1] for record in now] if "c_v" in names else [False] * m
    for rounds in range(_MAX_ROUNDS + 1):
        spent = rounds == _MAX_ROUNDS
        if spent or not go or not all(go):  # an empty family ends at once
            for j, on in enumerate(go):
                if spent or not on:
                    c_v_j, shift, c, cost, *_ = now[j]
                    params = [_ldexp(c, -shift) if name == "c_tilde1" else c_v_j for name in names]
                    rms = _ldexp(math.sqrt(cost / n), ky[j])
                    fits[live[j]] = FitResult(params, rms, rounds, "max_iter" if on else "converged")
            if spent or not any(go):
                break
            keep = [j for j, on in enumerate(go) if on]
            e_t, y = e_t[keep], y[keep]
            live, now, held, ky, floor = ([v[j] for j in keep] for v in (live, now, held, ky, floor))
        trial = np.multiply([record[0] for record in now], np.exp([record[7] for record in now]))
        gt, dgt, d2gt, kt = _scaled(es, e_t, trial)
        tried = _projected(y, gt, dgt, d2gt, held, [a - b for a, b in zip(kt, ky)], project, trial.tolist(), floor)
        go = []
        for j, (old, new) in enumerate(zip(now, tried)):
            c_v_j, shift, c, cost, derivable, slope, used, step, onward = old
            _, _, _, cost_t, derivable_t, _, _, _, onward_t = new
            tol = _FTOL * cost
            predicted = -(2.0 * slope + used * step) * step
            # the cost no longer resolves the step: converged, at the trial if it is no worse
            unresolved = abs(cost - cost_t) <= tol and predicted <= tol
            if derivable_t and (cost_t < cost or unresolved and cost_t <= cost):
                # a member that takes its trial steps on from it by its new plan
                now[j] = new
                go.append(not unresolved and onward_t)
            else:
                # one that rejects it steps on from where it was by half its step,
                # unless the step is predicted to gain less than the cost resolves
                # (1e-14 of it, or the residual floor): halving only shrinks that
                now[j] = (c_v_j, shift, c, cost, derivable, slope, used, 0.5 * step, onward)
                go.append(not unresolved and predicted > tol and predicted > floor[j] and _moves(0.5 * step, c_v_j))
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
    """One record per row: (c_v, shift, amplitude, cost, derivable, slope, used, step, go).

    ``c_v`` and ``shift`` are the row's own.  The held amplitude of a row is
    its ``held`` times 2^``shift``; with ``project`` it is replaced by
    <g, y>/<g, g> wherever <g, g> > 0.  The cost's c_v-gradient is
    -2 c <dg, r>, from the residual r itself: it does not cancel on a
    zero-residual fit.  Its curvature is exact (Golub and Pereyra's, where
    the amplitude is projected).  ``derivable`` says whether that gradient
    and curvature are finite; ``slope`` and ``used`` are the cost's slope
    and the curvature used in ln c_v (each halved), ``step`` the Newton step
    in ln c_v bounded to ±ln 2, and ``go`` whether to take it: the cost is
    above its ``floor``, dg/dc_v is not within a cosine of 1e-12 of
    orthogonal to r, and the step is finite and moves c_v.
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
    records = []
    for v, s, c_j, cost_j, g1r_j, g1g1_j, g2r_j, gdg_j, gg_j, f0 in zip(
        c_v, shift, c, cost, g1r, g1g1, g2r, gdg, gg, floor
    ):
        grad = -c_j * g1r_j
        curvature = c_j * (c_j * g1g1_j - g2r_j)
        if project:
            # the amplitude moves at dc/dc_v = (<dg, r> - c <g, dg>)/<g, g>; at <g, g> = 0, dc^2 <g, g> is nan
            dc = (g1r_j - c_j * gdg_j) / gg_j if gg_j > 0.0 else math.nan
            curvature -= dc * dc * gg_j
        derivable = math.isfinite(grad) and math.isfinite(curvature)
        # the Newton step in ln c_v, bounded to ±ln 2 (a nan passes both tests); a curvature that is
        # not positive divides by zero as -slope inf: downhill to the bound, nan at a slope of ±0 or nan
        slope_j, used_j = v * grad, v * (v * curvature + grad)
        raw = -slope_j / used_j if used_j > 0.0 else -slope_j * math.inf
        step_j = -_LN2 if raw < -_LN2 else _LN2 if raw > _LN2 else raw
        flat = abs(g1r_j) <= _GTOL * math.sqrt(g1g1_j * cost_j)
        go = cost_j > f0 and not flat and math.isfinite(step_j) and _moves(step_j, v)
        records.append((v, s, c_j, cost_j, derivable, slope_j, used_j, step_j, go))
    return records


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
