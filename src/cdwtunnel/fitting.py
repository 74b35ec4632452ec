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
grid in lockstep, one ``sge_cv_derivatives_array`` call on the whole
(members, fields) array per round; ``fit_sge_to_points`` is its one-member
front, and each member of a family is bit for bit its own one-member fit.
No ``TransportParams`` is built per point or per trial.
"""

import dataclasses

import numpy as np

# ``current_sge`` and ``sge_model_jacobian`` are not called here: they are
# imported so that the names ``fitting.current_sge`` and
# ``fitting.sge_model_jacobian``, which perfbench's tracer wraps to count
# per-point model and Jacobian evaluations, keep existing.
from .transport import _jacobian_overflow, current_sge, curve_series, sge_cv_derivatives_array
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
        if self.converged and not (np.isfinite(self.residual_rms) and self.residual_rms >= 0.0):
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


def transport_with(base, free, values):
    """Copy of ``base`` with the named free parameters replaced by ``values``."""
    names = [n for n in FREE_PARAM_ORDER if n in free]
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

    The one-member front of ``fit_sge_family``: its result and errors are
    those of that family's member 0, without the member prefix in the
    message.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError("targets must be one-dimensional")
    results, failure = _fit_members(es, targets[None, :], free, [start])
    if failure is not None:
        raise failure[1]
    return results[0]


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

    Each round evaluates g and its c_v-derivatives for every unconverged
    member in one (m, n) kernel call, and every per-member reduction is a
    row sum, so each member is bit for bit its own one-member fit.  Targets
    and g are scaled by powers of two to a largest magnitude below 1, so no
    sum of squares overflows; the amplitude and rms are scaled back.

    At the start parameters a sum of squared residuals that is not finite
    raises ValueError, which names the overflow where the residuals are
    finite; with a parameter free, a cosh argument past the range of the
    Jacobian raises OverflowError naming the fields, as does a derivative
    of the cost that is not finite.  In a family the error of the
    lowest-index failing member is raised, prefixed with its index and
    carrying it as ``member``, as ``integrate_family``'s errors do.
    """
    results, failure = _fit_members(es, targets, free, starts)
    if failure is not None:
        member, exc = failure
        error = type(exc)(f"member {member}: {exc}")
        error.member = member
        raise error
    return results


def _rowdot(a, b):
    """Row sums of a * b; an axis sum, not a BLAS product, so a row does not depend on the others."""
    return (a * b).sum(axis=1)


def _scaled(es, e_t, c_v):
    """g, dg/dc_v and d2g/dc_v2 per row, each divided by 2^k with k the exponent of the row's max |g|, and k."""
    g, dg, d2g = sge_cv_derivatives_array(es, e_t[:, None], c_v[:, None])
    k = np.frexp(np.abs(g).max(axis=1))[1]
    shift = -k[:, None]
    return np.ldexp(g, shift), np.ldexp(dg, shift), np.ldexp(d2g, shift), k


def _projected(y, g, dg, d2g, amplitude, project):
    """Amplitude, cost, and the cost's c_v-gradient and curvature, each halved, and the gradient cosine test.

    ``amplitude`` is the held amplitude; with ``project`` it is replaced by
    <g, y>/<g, g> wherever <g, g> > 0.  The c_v-gradient is -2 c <dg, r>,
    from the residual r itself: it does not cancel on a zero-residual fit.
    The curvature is exact (Golub and Pereyra's, where the amplitude is
    projected).
    """
    gg = _rowdot(g, g)
    if project:
        amplitude = np.where(gg > 0.0, _rowdot(g, y) / gg, amplitude)
    c = amplitude
    r = y - c[:, None] * g
    cost = _rowdot(r, r)
    g1r, g1g1, g2r = _rowdot(dg, r), _rowdot(dg, dg), _rowdot(d2g, r)
    grad = -c * g1r
    curvature = c * (c * g1g1 - g2r)
    if project:
        # the amplitude moves with c_v at dc/dc_v = (<dg, r> - c <g, dg>)/<g, g>
        dc = (g1r - c * _rowdot(g, dg)) / gg
        curvature -= dc * dc * gg
    flat = np.abs(g1r) <= _GTOL * np.sqrt(g1g1 * cost)
    return c, cost, grad, curvature, flat


@np.errstate(all="ignore")
def _fit_members(es, targets, free, starts):
    """The engine of ``fit_sge_family``: (list of m FitResults, None) or (None, (member, exception))."""
    es = np.asarray(es, dtype=float)
    targets = np.asarray(targets, dtype=float)
    names = [n for n in FREE_PARAM_ORDER if n in free]
    unknown = set(free) - set(FREE_PARAM_ORDER)
    if unknown:
        raise ValueError(f"cannot free {sorted(unknown)}; allowed: {FREE_PARAM_ORDER}")
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
    held = np.array([s.c_tilde1 for s in starts], dtype=float)
    g, dg, d2g, k = _scaled(es, e_t, c_v)
    # the scaled problem: targets over 2^ky with ky the exponent of each row's max |y|
    ky = np.frexp(np.abs(targets).max(axis=1))[1]
    y = np.ldexp(targets, -ky[:, None])
    floor = (_RESIDUAL_FLOOR * np.sqrt(_rowdot(y, y))) ** 2
    project = "c_tilde1" in free
    c, cost, grad, curvature, flat = _projected(y, g, dg, d2g, np.ldexp(held, k - ky), project)

    # the start checks, the residual's on its unscaled sum of squares
    r0 = targets - held[:, None] * np.ldexp(g, k[:, None])
    unfit = ~np.isfinite(_rowdot(r0, r0))
    out_of_range = np.isnan(dg).any(axis=1) & bool(names)
    underived = ~(np.isfinite(grad) & np.isfinite(curvature)) & ("c_v" in free)
    failed = np.flatnonzero(unfit | out_of_range | underived)
    if failed.size:
        i = int(failed[0])
        if unfit[i] and np.all(np.isfinite(r0[i])):
            return None, (i, ValueError("sum of squared residuals overflows at the initial parameters"))
        if unfit[i]:
            return None, (i, ValueError("model is not evaluable at the initial parameters"))
        if out_of_range[i]:
            return None, (i, _jacobian_overflow(es[np.isnan(dg[i])]))
        return None, (i, OverflowError(f"c_v derivatives of the cost are not finite at c_v = {float(c_v[i])!r}"))

    iterations = np.zeros(m, dtype=int)
    stop = ["converged"] * m
    if "c_v" in free:
        step, slope, used = np.zeros(m), np.zeros(m), np.zeros(m)

        def plan(idx):
            """Newton steps in ln c_v from the accepted points of ``idx``: the members that still step."""
            cv = c_v[idx]
            slope[idx] = gx = cv * grad[idx]
            used[idx] = cx = cv * (cv * curvature[idx] + grad[idx])
            # a curvature that is not positive divides by zero: the step runs
            # downhill to the bound
            raw = -gx / np.where(cx > 0.0, cx, 0.0)
            step[idx] = np.minimum(np.maximum(raw, -_LN2), _LN2)
            go = (cost[idx] > floor[idx]) & ~flat[idx] & np.isfinite(step[idx])
            return idx[go & (np.abs(step[idx]) * cv > _STEP_ULPS * np.spacing(cv))]

        todo = plan(np.arange(m))
        while todo.size:
            spent = iterations[todo] >= _MAX_ROUNDS
            for i in todo[spent].tolist():
                stop[i] = "max_iter"
            todo = todo[~spent]
            if not todo.size:
                break
            iterations[todo] += 1
            trial = c_v[todo] * np.exp(step[todo])
            gt, dgt, d2gt, kt = _scaled(es, e_t[todo], trial)
            terms = _projected(y[todo], gt, dgt, d2gt, np.ldexp(held[todo], kt - ky[todo]), project)
            now, cost_t, s = cost[todo], terms[1], step[todo]
            actual = now - cost_t
            predicted = -(2.0 * slope[todo] + used[todo] * s) * s
            # the cost no longer resolves the step: converged, at the trial if it is no worse
            unresolved = (np.abs(actual) <= _FTOL * now) & (predicted <= _FTOL * now)
            usable = np.isfinite(terms[2]) & np.isfinite(terms[3])
            take = usable & ((cost_t < now) | (unresolved & (cost_t <= now)))
            moved = todo[take]
            c_v[moved], k[moved] = trial[take], kt[take]
            for state, value in zip((c, cost, grad, curvature, flat), terms):
                state[moved] = value[take]
            # a rejected step predicted to gain less than the cost resolves (1e-14 of
            # it, or the residual floor) only shrinks when halved: converged too
            resolvable = predicted > np.maximum(_FTOL * now, floor[todo])
            halve = todo[~take & ~unresolved & resolvable]
            step[halve] *= 0.5
            halve = halve[np.abs(step[halve]) * c_v[halve] > _STEP_ULPS * np.spacing(c_v[halve])]
            todo = np.concatenate([plan(todo[take & ~unresolved]), halve])

    c_tilde1 = np.ldexp(c, ky - k) if project else held
    values = {"c_tilde1": c_tilde1, "c_v": c_v}
    params = np.column_stack([values[name] for name in names]) if names else np.empty((m, 0))
    rms = np.ldexp(np.sqrt(cost / n), ky)
    return [FitResult(params[i], float(rms[i]), int(iterations[i]), stop[i]) for i in range(m)], None


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
