"""Self-contained numerics: adaptive quadrature, least squares, cosh * exp.

Everything downstream (potentials, wavefunctionals, transport, fitting and
the verification oracles) builds on these operations.  ``integrate_family``
is an interval-batched adaptive Gauss-Kronrod (G10K21, QUADPACK's qk21) rule
over m integrals at once, one integrand call per round for every member,
and ``integrate_adaptive`` its one-member front; ``least_squares_fit`` is a
general Levenberg-Marquardt fitter that needs the model's Jacobian.  The
library's own fits do not use it: the pair current is linear in its
amplitude, and ``fitting`` solves it by variable projection, reporting a
``FitResult`` like this fitter's.  Both engines call their callables on
whole numpy arrays and check the shape of what comes back.  The overflow-safe
cosh(arg) * exp(expo) product has a scalar form on ``math``, for the
per-point matrix elements, and an array form on numpy's cosh/exp, for the
current laws.  The error function is ``math.erf``.  All functions are pure;
there is no module state.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult",
    "QuadratureError",
    "integrate_adaptive",
    "integrate_family",
    "least_squares_fit",
]

# Switch from direct cosh*exp to the exp-of-sum form; at |arg| >= 35 the
# dropped (1 + e^(-2|arg|)) factor is below double-precision resolution.
_COSH_DIRECT_LIMIT = 35.0
_LN2 = math.log(2.0)
# exp overflows above _EXP_MAX and is subnormal below _EXP_NORMAL_MIN.  Below
# it the direct product is formed as cosh(arg) exp(expo + _EXP_SHIFT) e^-_EXP_SHIFT,
# which keeps full precision wherever the product itself is a normal float.
_EXP_MAX = math.log(sys.float_info.max)
_EXP_NORMAL_MIN = math.log(sys.float_info.min)
_EXP_SHIFT = 64.0
_EXP_UNSHIFT = math.exp(-_EXP_SHIFT)


class QuadratureError(RuntimeError):
    """Adaptive quadrature stopped before converging: a depth or interval limit, or a non-finite integrand.

    ``member`` is the index of the failed member of an ``integrate_family``
    call, or None.
    """

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member


def _cosh_times_exp(arg, expo):
    """cosh(arg) * exp(expo) without overflow for large |arg| or -expo.

    An ``expo`` of -inf gives 0.0, also where ``arg`` is infinite.
    """
    a = abs(arg)
    if a <= _COSH_DIRECT_LIMIT:
        if expo < _EXP_NORMAL_MIN:
            return math.cosh(arg) * math.exp(expo + _EXP_SHIFT) * _EXP_UNSHIFT
        return math.cosh(arg) * math.exp(expo)
    if expo == -math.inf:
        return 0.0
    t = a + expo - _LN2
    if t > _EXP_MAX:
        return math.inf
    return math.exp(t)


def _cosh_times_exp_array(arg, expo):
    """``_cosh_times_exp`` on float arrays, element for element, with numpy's cosh/exp."""
    a = np.abs(arg)
    near = a <= _COSH_DIRECT_LIMIT
    deep = expo < _EXP_NORMAL_MIN
    if near.all() and not deep.any():
        return np.cosh(arg) * np.exp(expo)
    out = np.empty_like(a)
    deep &= near
    direct = near & ~deep
    out[direct] = np.cosh(arg[direct]) * np.exp(expo[direct])
    out[deep] = np.cosh(arg[deep]) * np.exp(expo[deep] + _EXP_SHIFT) * _EXP_UNSHIFT
    far = ~near
    with np.errstate(over="ignore", invalid="ignore"):
        out[far] = np.exp(a[far] + expo[far] - _LN2)
    out[expo == -np.inf] = 0.0
    return out


# QUADPACK qk21 on [-1, 1] (Piessens et al., QUADPACK, Springer 1983): the
# 21 Kronrod nodes in ascending order, the Kronrod weights, and the 10-point
# Gauss weights, which sit on every second node and are zero elsewhere.
_XK_POS = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WK_POS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208931961480, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WK_MID = 0.149445554002916905664936468389821
_WG_POS = np.zeros(10)
_WG_POS[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
]
_GK_NODES = np.concatenate([-_XK_POS, [0.0], _XK_POS[::-1]])
_WK = np.concatenate([_WK_POS, [_WK_MID], _WK_POS[::-1]])
_WG = np.concatenate([_WG_POS, [0.0], _WG_POS[::-1]])
# the Kronrod weights, and Kronrod minus Gauss (the error estimate)
_WK_MINUS_WG = _WK - _WG

# The engine holds every unconverged interval of a round at once; beyond this
# many intervals of one member it stops that member rather than let memory
# grow with 2^depth.
_MAX_ACTIVE = 1 << 14


def integrate_adaptive(f, a, b, tol, max_depth=48):
    """Integral of ``f`` over [a, b] with absolute error <= ``tol``.

    The one-member form of ``integrate_family``: ``f`` maps the float node
    array to a float array of the same shape (``np.exp``-style), and the
    result and every error are those of member 0 of that family, without
    the member prefix in the message.
    """
    (value,), failures = _integrate_members(
        lambda x, member: f(x), np.array([float(a)]), np.array([float(b)]), tol, max_depth
    )
    if failures:
        raise QuadratureError(failures[0])
    return value


def integrate_family(f, a, b, tol, max_depth=48):
    """Integrals of ``f(x, i)`` over [a_i, b_i] for every member i, each to an absolute ``tol``.

    ``a`` and ``b`` broadcast to one dimension, shape (m,); the result is a
    float array of shape (m,).  Adaptive Gauss-Kronrod (G10K21) with
    interval bisection: each round calls ``f`` once, on the float array of
    the 21 nodes of every unconverged interval of every member and the int
    array of the member each node belongs to, and ``f`` returns a float
    array of that shape; any other shape raises ValueError naming it.  An
    interval is accepted when |K21 - G10| is within its tolerance share,
    tol / 2^depth, so each member's absolute error stays at or below
    ``tol``; a member's accepted estimates are summed with ``math.fsum``,
    and a == b gives 0.0.  Each interval's K21 and G10 sums are per-row
    reductions, so every member is bit for bit its own one-member call.

    A member fails, as its one-member call would, when an interval still
    misses its share after ``max_depth`` bisections, when more than
    ``_MAX_ACTIVE`` of its intervals stay unconverged at once, or when
    ``f`` returns a non-finite value on one of its nodes.  A failed member
    is dropped and the others run on; then QuadratureError names the
    lowest-index failed member, also as its ``member``, and gives its
    one-member message.  ValueError
    for a > b, a non-positive tolerance or bounds that are not one-dimensional.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if a.ndim != 1:
        raise ValueError(f"integration bounds must be one-dimensional, got shape {a.shape}")
    values, failures = _integrate_members(f, a, b, tol, max_depth)
    if failures:
        member = min(failures)
        raise QuadratureError(f"member {member}: {failures[member]}", member=member)
    return np.array(values)


def _integrate_members(f, a, b, tol, max_depth):
    """The engine of ``integrate_family``: (list of m integrals, {member: failure message})."""
    tol = float(tol)
    if not np.all(a <= b):
        raise ValueError("integration bounds must satisfy a <= b")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    failures = {}
    member = np.flatnonzero(a < b)
    lo, hi = a[member], b[member]
    accepted_members, accepted = [member[:0]], [lo[:0]]
    depth = 0
    while member.size:
        half = 0.5 * (hi - lo)
        x = ((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES).ravel()
        node_members = np.repeat(member, _GK_NODES.size)
        y = _evaluate(f, "integrand", x.shape, x, node_members).reshape(-1, _GK_NODES.size)
        finite = np.isfinite(y)
        if not finite.all():
            # nodes stay grouped by member and ordered left to right, so a
            # member's first bad node is its leftmost
            bad_nodes = np.flatnonzero(~finite)
            bad_members = node_members[bad_nodes]
            failed = np.flatnonzero(np.bincount(bad_members))
            for i, j in zip(failed.tolist(), bad_nodes[np.searchsorted(bad_members, failed)].tolist()):
                failures[i] = f"integrand returned {float(y.flat[j])!r} at x = {float(x[j])!r}"
            keep = member < min(failures)
            member, lo, hi, half, y = member[keep], lo[keep], hi[keep], half[keep], y[keep]
        est = np.einsum("ij,j->i", y, _WK) * half
        err = np.abs(np.einsum("ij,j->i", y, _WK_MINUS_WG) * half)
        share = math.ldexp(tol, -depth)
        ok = err <= share
        accepted_members.append(member[ok])
        accepted.append(est[ok])
        bad = ~ok
        member, lo, hi, err = member[bad], lo[bad], hi[bad], err[bad]
        at_depth = depth >= max_depth
        if member.size and (at_depth or 2 * member.size > _MAX_ACTIVE):
            reason = "refinement depth limit" if at_depth else "active interval limit"
            failed = np.flatnonzero(2 * np.bincount(member) > (0 if at_depth else _MAX_ACTIVE))
            for i, j in zip(failed.tolist(), np.searchsorted(member, failed).tolist()):
                failures[i] = "%s reached on [%g, %g] (residual %g > %g)" % (
                    reason, lo[j], hi[j], err[j], share
                )
        if failures:
            # drop the failed members, and those above the lowest failure,
            # which can no longer change the outcome
            keep = member < min(failures)
            member, lo, hi = member[keep], lo[keep], hi[keep]
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        member = np.repeat(member, 2)
        depth += 1
    members = np.concatenate(accepted_members)
    order = np.argsort(members, kind="stable")
    ends = np.searchsorted(members[order], np.arange(a.size + 1))
    estimates = np.concatenate(accepted)[order].tolist()
    values = [math.fsum(estimates[start:end]) for start, end in zip(ends[:-1].tolist(), ends[1:].tolist())]
    return values, failures


def _evaluate(fn, what, shape, *args):
    """``fn(*args)`` as a float array, which must have ``shape``."""
    out = np.asarray(fn(*args), dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} returned shape {out.shape}; expected {shape}")
    return out


_STOP_REASONS = ("converged", "max_iter", "damping_collapse")

# Levenberg-Marquardt constants: the damping mu is relative to the Marquardt
# scale D, starts at _MU_START and past _MU_MAX ends the fit; an extra trial
# along an accepted step goes _REACH_MIN to _REACH_MAX step lengths; the stop
# tests compare against _GTOL (gradient cosine), _FTOL (relative cost
# reduction) and _RESIDUAL_FLOOR (residual norm relative to the data norm).
_MU_START = 1e-3
_MU_MAX = 1e15
_REACH_MIN = 2.0
_REACH_MAX = 100.0
_GTOL = 1e-12
_FTOL = 1e-14
_RESIDUAL_FLOOR = 16.0 * np.finfo(float).eps


@dataclass
class FitResult:
    """Outcome of a fit: of ``least_squares_fit`` or of the fits in ``fitting``.

    ``iterations`` counts the fitter's trial steps.  ``stop`` says why the
    fit ended: ``"converged"`` (one of the fitter's stop tests passed),
    ``"max_iter"`` (the budget of trial steps ran out) or, for
    ``least_squares_fit`` only, ``"damping_collapse"`` (the damping grew
    past 1e15 without an accepted step).  ``converged`` is read from
    ``stop``.
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


@np.errstate(over="ignore", invalid="ignore")
def least_squares_fit(model, params0, data, jacobian, max_iter=200):
    """Levenberg-Marquardt least squares for models y = model(x, params).

    ``data`` is a sequence of finite (x, y) pairs, or an (n, 2) array.  The
    model and its Jacobian evaluate the whole data set in one call: with
    ``xs`` the float array of the n abscissae, ``model(xs, params)`` returns
    the n model values and ``jacobian(xs, params)`` the (n, p) matrix of
    their derivatives; any other shape raises ValueError.  Deterministic
    for fixed inputs.

    Each trial step solves (J^T J + mu D) step = J^T r, where D is the
    running maximum of diag(J^T J) (Marquardt's scaling, as in MINPACK's
    ``lmder``; a zero entry counts as 1).  The damping follows Nielsen's
    gain-ratio rule: with rho the actual over the predicted cost reduction,
    an accepted step (rho > 0) multiplies mu by max(1/3, 1 - (2 rho - 1)^3),
    and a rejected one by 2, 4, 8, ... in turn.  Where the actual reduction
    of an accepted step puts the minimum of the cost along it 2 to 100 step
    lengths out, that point is tried too; on large-residual fits such as the
    Zener fits, Gauss-Newton steps otherwise creep along a curved valley.
    ``iterations`` counts these trials and the trial steps, rejected ones
    included.

    Converged means one of three tests passed: every Jacobian column is
    within a cosine of 1e-12 of orthogonal to the residual (the scaled
    gradient test); a step's actual and predicted cost reductions are both
    at most 1e-14 of the cost (MINPACK's ``ftol`` test; that step is taken,
    since the gradient still resolves it where the cost no longer does); or
    the residual norm is at most 16 ulp of the data norm, so that rounding,
    not the parameters, limits it, as on a zero-residual fit.
    Non-convergence is reported through ``stop``
    (``"max_iter"`` or ``"damping_collapse"``) with the best parameters
    seen, never as an exception.  With zero parameters (``params0`` of
    size 0) nothing is fitted: the result is the start residual, converged
    after 0 iterations, and the Jacobian is never called.

    The fit runs with numpy's overflow and invalid-value warnings off, the
    model and Jacobian included: every value it computes is judged by
    whether it is finite.  A trial whose sum of squared residuals or
    predicted reduction is not finite is a rejected step.  At the start
    parameters a sum of squares that is not finite raises ValueError, which
    names the overflow where the residuals are finite; normal equations
    J^T J, J^T r that are not finite raise OverflowError.
    """
    params = np.asarray(params0, dtype=float).copy()
    if params.ndim != 1:
        raise ValueError("params0 must be a vector")
    if not np.all(np.isfinite(params)):
        raise ValueError("params0 must be finite")
    points = np.asarray(data, dtype=float)
    if points.size == 0:
        raise ValueError("data must be non-empty")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("data must be a sequence of (x, y) pairs")
    if not np.all(np.isfinite(points)):
        raise ValueError("data must be finite")
    xs = points[:, 0].copy()
    ys = points[:, 1].copy()
    n = ys.size

    def cost_of(p):
        """The residual and its sum of squares, which is inf wherever it is not finite."""
        r = ys - _evaluate(model, "model", (n,), xs, p)
        cost = float(r @ r)
        return r, cost if math.isfinite(cost) else math.inf

    resid, cost = cost_of(params)
    if cost == math.inf:
        if np.all(np.isfinite(resid)):
            raise ValueError("sum of squared residuals overflows at the initial parameters")
        raise ValueError("model is not evaluable at the initial parameters")

    data_norm = float(np.linalg.norm(ys))
    if data_norm == math.inf:  # the squares overflow; scale them by the largest |y|
        big = float(np.max(np.abs(ys)))
        data_norm = big * float(np.linalg.norm(ys / big))
    try:
        cost_floor = (_RESIDUAL_FLOOR * data_norm) ** 2
    except OverflowError:  # a floor above every finite cost
        cost_floor = math.inf
    scale = np.zeros(params.size)
    mu, nu = _MU_START, 2.0
    stop = "max_iter"
    iterations = 0
    jac = None
    while params.size and cost > cost_floor:
        if jac is None:
            jac = _evaluate(jacobian, "jacobian", (n, params.size), xs, params)
            grad = jac.T @ resid
            normal = jac.T @ jac
            if not (np.all(np.isfinite(normal)) and np.all(np.isfinite(grad))):
                raise OverflowError(f"normal equations J^T J, J^T r are not finite at {params.tolist()}")
            col_sq = np.diag(normal)
            scale = np.maximum(scale, col_sq)
            damping = np.diag(np.where(scale > 0.0, scale, 1.0))
            live = col_sq > 0.0
            if np.all(np.abs(grad[live]) <= _GTOL * np.sqrt(col_sq[live]) * math.sqrt(cost)):
                stop = "converged"
                break
        if iterations >= max_iter:
            break
        iterations += 1
        try:
            step = np.linalg.solve(normal + mu * damping, grad)
        except np.linalg.LinAlgError:
            step = np.full(params.size, math.nan)
        # the linear model's reduction, |J step|^2 + 2 mu step^T D step, is never
        # negative; it is not finite where the step is not or overflows
        predicted = float(np.sum((jac @ step) ** 2) + 2.0 * mu * (step @ damping @ step))
        rho = -math.inf
        if math.isfinite(predicted):
            trial_resid, trial_cost = cost_of(params + step)
            actual = cost - trial_cost
            if predicted > 0.0:
                rho = actual / predicted
            if abs(actual) <= _FTOL * cost and predicted <= _FTOL * cost and rho <= 2.0:
                # The cost no longer resolves the step, but the gradient that
                # made it still does: take it and stop.
                params, resid, cost = params + step, trial_resid, trial_cost
                stop = "converged"
                break
            if rho > 0.0:
                # Along the step the cost is c - 2 t slope + t^2 curvature, with the
                # curvature read off the actual reduction; where that puts the line
                # minimum at _REACH_MIN steps or beyond, try it once.
                slope = float(grad @ step)
                curvature = 2.0 * slope - actual
                reach = slope / curvature if curvature * _REACH_MAX > slope else _REACH_MAX
                if reach >= _REACH_MIN and iterations < max_iter:
                    iterations += 1
                    far_resid, far_cost = cost_of(params + reach * step)
                    if far_cost < trial_cost:
                        step, trial_resid, trial_cost = reach * step, far_resid, far_cost
                params, resid, cost = params + step, trial_resid, trial_cost
                jac = None
        if rho > 0.0:
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
            if mu > _MU_MAX:
                # damping has collapsed the step to nothing useful
                stop = "damping_collapse"
                break
    else:
        stop = "converged"

    rms = float(np.sqrt(cost / n))
    return FitResult(
        params=params,
        residual_rms=rms,
        iterations=iterations,
        stop=stop,
    )
