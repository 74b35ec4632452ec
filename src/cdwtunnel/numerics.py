"""Self-contained numerics: special functions, quadrature, least squares.

Everything downstream (potentials, wavefunctionals, transport, fitting and
the verification oracles) builds on these operations.  ``integrate_adaptive``
is an interval-batched adaptive Gauss-Kronrod (G10K21, QUADPACK's qk21) rule
that evaluates its integrand on numpy arrays of nodes.  The overflow-safe
cosh(arg) * exp(expo) product has a scalar form, for the per-point matrix
elements, and an array form, for the current laws; the array form maps
``math.cosh``/``exp`` over the elements, so each value is bitwise equal to
the scalar one.  All functions are pure; there is no module state.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FitResult",
    "QuadratureError",
    "erf",
    "finite_diff_gradient",
    "integrate_adaptive",
    "least_squares_fit",
]

# Switch from direct cosh*exp to the exp-of-sum form; at |arg| >= 35 the
# dropped (1 + e^(-2|arg|)) factor is below double-precision resolution.
_COSH_DIRECT_LIMIT = 35.0
_LN2 = math.log(2.0)


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit its refinement depth limit before converging."""


def erf(x):
    """Error function, ``math.erf`` of ``float(x)``."""
    return math.erf(float(x))


def _cosh_times_exp(arg, expo):
    """cosh(arg) * exp(expo) without overflow for large |arg| or -expo."""
    a = abs(arg)
    if a <= _COSH_DIRECT_LIMIT:
        return math.cosh(arg) * math.exp(expo)
    t = a + expo - _LN2
    if t > 709.0:
        return math.inf
    return math.exp(t)


def _elementwise(fn):
    """The math-module function ``fn`` applied to each element of a float array.

    numpy's own cosh/exp may differ from ``math``'s in the last bit; mapping
    the ``math`` function keeps the array kernels bitwise equal to the scalar ones.
    """
    return lambda x: np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


_COSH = _elementwise(math.cosh)
_SINH = _elementwise(math.sinh)
_EXP = _elementwise(math.exp)


def _cosh_times_exp_array(arg, expo):
    """``_cosh_times_exp`` on arrays, element for element."""
    a = np.abs(arg)
    out = np.empty_like(a)
    near = a <= _COSH_DIRECT_LIMIT
    out[near] = _COSH(arg[near]) * _EXP(expo[near])
    far = ~near
    t = a[far] + expo[far] - _LN2
    finite = ~(t > 709.0)
    vals = np.full_like(t, math.inf)
    vals[finite] = _EXP(t[finite])
    out[far] = vals
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
# columns: Kronrod estimate, and Kronrod minus Gauss (the error estimate)
_GK_WEIGHTS = np.column_stack([_WK, _WK - _WG])

# The engine holds every unconverged interval of a round at once; beyond this
# many it stops rather than let memory grow with 2^depth.
_MAX_ACTIVE = 1 << 14


def integrate_adaptive(f, a, b, tol, max_depth=48):
    """Integral of ``f`` over [a, b] with absolute error <= ``tol``.

    Adaptive Gauss-Kronrod (G10K21) with interval bisection: each round
    evaluates ``f`` once on a numpy array of the 21 nodes of every
    unconverged interval, and accepts an interval when |K21 - G10| is within
    its tolerance share, which halves with each bisection, so the absolute
    error of the sum stays at or below ``tol``.  ``f`` may take arrays
    (``np.exp``-style) or floats only; a callback that raises TypeError or
    ValueError on the node array, or returns another shape, is called once
    per node, decided once per call.

    Raises QuadratureError when an interval still misses its tolerance
    share after ``max_depth`` bisections, or when more than ``_MAX_ACTIVE``
    intervals stay unconverged at once, and ValueError for a > b or a
    non-positive tolerance.
    """
    a, b, tol = float(a), float(b), float(tol)
    if not (a <= b):
        raise ValueError("integration bounds must satisfy a <= b")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    if a == b:
        return 0.0
    lo = np.array([a])
    hi = np.array([b])
    evaluate = None
    accepted = []
    depth = 0
    while True:
        half = 0.5 * (hi - lo)
        x = ((0.5 * (lo + hi))[:, None] + half[:, None] * _GK_NODES).ravel()
        if evaluate is None:
            evaluate, y = _choose_evaluation(f, x)
        else:
            y = evaluate(x)
        est, diff = (y.reshape(-1, 21) @ _GK_WEIGHTS).T
        est *= half
        err = np.abs(diff * half)
        share = math.ldexp(tol, -depth)
        ok = err <= share
        accepted.append(est[ok])
        if ok.all():
            return math.fsum(np.concatenate(accepted).tolist())
        bad = ~ok
        lo, hi = lo[bad], hi[bad]
        if depth >= max_depth or 2 * lo.size > _MAX_ACTIVE:
            reason = "refinement depth limit" if depth >= max_depth else "active interval limit"
            raise QuadratureError(
                "%s reached on [%g, %g] (residual %g > %g)" % (reason, lo[0], hi[0], err[bad][0], share)
            )
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack([lo, mid]).ravel(), np.column_stack([mid, hi]).ravel()
        depth += 1


def _choose_evaluation(f, x):
    """Evaluate ``f`` on the node array ``x`` and pick how later rounds call it.

    Returns ``(evaluate, f(x))``: ``f`` itself on arrays when it maps the node
    array to an array of the same shape, else ``f`` mapped over floats.
    """

    def mapped(nodes):
        return np.array([f(t) for t in nodes.tolist()], dtype=float)

    def direct(nodes):
        return np.asarray(f(nodes), dtype=float)

    try:
        y = direct(x)
    except (TypeError, ValueError):
        y = None
    if y is not None and y.shape == x.shape:
        return direct, y
    return mapped, mapped(x)


def finite_diff_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector.

    Component i is (f(x + h e_i) - f(x - h e_i)) / (2 h).
    """
    if not h > 0.0:
        raise ValueError("step h must be positive")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


_STOP_REASONS = ("converged", "max_iter", "damping_collapse")


@dataclass
class FitResult:
    """Outcome of a damped Gauss-Newton fit.

    ``stop`` says why the fit ended: ``"converged"``, ``"max_iter"`` (the
    iteration budget ran out) or ``"damping_collapse"`` (the damping grew
    past 1e15 without an accepted step).  ``converged`` is true exactly
    when ``stop`` is ``"converged"``.
    """

    params: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    stop: str = "converged"

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.stop not in _STOP_REASONS:
            raise ValueError(f"stop must be one of {_STOP_REASONS}")
        if self.converged != (self.stop == "converged"):
            raise ValueError("converged must hold exactly when stop is 'converged'")
        if self.converged and not (np.isfinite(self.residual_rms) and self.residual_rms >= 0.0):
            raise ValueError("converged fit must carry a finite non-negative residual")


def _evaluate(fn, what, xs, params, shape):
    """``fn(xs, params)`` as a float array, which must have ``shape``."""
    out = np.asarray(fn(xs, params), dtype=float)
    if out.shape != shape:
        raise ValueError(f"{what} returned shape {out.shape} for {xs.size} points; expected {shape}")
    return out


def _numeric_jacobian(model, params, xs):
    shape = (xs.size,)
    jac = np.empty((xs.size, params.size))
    for j in range(params.size):
        h = 1e-6 * max(1.0, abs(params[j]))
        pp = params.copy()
        pm = params.copy()
        pp[j] += h
        pm[j] -= h
        diff = _evaluate(model, "model", xs, pp, shape) - _evaluate(model, "model", xs, pm, shape)
        jac[:, j] = diff / (2.0 * h)
    return jac


def least_squares_fit(model, params0, data, jacobian=None, max_iter=200):
    """Damped Gauss-Newton least squares for models y = model(x, params).

    ``data`` is a sequence of (x, y) pairs, or an (n, 2) array.  The model
    and the Jacobian evaluate the whole data set in one call: with ``xs``
    the float array of the n abscissae, ``model(xs, params)`` returns the n
    model values and ``jacobian(xs, params)`` the (n, p) matrix of their
    derivatives; any other shape raises ValueError.  Without ``jacobian``
    it is numeric central differences (h = 1e-6 max(1, |p|)), two model
    calls per parameter.  Damping is multiplied by 10 on a rejected step
    and divided by 10 on an accepted one; singular normal equations only
    raise the damping.  Deterministic for fixed inputs.

    Converged means the relative step size and the relative residual change
    both fell below 1e-10.  Non-convergence is reported through
    the flag and ``stop`` (``"max_iter"`` or ``"damping_collapse"``) with
    the best parameters seen, never as an exception.
    """
    params = np.asarray(params0, dtype=float).copy()
    if params.ndim != 1 or params.size == 0:
        raise ValueError("params0 must be a non-empty vector")
    if not np.all(np.isfinite(params)):
        raise ValueError("params0 must be finite")
    points = np.asarray(data, dtype=float)
    if points.size == 0:
        raise ValueError("data must be non-empty")
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError("data must be a sequence of (x, y) pairs")
    xs = points[:, 0].copy()
    ys = points[:, 1].copy()
    n = ys.size

    def cost_of(p):
        r = ys - _evaluate(model, "model", xs, p, (n,))
        if not np.all(np.isfinite(r)):
            return None, np.inf
        return r, float(r @ r)

    resid, cost = cost_of(params)
    if resid is None:
        raise ValueError("model is not evaluable at the initial parameters")

    lam = 1e-3
    stop = "max_iter"
    iterations = 0
    while iterations < max_iter:
        if jacobian is not None:
            jac = _evaluate(jacobian, "jacobian", xs, params, (n, params.size))
        else:
            jac = _numeric_jacobian(model, params, xs)
        grad = jac.T @ resid
        normal = jac.T @ jac
        diag = np.diag(normal).copy()
        diag[diag <= 0.0] = np.max(diag) if np.max(diag) > 0.0 else 1.0

        accepted = False
        while iterations < max_iter and not accepted:
            iterations += 1
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                step = None
            if step is None or not np.all(np.isfinite(step)):
                lam *= 10.0
                continue
            trial = params + step
            trial_resid, trial_cost = cost_of(trial)
            if trial_cost <= cost:
                rel_step = np.linalg.norm(step) / max(1.0, np.linalg.norm(params))
                rel_drop = abs(cost - trial_cost) / max(cost, 1e-300)
                params = trial
                resid = trial_resid
                cost = trial_cost
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                if rel_step < 1e-10 and rel_drop < 1e-10:
                    stop = "converged"
            else:
                lam *= 10.0
                if lam > 1e15:
                    # damping has collapsed the step to nothing useful
                    stop = "damping_collapse"
                    break
        if stop != "max_iter" or not accepted:
            break

    rms = float(np.sqrt(cost / n))
    return FitResult(
        params=params,
        residual_rms=rms,
        iterations=iterations,
        converged=stop == "converged",
        stop=stop,
    )
