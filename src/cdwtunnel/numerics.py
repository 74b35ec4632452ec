"""Self-contained numerics: special functions, quadrature, least squares.

Everything downstream (potentials, wavefunctionals, transport, fitting and
the verification oracles) builds on these four operations.  All functions
are pure; there is no module state.
"""

from dataclasses import dataclass, field

import numpy as np

from ._backend import QuadratureError, kernels

__all__ = [
    "FitResult",
    "QuadratureError",
    "erf",
    "finite_diff_gradient",
    "integrate_adaptive",
    "least_squares_fit",
]


def erf(x):
    """Error function, absolute accuracy a few 1e-16.

    Evaluated by a Maclaurin series for |x| <= 3 and a complementary
    continued fraction beyond, not a low-order rational fit.
    """
    return kernels.erf(float(x))


def integrate_adaptive(f, a, b, tol, max_depth=48):
    """Integral of ``f`` over [a, b] with absolute error <= ``tol``.

    Adaptive Gauss-Kronrod (G10K21, QUADPACK's qk21) with interval
    bisection: each round evaluates ``f`` once on a numpy array of the 21
    nodes of every unconverged interval, and accepts an interval when
    |K21 - G10| is within its tolerance share, which halves with each
    bisection.  ``f`` may take arrays (``np.exp``-style) or floats only; a
    callback that raises TypeError or ValueError on the node array, or
    returns another shape, is called once per node.

    Raises QuadratureError when an interval still misses its tolerance
    share after ``max_depth`` bisections (or too many intervals stay
    unconverged at once), and ValueError for a > b or a non-positive
    tolerance.
    """
    return kernels.integrate_adaptive(f, float(a), float(b), float(tol), max_depth)


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


@dataclass
class FitResult:
    """Outcome of a damped Gauss-Newton fit."""

    params: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    cost: float = field(default=np.nan, repr=False)

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float)
        if self.converged and not (np.isfinite(self.residual_rms) and self.residual_rms >= 0.0):
            raise ValueError("converged fit must carry a finite non-negative residual")


def _residuals(model, params, xs, ys):
    r = np.empty(len(xs))
    for i, x in enumerate(xs):
        r[i] = ys[i] - model(x, params)
    return r


def _numeric_jacobian(model, params, xs):
    n = len(xs)
    p = len(params)
    jac = np.empty((n, p))
    for j in range(p):
        h = 1e-6 * max(1.0, abs(params[j]))
        pp = params.copy()
        pm = params.copy()
        pp[j] += h
        pm[j] -= h
        for i, x in enumerate(xs):
            jac[i, j] = (model(x, pp) - model(x, pm)) / (2.0 * h)
    return jac


def least_squares_fit(
    model,
    params0,
    data,
    jacobian=None,
    tol_step=1e-10,
    tol_resid=1e-10,
    max_iter=200,
):
    """Damped Gauss-Newton least squares for scalar models y = model(x, params).

    ``data`` is a sequence of (x, y) pairs.  The Jacobian is numeric central
    differences (h = 1e-6 max(1, |p|)) unless ``jacobian(x, params)`` is
    supplied.  Damping is multiplied by 10 on a rejected step and divided by
    10 on an accepted one; singular normal equations only raise the damping.
    Deterministic for fixed inputs.

    Converged means the relative step size and the relative residual change
    both fell below their thresholds.  Non-convergence is reported through
    the flag with the best parameters seen, never as an exception.
    """
    params = np.asarray(params0, dtype=float).copy()
    if params.ndim != 1 or params.size == 0:
        raise ValueError("params0 must be a non-empty vector")
    if not np.all(np.isfinite(params)):
        raise ValueError("params0 must be finite")
    pairs = list(data)
    if not pairs:
        raise ValueError("data must be non-empty")
    xs = [x for x, _ in pairs]
    ys = np.array([y for _, y in pairs], dtype=float)

    def cost_of(p):
        r = _residuals(model, p, xs, ys)
        if not np.all(np.isfinite(r)):
            return None, np.inf
        return r, float(r @ r)

    resid, cost = cost_of(params)
    if resid is None:
        raise ValueError("model is not evaluable at the initial parameters")

    lam = 1e-3
    converged = False
    iterations = 0
    while iterations < max_iter:
        if jacobian is not None:
            jac = np.array([jacobian(x, params) for x in xs], dtype=float)
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
                if rel_step < tol_step and rel_drop < tol_resid:
                    converged = True
            else:
                lam *= 10.0
                if lam > 1e15:
                    # damping has collapsed the step to nothing useful
                    break
        if converged or not accepted:
            break

    rms = float(np.sqrt(cost / len(ys)))
    return FitResult(params=params, residual_rms=rms, iterations=iterations, converged=converged, cost=cost)
