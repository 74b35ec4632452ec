"""Pure-Python kernels: scalar closed forms and a vectorized quadrature engine.

This module is the one implementation of the numerical core; the
front-end modules reach it through ``_backend``.

The closed forms are plain functions of floats.  ``integrate_adaptive`` is
an interval-batched adaptive Gauss-Kronrod (G10K21, QUADPACK's qk21) rule
that evaluates its integrand on numpy arrays of nodes; the two quadrature
oracles pass it numpy integrands.  Nothing here keeps shared state, so the
kernels are safe to call from any number of threads.
"""

import math

import numpy as np

BACKEND_NAME = "pure"

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)

# Switch from direct cosh*exp to the exp-of-sum form; at |arg| >= 35 the
# dropped (1 + e^(-2|arg|)) factor is below double-precision resolution.
_COSH_DIRECT_LIMIT = 35.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit its refinement depth limit before converging."""


# ---------------------------------------------------------------------------
# error function
# ---------------------------------------------------------------------------

def erf(x):
    """Error function via Maclaurin series (|x| <= 3) / continued fraction.

    Absolute accuracy is a few 1e-16 over the real line; the series form
    e^(-x^2) * sum 2^n x^(2n+1) / (1*3*...*(2n+1)) has all-positive terms,
    so there is no cancellation near the crossover.
    """
    if x != x:
        return x
    ax = abs(x)
    if ax == 0.0:
        return 0.0
    if ax <= 3.0:
        # term_n = 2^n ax^(2n+1) / (1*3*5*...*(2n+1))
        term = ax
        total = ax
        n = 0
        while True:
            n += 1
            term *= 2.0 * ax * ax / (2.0 * n + 1.0)
            new = total + term
            if new == total:
                break
            total = new
        val = _TWO_OVER_SQRT_PI * math.exp(-ax * ax) * total
        if val > 1.0:
            val = 1.0
    else:
        val = 1.0 - _erfc_cf(ax)
    return -val if x < 0.0 else val


def _erfc_cf(x):
    """erfc for x > 3 by the Laplace continued fraction (modified Lentz)."""
    # erfc(x) = e^(-x^2)/sqrt(pi) * 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    tiny = 1e-300
    f = x if x != 0.0 else tiny
    c = f
    d = 0.0
    n = 0
    while n < 300:
        n += 1
        a = 0.5 * n
        d = x + a * d
        if d == 0.0:
            d = tiny
        c = x + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            break
    ex = math.exp(-x * x) if x < 26.0 else 0.0
    return ex / (math.sqrt(math.pi) * f)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

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
    """Integral of ``f`` on [a, b] by interval-batched adaptive Gauss-Kronrod.

    Each round evaluates ``f`` once, on a 1-D array holding the 21 Kronrod
    nodes of every unconverged interval.  An interval is accepted when
    |K21 - G10| is within its share of ``tol``; the share halves with each
    bisection, so the absolute error of the sum stays at or below ``tol``.
    The rest are bisected.  An ``f`` that raises TypeError or ValueError on
    the node array, or returns another shape, is mapped over the nodes as
    floats instead, decided once per call.

    Raises QuadratureError if an interval still fails its share at
    ``max_depth`` bisections, or if more than ``_MAX_ACTIVE`` intervals
    are unconverged at once.
    """
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


def box_ft_quadrature(k, l, tol):
    """Cosine-transform oracle for the unit-height box of width ``l``.

    Evaluates (1/sqrt(2 pi)) * integral of cos(k x) over [-l/2, l/2] by
    adaptive Gauss-Kronrod quadrature on node arrays; the closed form it
    cross-checks is ``thin_wall_ft``.
    """
    val = integrate_adaptive(lambda x: np.cos(k * x), -0.5 * l, 0.5 * l, tol)
    return val / math.sqrt(2.0 * math.pi)


def gaussian_overlap_current(ci, ai, mi, cf, af, mf, u0, m_star, hi, tol):
    """|T| for two Gaussian collective-coordinate states by quadrature.

    Integrates psi_i * psi_f'' - psi_f * psi_i'' from the barrier point
    ``u0`` up to ``hi`` (the step factor kills everything below u0), with
    the second derivatives taken analytically from the Gaussian forms, and
    returns |integral| / (2 m*).
    """
    def integrand(u):
        di = u - mi
        df = u - mf
        pi_ = ci * np.exp(-ai * di * di)
        pf = cf * np.exp(-af * df * df)
        ppi = pi_ * (4.0 * ai * ai * di * di - 2.0 * ai)
        ppf = pf * (4.0 * af * af * df * df - 2.0 * af)
        return pi_ * ppf - pf * ppi

    val = integrate_adaptive(integrand, u0, hi, tol)
    return abs(val) / (2.0 * m_star)


# ---------------------------------------------------------------------------
# potential-energy kernels
# ---------------------------------------------------------------------------

def extended_potential(phi, c1, c2, phi0):
    """C1 (phi-phi0)^2 - 4 C2 phi phi0 (phi-phi0)^2 + C2 (phi^2-phi0^2)^2."""
    d = phi - phi0
    s = phi * phi - phi0 * phi0
    return c1 * d * d - 4.0 * c2 * phi * phi0 * d * d + c2 * s * s


def driven_sg_potential(phi, d1, d2):
    """D1 (1 - cos phi) + D2 phi^2."""
    return d1 * (1.0 - math.cos(phi)) + d2 * phi * phi


def hamiltonian_density(phi, pi, dphi_dx, mu, varphi, i0):
    """pi^2/2 + (d_x phi)^2/2 + mu^2 (phi - varphi)^2/2 - I0/2."""
    d = phi - varphi
    return 0.5 * (pi * pi + dphi_dx * dphi_dx + mu * mu * d * d - i0)


# ---------------------------------------------------------------------------
# profile / wavefunctional kernels
# ---------------------------------------------------------------------------

def kink_pair_value(x, x_a, x_b, b):
    """tanh(b (x - x_a)) + tanh(b (x_b - x))."""
    return math.tanh(b * (x - x_a)) + math.tanh(b * (x_b - x))


def thin_wall_ft(k, l):
    """sqrt(2/pi) sin(k l / 2) / k, with the k -> 0 limit sqrt(2/pi) l / 2."""
    if abs(k) < 1e-12:
        return _SQRT_TWO_OVER_PI * 0.5 * l
    return _SQRT_TWO_OVER_PI * math.sin(0.5 * k * l) / k


def norm_constant(alpha, l):
    """Constant C making the one-sided Gaussian integral unity.

    With u_max = l / sqrt(2 pi), the defining identity is
    integral_0^{u_max} C^2 e^(-2 alpha u^2) du = 1, evaluated through the
    closed form integral_0^b e^(-a x^2) dx = (1/2) sqrt(pi/a) erf(b sqrt a).
    """
    u_max = l / math.sqrt(2.0 * math.pi)
    a = 2.0 * alpha
    integral = 0.5 * math.sqrt(math.pi / a) * erf(u_max * math.sqrt(a))
    return 1.0 / math.sqrt(integral)


# ---------------------------------------------------------------------------
# tunneling matrix elements
# ---------------------------------------------------------------------------

def _cosh_times_exp(arg, expo):
    """cosh(arg) * exp(expo) without overflow for large |arg| or -expo."""
    a = abs(arg)
    if a <= _COSH_DIRECT_LIMIT:
        return math.cosh(arg) * math.exp(expo)
    t = a + expo - math.log(2.0)
    if t > 709.0:
        return math.inf
    return math.exp(t)


def t_if_analytic(x_bar, l, alpha, n1, c1n, c2n, m_star):
    """Full matrix-element magnitude, occupation factor n1 kept everywhere.

    (2/(2 m*)) (n1^2 - n1^4/2) C1 C2 cosh(2 sqrt(x/2L) - sqrt(L/2x))
      * exp(-alpha L n1^2 L/(2x)).
    """
    n1sq = n1 * n1
    pref = (2.0 / (2.0 * m_star)) * (n1sq - 0.5 * n1sq * n1sq) * c1n * c2n
    arg = 2.0 * math.sqrt(x_bar / (2.0 * l)) - math.sqrt(l / (2.0 * x_bar))
    expo = -alpha * l * (n1sq * (l / (2.0 * x_bar)))
    return pref * _cosh_times_exp(arg, expo)


def t_if_simplified(x_bar, l, alpha, c1n, c2n, m_star):
    """Reduced matrix-element magnitude (n1 -> 1 with a dropped factor 2).

    (C1 C2 / m*) cosh(2 sqrt(x/2L) - sqrt(L/2x)) * exp(-alpha L L/(2x)).
    """
    pref = c1n * c2n / m_star
    arg = 2.0 * math.sqrt(x_bar / (2.0 * l)) - math.sqrt(l / (2.0 * x_bar))
    expo = -alpha * l * (l / (2.0 * x_bar))
    return pref * _cosh_times_exp(arg, expo)


# ---------------------------------------------------------------------------
# current laws
# ---------------------------------------------------------------------------

def _sge_arg_expo(e, e_t, c_v, substituted):
    chi = e_t * c_v / e
    if substituted:
        # literal back-substitution of the pair geometry: the 1/2 next to
        # the observer point stays in the exponent and second cosh term
        arg = math.sqrt(2.0 / chi) - math.sqrt(0.5 * chi)
        expo = -0.5 * chi
    else:
        arg = math.sqrt(2.0 / chi) - math.sqrt(chi)
        expo = -chi
    return arg, expo


def current_sge(e, e_t, c_v, c_tilde1, substituted):
    """Soliton-pair current C~1 cosh(sqrt(2E/(ET cv)) - sqrt(ET cv/E)) e^(-ET cv/E).

    ``substituted`` selects the un-absorbed convention with exp(-chi/2) and
    sqrt(chi/2) instead (see transport module docs).  Overflow-safe: huge
    fields give inf, vanishing fields underflow to 0.0.
    """
    arg, expo = _sge_arg_expo(e, e_t, c_v, substituted)
    return c_tilde1 * _cosh_times_exp(arg, expo)


def current_sge_log(e, e_t, c_v, c_tilde1, substituted):
    """ln of current_sge, usable far outside double-precision range."""
    arg, expo = _sge_arg_expo(e, e_t, c_v, substituted)
    a = abs(arg)
    # ln cosh(a) = a + ln(1 + e^(-2a)) - ln 2
    return math.log(c_tilde1) + a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0) + expo


def current_zener(e, e_t, g_p):
    """Phenomenological depinning law G_p (E - E_T) e^(-E_T/E) above threshold."""
    if e <= e_t:
        return 0.0
    return g_p * (e - e_t) * math.exp(-e_t / e)
