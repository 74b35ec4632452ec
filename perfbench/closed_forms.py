"""Reference values the benchmark computes itself, from numpy and math.

Nothing here imports cdwtunnel: each function restates a closed form from
the README or the module docstrings, so a gate that compares the program
against it is independent of the code under test.
"""

import math

import numpy as np

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
TWO_PI = 2.0 * math.pi


def current_sge(es, e_t, c_v, c_tilde1, substituted=False):
    """C~1 cosh(sqrt(2/chi) - sqrt(chi)) e^-chi with chi = E_T c_v / E.

    The substituted convention uses sqrt(chi/2) and e^(-chi/2) instead.
    """
    chi = e_t * c_v / np.asarray(es, dtype=float)
    if substituted:
        arg = np.sqrt(2.0 / chi) - np.sqrt(chi / 2.0)
        expo = -chi / 2.0
    else:
        arg = np.sqrt(2.0 / chi) - np.sqrt(chi)
        expo = -chi
    return c_tilde1 * np.cosh(arg) * np.exp(expo)


def current_zener(es, e_t, g_p):
    """G_p (E - E_T) e^(-E_T/E) above threshold, exactly 0 at and below it."""
    es = np.asarray(es, dtype=float)
    above = es > e_t
    out = np.zeros_like(es)
    out[above] = g_p * (es[above] - e_t) * np.exp(-e_t / es[above])
    return out


def kink_pair(xs, x_a, x_b, b):
    """tanh(b (x - x_a)) + tanh(b (x_b - x))."""
    xs = np.asarray(xs, dtype=float)
    return np.tanh(b * (xs - x_a)) + np.tanh(b * (x_b - xs))


def thin_wall_ft(ks, l):
    """sqrt(2/pi) sin(k L/2) / k for k != 0."""
    ks = np.asarray(ks, dtype=float)
    return SQRT_2_OVER_PI * np.sin(ks * l / 2.0) / ks


def norm_constant(alpha, l):
    """C with C^2 * (1/2) sqrt(pi/a) erf(u_max sqrt(a)) = 1, a = 2 alpha, u_max = L/sqrt(2 pi)."""
    a = 2.0 * alpha
    u_max = l / math.sqrt(TWO_PI)
    return 1.0 / math.sqrt(0.5 * math.sqrt(math.pi / a) * math.erf(u_max * math.sqrt(a)))


def _cosh_exp(x_bar, ls, alpha, n1sq):
    arg = 2.0 * np.sqrt(x_bar / (2.0 * ls)) - np.sqrt(ls / (2.0 * x_bar))
    expo = -alpha * ls * (n1sq * (ls / (2.0 * x_bar)))
    return np.cosh(arg) * np.exp(expo)


def t_if_simplified(x_bar, ls, alpha, c1n, c2n, m_star):
    """(C1 C2 / m*) cosh(2 sqrt(x/2L) - sqrt(L/2x)) e^(-alpha L L/(2x))."""
    return c1n * c2n / m_star * _cosh_exp(x_bar, ls, alpha, 1.0)


def t_if_analytic(x_bar, ls, alpha, n1, c1n, c2n, m_star):
    """(2/(2 m*)) (n1^2 - n1^4/2) C1 C2 cosh(...) e^(-alpha L n1^2 L/(2x))."""
    n1sq = n1 * n1
    pref = (2.0 / (2.0 * m_star)) * (n1sq - 0.5 * n1sq * n1sq) * c1n * c2n
    return pref * _cosh_exp(x_bar, ls, alpha, n1sq)


def overlap_current(c_i, a_i, m_i, c_f, a_f, m_f, m_star, span=12.0):
    """|T| of the single-mode oracle, integrated in closed form.

    The integrand psi_i psi_f'' - psi_f psi_i'' is the derivative of the
    Wronskian W = psi_i psi_f' - psi_f psi_i', so the integral from the
    barrier point u0 (midpoint of the centers) to the upper limit
    max(center) + span / sqrt(2 min(alpha)) is W(hi) - W(u0).
    """
    u0 = 0.5 * (m_i + m_f)
    hi = max(m_i, m_f) + span / math.sqrt(2.0 * min(a_i, a_f))

    def wronskian(u):
        psi_i = c_i * math.exp(-a_i * (u - m_i) ** 2)
        psi_f = c_f * math.exp(-a_f * (u - m_f) ** 2)
        return psi_i * psi_f * (2.0 * a_i * (u - m_i) - 2.0 * a_f * (u - m_f))

    return abs(wronskian(hi) - wronskian(u0)) / (2.0 * m_star)


def extended_potential(phi, c1, c2, phi0):
    """C1 (phi-phi0)^2 - 4 C2 phi phi0 (phi-phi0)^2 + C2 (phi^2-phi0^2)^2."""
    d = phi - phi0
    return c1 * d * d - 4.0 * c2 * phi * phi0 * d * d + c2 * (phi * phi - phi0 * phi0) ** 2


def profile_energy(xs, phis, c1, c2, phi0):
    """Trapezoid integral of (d_x phi)^2/2 + V(phi) over the sampled grid."""
    grad = np.gradient(phis, xs)
    return float(np.trapezoid(0.5 * grad**2 + extended_potential(phis, c1, c2, phi0), xs))


def mismatch(what, got, ref, rtol, atol=0.0):
    """None if every |got - ref| <= rtol |ref| + atol, else a one-line reason."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return f"{what}: shape {got.shape}, expected {ref.shape}"
    bad = ~(np.abs(got - ref) <= rtol * np.abs(ref) + atol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return (
            f"{what}: {int(bad.sum())} of {ref.size} values off, "
            f"first at {i}: {got.flat[i]!r} vs reference {ref.flat[i]!r}"
        )
    return None
