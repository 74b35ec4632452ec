"""Reference routes that only the tests use as independent oracles.

``finite_diff_gradient`` checks analytic Jacobians; ``thin_wall_box`` is the
box that a steep kink-pair profile approaches away from its walls;
``printed_potential_terms`` is the extended potential as printed, term by
term, against the factored form the package evaluates;
``ratio_18_19_scalar_draws`` draws the ratio check's inputs one
``Generator.uniform`` call at a time.
"""

import numpy as np


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


def thin_wall_box(x, l, height):
    """Centered box: height for |x| <= l/2 (closed interval), else 0."""
    if not l > 0.0:
        raise ValueError("box width must be positive")
    return height if abs(x) <= 0.5 * l else 0.0


def printed_potential_terms(phi, c1, c2, phi0):
    """C1 (phi-phi0)^2, -4 C2 phi phi0 (phi-phi0)^2 and C2 (phi^2-phi0^2)^2, phi a float or array.

    Their sum is the printed potential.  phi^2 - phi0^2 is formed as
    (phi - phi0)(phi + phi0), so each term is within a few ulp of itself and
    the sum within a few ulp of the sum of the terms' magnitudes, the scale
    of the printed form's cancellation.
    """
    d = phi - phi0
    s = d * (phi + phi0)
    return c1 * d * d, -4.0 * c2 * phi * phi0 * d * d, c2 * s * s


def ratio_18_19_scalar_draws():
    """(inputs, draws): the ratio-18-19 check's 100 accepted input tuples, one uniform() call per value.

    Each tuple is (x_bar, l, alpha, c1_norm, c2_norm, m_star); a draw whose
    exponent alpha L^2 / (2 x_bar) exceeds 600 is rejected after its first
    three values.  ``draws`` counts the uniform() calls.
    """
    rng = np.random.default_rng(20240811)
    inputs, draws = [], 0
    while len(inputs) < 100:
        x_bar, l, alpha = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.5, 50.0)), float(rng.uniform(0.02, 5.0))
        draws += 3
        if alpha * l * l / (2.0 * x_bar) > 600.0:
            continue
        inputs.append((x_bar, l, alpha, *(float(rng.uniform(0.1, 10.0)) for _ in range(3))))
        draws += 3
    return inputs, draws
