"""Reference routes that only the tests use as independent oracles.

``finite_diff_gradient`` checks analytic Jacobians; ``thin_wall_box`` is the
box that a steep kink-pair profile approaches away from its walls.
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
