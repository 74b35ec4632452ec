"""Kink-pair profiles, thin-wall reduction and Gaussian wavefunctionals.

The functional integral over field configurations is reduced to one
retained momentum-mode amplitude u, so a wavefunctional here is a
normalized Gaussian in a single collective coordinate.  The thin-wall box
and its momentum-space amplitude use the unit-height convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import integrate_adaptive
from .potential import FieldProfile

__all__ = [
    "DEFAULT_EPS_PLUS",
    "KinkPairProfile",
    "WavefunctionalSpec",
    "eval_wavefunctional",
    "kink_pair_profile",
    "norm_constant",
    "sample_profile",
    "thin_wall_box",
    "thin_wall_ft",
    "thin_wall_ft_oracle",
    "transport_pair_specs",
]

TWO_PI = 2.0 * math.pi
_SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)

# offset of the final-state center above one full winding; the physics only
# requires it to be small and positive
DEFAULT_EPS_PLUS = 1e-3


@dataclass(frozen=True)
class KinkPairProfile:
    """Soliton at x_a, antisoliton at x_b > x_a, wall steepness b > 0."""

    x_a: float
    x_b: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.x_a) and math.isfinite(self.x_b) and math.isfinite(self.b)):
            raise ValueError("kink-pair parameters must be finite")
        if not self.x_b > self.x_a:
            raise ValueError("x_b must exceed x_a")
        if not self.b > 0.0:
            raise ValueError("wall steepness b must be positive")

    @property
    def l(self):
        return self.x_b - self.x_a


@dataclass(frozen=True)
class WavefunctionalSpec:
    """Gaussian collective-coordinate state: norm_c * exp(-alpha (u - center)^2).

    norm_c and u_max come from the one-sided normalization over [0, u_max]
    with u_max = L / sqrt(2 pi); use ``normalized`` to build a consistent
    spec from (alpha, L, center).
    """

    alpha: float
    center: float
    norm_c: float
    u_max: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not self.norm_c > 0.0:
            raise ValueError("norm_c must be positive")
        if not self.u_max > 0.0:
            raise ValueError("u_max must be positive")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")

    @classmethod
    def normalized(cls, alpha, l, center=0.0):
        """Spec with norm_c from the error-function closed form."""
        return cls(
            alpha=alpha,
            center=center,
            norm_c=norm_constant(alpha, l),
            u_max=l / math.sqrt(TWO_PI),
        )


def kink_pair_profile(x, kp):
    """tanh u + tanh v = sinh(bL) / (cosh u cosh v), u = b (x - x_a), v = b (x_b - x).

    ``x`` is a float or a numpy array.  The form 2 e^(2 min(u, v, 0)) (1 - e^(-2bL))
    / ((1 + e^(-2|u|)) (1 + e^(-2|v|))) neither cancels in the tails nor overflows.
    """
    u = kp.b * (x - kp.x_a)
    v = kp.b * (kp.x_b - x)
    num = np.exp(2.0 * np.minimum(np.minimum(u, v), 0.0)) * -np.expm1(-2.0 * kp.b * kp.l)
    return 2.0 * num / ((1.0 + np.exp(-2.0 * np.abs(u))) * (1.0 + np.exp(-2.0 * np.abs(v))))


def sample_profile(kp, half_width, n):
    """Uniform FieldProfile on [x_a - half_width, x_b + half_width]."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")
    xs = np.linspace(kp.x_a - half_width, kp.x_b + half_width, int(n))
    return FieldProfile(xs, kink_pair_profile(xs, kp))


def thin_wall_box(x, l, height):
    """Centered box: height for |x| <= l/2 (closed interval), else 0."""
    if not l > 0.0:
        raise ValueError("box width must be positive")
    return height if abs(x) <= 0.5 * l else 0.0


def thin_wall_ft(k, l):
    """Momentum amplitude sqrt(2/pi) sin(k L/2)/k of the unit-height box.

    The removable singularity at k = 0 is evaluated as sqrt(2/pi) L/2
    for |k| < 1e-12.
    """
    if not l > 0.0:
        raise ValueError("box width must be positive")
    k, l = float(k), float(l)
    if abs(k) < 1e-12:
        return _SQRT_TWO_OVER_PI * 0.5 * l
    return _SQRT_TWO_OVER_PI * math.sin(0.5 * k * l) / k


def thin_wall_ft_oracle(k, l, tol=1e-11):
    """Direct cosine-transform quadrature of the unit box (independent route).

    (1/sqrt(2 pi)) * integral of cos(k x) over [-l/2, l/2], by adaptive
    Gauss-Kronrod quadrature on node arrays.
    """
    if not l > 0.0:
        raise ValueError("box width must be positive")
    k, l = float(k), float(l)
    val = integrate_adaptive(lambda x: np.cos(k * x), -0.5 * l, 0.5 * l, float(tol))
    return val / math.sqrt(2.0 * math.pi)


def norm_constant(alpha, l):
    """C with integral_0^{L/sqrt(2 pi)} C^2 e^(-2 alpha u^2) du = 1.

    Uses the closed form integral_0^b e^(-a x^2) dx
    = (1/2) sqrt(pi/a) erf(b sqrt(a)) with a = 2 alpha.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    if not l > 0.0:
        raise ValueError("separation L must be positive")
    u_max = float(l) / math.sqrt(2.0 * math.pi)
    a = 2.0 * float(alpha)
    integral = 0.5 * math.sqrt(math.pi / a) * math.erf(u_max * math.sqrt(a))
    return 1.0 / math.sqrt(integral)


def eval_wavefunctional(u, spec):
    """norm_c * exp(-alpha (u - center)^2) at a float or numpy array ``u``."""
    d = u - spec.center
    return spec.norm_c * np.exp(-spec.alpha * d * d)


def transport_pair_specs(l, eps_plus=DEFAULT_EPS_PLUS):
    """(initial, final) transport states for pair separation L.

    Width alpha = 1/L for both; centers 0 and 2 pi + eps_plus; both carry
    the one-sided normalization constant for that (alpha, L).
    """
    if not l > 0.0:
        raise ValueError("separation L must be positive")
    alpha = 1.0 / l
    initial = WavefunctionalSpec.normalized(alpha, l, center=0.0)
    final = WavefunctionalSpec.normalized(alpha, l, center=TWO_PI + eps_plus)
    return initial, final
