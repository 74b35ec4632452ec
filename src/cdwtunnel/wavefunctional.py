"""Kink-pair profiles, thin-wall reduction and Gaussian wavefunctionals.

The functional integral over field configurations is reduced to one
retained momentum-mode amplitude u, so a wavefunctional here is a
normalized Gaussian in a single collective coordinate.  The thin-wall box
and its momentum-space amplitude use the unit-height convention.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import integrate_family
from .potential import TWO_PI, FieldProfile

__all__ = [
    "DEFAULT_EPS_PLUS",
    "KinkPairProfile",
    "WavefunctionalSpec",
    "eval_wavefunctional",
    "kink_pair_profile",
    "norm_constant",
    "sample_profile",
    "thin_wall_ft",
    "thin_wall_ft_oracle",
    "transport_pair_specs",
]

_SQRT_TWO_OVER_PI = math.sqrt(2.0 / math.pi)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

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


# Two specs are built per point of an L grid, so __init__ is written out, as in
# tunneling.MatrixElementInputs, with one item write into __dict__ per field.
@dataclass(frozen=True, init=False)
class WavefunctionalSpec:
    """Gaussian collective-coordinate state: norm_c * exp(-alpha (u - center)^2).

    norm_c comes from the one-sided normalization over [0, L / sqrt(2 pi)]
    (see ``norm_constant``); the spec keeps no L, so use ``normalized`` to
    build a consistent spec from (alpha, L, center).
    """

    alpha: float
    center: float
    norm_c: float

    def __init__(self, alpha, center, norm_c):
        if not 0.0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0.0 < norm_c < math.inf:
            raise ValueError("norm_c must be positive and finite")
        if not math.isfinite(center):
            raise ValueError("center must be finite")
        fields = self.__dict__
        fields["alpha"] = alpha
        fields["center"] = center
        fields["norm_c"] = norm_c

    @classmethod
    def normalized(cls, alpha, l, center=0.0):
        """Spec with norm_c from the error-function closed form."""
        return cls(alpha=alpha, center=center, norm_c=norm_constant(alpha, l))


def kink_pair_profile(x, kp):
    """tanh u + tanh v = sinh(bL) / (cosh u cosh v), u = b (x - x_a), v = b (x_b - x).

    ``x`` is a float or a numpy array.  The form 2 e^(2 min(u, v, 0)) (1 - e^(-2bL))
    / ((1 + e^(-2|u|)) (1 + e^(-2|v|))) neither cancels in the tails nor
    overflows: a u or v that overflows to +-inf still gives the limit value.
    """
    return _kink_pair(x, kp.x_a, kp.x_b, kp.b)


def _kink_pair(x, x_a, x_b, b):
    """``kink_pair_profile`` with the steepness ``b`` a float or an array that broadcasts against ``x``.

    The three (m, n) arrays u, v and the result are updated in place, so a
    family allocates no other array of its size.
    """
    with np.errstate(over="ignore"):
        u = np.asarray(b * (x - x_a), dtype=float)
        v = np.asarray(b * (x_b - x), dtype=float)
        out = np.asarray(np.minimum(u, v))
        np.minimum(out, 0.0, out=out)
        out *= 2.0
        np.exp(out, out=out)
        out *= -np.expm1(-2.0 * b * (x_b - x_a))
        out *= 2.0
        for w in (u, v):  # 1 + e^(-2|w|)
            np.abs(w, out=w)
            w *= -2.0
            np.exp(w, out=w)
            w += 1.0
        u *= v
        out /= u
        return out[()]


def sample_profile(kp, half_width, n):
    """Uniform FieldProfile on [x_a - half_width, x_b + half_width], a window inside the double range.

    ``kp`` is one ``KinkPairProfile``, which gives a one-row (1-D) profile,
    or a sequence of them on one (x_a, x_b), which gives a family with one
    row per pair: the kink-pair kernel runs once, on the column of their
    steepnesses, and every row is bit for bit its own one-pair profile.  A
    count numpy cannot allocate is a MemoryError, whichever of numpy's size
    checks refuses it.
    """
    family = not isinstance(kp, KinkPairProfile)
    kps = list(kp) if family else [kp]
    if not kps:
        raise ValueError("a profile family needs at least one kink pair")
    x_a, x_b = kps[0].x_a, kps[0].x_b
    if family and any(k.x_a != x_a or k.x_b != x_b for k in kps):
        raise ValueError("every kink pair of a profile family must share one (x_a, x_b)")
    if n < 2:
        raise ValueError("need at least 2 samples")
    if not half_width > 0.0:
        raise ValueError("half_width must be positive")
    lo, hi = x_a - half_width, x_b + half_width
    if not math.isfinite(hi - lo):
        raise ValueError(f"profile window [{lo!r}, {hi!r}] leaves the double range")
    n = int(n)
    try:
        xs = np.linspace(lo, hi, n)
    except (ValueError, IndexError) as exc:  # numpy's size errors, or near 2**63 an empty array it fails to index
        raise MemoryError(f"cannot allocate {n} profile samples") from exc
    # a family's steepnesses are a column, so the kernel gives one row per pair
    b = np.array([[k.b] for k in kps]) if family else kp.b
    return FieldProfile(xs, _kink_pair(xs, x_a, x_b, b))


def thin_wall_ft(k, l):
    """Momentum amplitude sqrt(2/pi) sin(k L/2)/k of the unit-height box.

    The removable singularity at k = 0 is evaluated as sqrt(2/pi) L/2
    for |k| < 1e-12.  An amplitude that is not finite (a nan k, or an
    infinite L at |k| < 1e-12) and a k L/2 that overflows, where sin has no
    value, are a ValueError naming k and L.
    """
    if not l > 0.0:
        raise ValueError("box width must be positive")
    k, l = float(k), float(l)
    # cheaper than testing the result: the amplitude is inf only at L = inf by |k| < 1e-12, and nan only at a nan k
    if abs(k) < 1e-12:
        if l < math.inf:
            return _SQRT_TWO_OVER_PI * 0.5 * l
    elif k == k:
        try:
            return _SQRT_TWO_OVER_PI * math.sin(0.5 * k * l) / k
        except ValueError:
            pass
    raise ValueError(f"box amplitude sin(k L/2)/k is undefined at k = {k!r}, L = {l!r}, where k L/2 = {0.5 * k * l!r}")


def thin_wall_ft_oracle(k, l):
    """Direct cosine-transform quadrature of the unit box (independent route).

    (1/sqrt(2 pi)) * integral of cos(k x) over [-l/2, l/2] to an absolute
    1e-12.  ``k`` and ``l`` are floats or arrays that broadcast together;
    every (k, l) pair is one member of a single ``integrate_family`` call,
    and floats in give a float out.
    """
    k, l = np.broadcast_arrays(np.asarray(k, dtype=float), np.asarray(l, dtype=float))
    if not np.all(l > 0.0):
        raise ValueError("box width must be positive")
    ks, ls = k.ravel(), l.ravel()
    # cos(k x) is even: twice the half box [0, l/2] at half the tolerance
    val = 2.0 * integrate_family(lambda x, i: np.cos(ks[i] * x), 0.0, 0.5 * ls, 0.5e-12)
    out = (val / _SQRT_TWO_PI).reshape(k.shape)
    return float(out) if out.ndim == 0 else out


def norm_constant(alpha, l):
    """C with integral_0^{L/sqrt(2 pi)} C^2 e^(-2 alpha u^2) du = 1.

    Uses the closed form integral_0^b e^(-a x^2) dx
    = (1/2) sqrt(pi/a) erf(b sqrt(a)) with a = 2 alpha.  Raises ValueError
    unless alpha, L and the integral are positive and finite.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    if not 0.0 < l < math.inf:
        raise ValueError(f"separation L must be positive and finite, got {l!r}")
    u_max = float(l) / _SQRT_TWO_PI
    a = 2.0 * float(alpha)
    integral = 0.5 * math.sqrt(math.pi / a) * math.erf(u_max * math.sqrt(a))
    if not 0.0 < integral < math.inf:
        raise ValueError(f"normalization integral is {integral!r} at alpha = {alpha!r}, L = {l!r}")
    return 1.0 / math.sqrt(integral)


def eval_wavefunctional(u, spec):
    """norm_c * exp(-alpha (u - center)^2) at a float or numpy array ``u``."""
    d = u - spec.center
    return spec.norm_c * np.exp(-spec.alpha * d * d)


def transport_pair_specs(l, eps_plus=DEFAULT_EPS_PLUS):
    """(initial, final) transport states for pair separation L.

    Width alpha = 1/L for both; centers 0 and 2 pi + eps_plus; both carry
    the one-sided normalization constant for that (alpha, L), computed once.
    The offset eps_plus must be positive, so that the final state lies above
    one full winding of the initial one.
    """
    if not eps_plus > 0.0:
        raise ValueError(f"eps_plus must be positive, got {eps_plus!r}")
    if not l > 0.0:
        raise ValueError("separation L must be positive")
    alpha = 1.0 / l
    norm_c = norm_constant(alpha, l)
    return WavefunctionalSpec(alpha, 0.0, norm_c), WavefunctionalSpec(alpha, TWO_PI + eps_plus, norm_c)
