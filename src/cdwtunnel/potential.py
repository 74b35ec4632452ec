"""The extended quartic potential, gap energies and the bound diagnostic.

Nothing here solves field equations; it only evaluates energies on
caller-supplied data.  The printed potential
C1 (phi-phi0)^2 - 4 C2 phi phi0 (phi-phi0)^2 + C2 (phi^2-phi0^2)^2 is
d^2 (C1 + C2 d^2) with d = phi - phi0, so a profile's static energy under
any (C1, C2) is G + C1 M2 + C2 M4, from the trapezoid moments
G = int (d_x phi)^2/2, M2 = int d^2 and M4 = int d^4, which a
``FieldProfile`` computes once per phi0.  A function of a profile gives one
result per row of a family and a single one for a one-row (1-D) profile; a
winding or energy outside the double range is a ValueError naming the
quantity and, in a family, the row.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundReport",
    "FieldProfile",
    "PotentialParams",
    "bogomolnyi_check",
    "delta_e_gap",
    "eval_extended_potential",
    "topological_charge",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PotentialParams:
    """Coefficients c1, c2 and vacuum phi0 of the extended quartic potential."""

    c1: float = 1.0
    c2: float = 1.0
    phi0: float = TWO_PI

    def __post_init__(self):
        for name in ("c1", "c2", "phi0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class FieldProfile:
    """Sampled field configurations phi(x) on one strictly increasing grid.

    ``phis`` is one profile, shape (n,), or a family of m profiles, shape
    (m, n), on the grid ``xs`` of shape (n,); ``len`` is n.  ``xs`` and
    ``phis`` are read-only copies, so the cached moments stay those of the
    samples.  Both must be finite.  Every row of a family is bit for bit its
    own one-row profile.

    The grid is uniform when every step lies within 4 ulp(max |x|) of
    h = (x_last - x_first)/(n - 1), as every ``np.linspace`` grid does; a span
    beyond the double range is never uniform.  On a uniform grid the gradient
    and the moments take the scalar step h, which moves their last bits
    against the xs route that every other grid takes.
    """

    def __init__(self, xs, phis):
        xs = np.array(xs, dtype=float)
        phis = np.array(phis, dtype=float)
        if xs.ndim != 1 or phis.ndim not in (1, 2) or phis.shape[-1] != xs.size:
            raise ValueError("xs must be 1-D and phis of shape (n,) or (m, n), with n = len(xs)")
        if xs.size < 2:
            raise ValueError("profile needs at least 2 samples")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(phis))):
            raise ValueError("profile values must be finite")
        if not (xs[1:] > xs[:-1]).all():
            raise ValueError("xs must be strictly increasing")
        xs.flags.writeable = phis.flags.writeable = False
        self.xs = xs
        self.phis = phis
        self._moments = {}
        # on Python floats a span beyond the double range reads inf, without a
        # warning, and is never uniform; a finite span has finite steps
        lo, hi = float(xs[0]), float(xs[-1])
        h = (hi - lo) / (xs.size - 1)
        self._step = None
        if math.isfinite(h):
            steps, tol = np.diff(xs), 4.0 * math.ulp(max(abs(lo), abs(hi)))
            if steps.max() - h <= tol and h - steps.min() <= tol:
                self._step = h
        # each row's (phi(x_last) - phi(x_first)) / (2 pi), checked where it is
        # read; the step n - 1 picks the first and last sample
        ends = phis.reshape(-1, xs.size)[:, :: xs.size - 1].tolist()
        self._windings = [(last - first) / TWO_PI for first, last in ends]

    def __len__(self):
        return self.xs.size

    @property
    def gradient_energy(self):
        """(d_x phi)^2 / 2 at every sample of every row, from one ``np.gradient`` on each read.

        Off a uniform grid it is ``np.gradient(phis - phis[..., :1], xs)``:
        its three weights per sample do not sum to exactly 0 in floating
        point, so each slope carries ~eps |phi| / h, and subtracting each
        row's first sample keeps a profile's offset from 0 out of that
        error.  A slope beyond the double range reads inf (or nan), without
        a warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            if self._step is not None:
                return 0.5 * np.gradient(self.phis, self._step, axis=-1) ** 2
            return 0.5 * np.gradient(self.phis - self.phis[..., :1], self.xs, axis=-1) ** 2

    def _energy_moments(self, phi0):
        """One (G, M2, M4) per row for this phi0, from ``_integrate_moments`` on first use."""
        if phi0 not in self._moments:
            self._moments[phi0] = self._integrate_moments(phi0)
        return self._moments[phi0]

    def _integrate_moments(self, phi0):
        """Trapezoid integrals of ``gradient_energy``, d^2 and d^4, d = phi - phi0: one (G, M2, M4) per row.

        On a uniform grid each is h (y_first/2 + sum of the inner samples +
        y_last/2), one row reduction; on any other grid it is
        ``np.trapezoid(y, xs)``, which halves each pair product before the
        sum, so a total stays finite up to twice as far (and rounds by a few
        ulp where those products are subnormal).  The integrands are not
        negative, so a moment beyond the double range reads inf (an
        end-corrected full sum could read inf - inf), and nan where a step of
        xs overflows.
        """
        h = self._step
        rows = (-1, self.xs.size)
        sums = []
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = (self.phis.reshape(rows) - phi0) ** 2
            for y in (self.gradient_energy.reshape(rows), d2, d2 * d2):
                if h is None:
                    total = np.trapezoid(y, self.xs, axis=1)
                else:
                    total = h * (np.add.reduce(y[:, 1:-1], axis=1) + 0.5 * (y[:, 0] + y[:, -1]))
                sums.append(total.tolist())
        return list(zip(*sums))


def _finite_rows(name, profile, values):
    """``values``, one float per row, if all are finite.

    Else a ValueError naming the quantity ``name`` and, in a family, the first bad row.
    """
    for row, value in enumerate(values):
        if not math.isfinite(value):
            where = f" in row {row}" if profile.phis.ndim == 2 else ""
            raise ValueError(f"{name} is {value!r}{where}, outside the double range")
    return values


@dataclass(frozen=True)
class BoundReport:
    """Result of the energy-bound diagnostic on one profile.

    lhs is the static Euclidean energy of the profile, rhs the topological
    lower bound |Q| + (phi0 - phi_C)^2/2 * braces with braces = 2 * gap.
    """

    lhs: float
    q_abs: float
    rhs: float
    braces: float
    satisfied: bool


def eval_extended_potential(phi, p):
    """The printed potential at a float or array phi, in the factored form d^2 (C1 + C2 d^2), d = phi - phi0."""
    d = phi - p.phi0
    d2 = d * d
    return d2 * (p.c1 + p.c2 * d2)


def delta_e_gap(p, phi_f, phi_t):
    """Gap energy V(phi_F) - V(phi_T) between false and true vacuum values."""
    return eval_extended_potential(phi_f, p) - eval_extended_potential(phi_t, p)


def _windings(profile):
    """(phi(x_last) - phi(x_first)) / (2 pi) of every row, a list of finite floats."""
    return _finite_rows("topological charge", profile, profile._windings)


def topological_charge(profile):
    """Winding (phi(x_last) - phi(x_first)) / (2 pi) per row: a float, or an array for a family."""
    q = _windings(profile)
    return q[0] if profile.phis.ndim == 1 else np.array(q)


def bogomolnyi_check(profile, p, phi_c, phi_f, phi_t):
    """Energy-bound diagnostic: static energy vs |Q| + (phi0-phi_C)^2/2 * braces.

    The left side is the trapezoid integral of the profile's
    ``gradient_energy`` plus V(phi) over the supplied grid, read from the
    profile's cached moments as G + C1 M2 + C2 M4; satisfied allows a 1e-9
    relative slack on the right side.  One ``BoundReport`` per row.
    """
    q_abs = [abs(q) for q in _windings(profile)]
    braces = 2.0 * delta_e_gap(p, phi_f, phi_t)
    offset = 0.5 * (p.phi0 - phi_c) ** 2 * braces
    moments = profile._energy_moments(p.phi0)
    lhs = _finite_rows("static energy", profile, [g + p.c1 * m2 + p.c2 * m4 for g, m2, m4 in moments])
    rhs = _finite_rows("bound right side", profile, [q + offset for q in q_abs])
    reports = [
        BoundReport(left, q, right, braces, left >= right - 1e-9 * max(1.0, abs(right)))
        for left, q, right in zip(lhs, q_abs, rhs)
    ]
    return reports[0] if profile.phis.ndim == 1 else reports
