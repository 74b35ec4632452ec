"""Verification suite: named cross-checks with independent oracles.

Every check pits a closed form against an independent route (quadrature,
re-derivation, exhaustive sweep or a recorded regression constant).  A
check takes no argument and returns ``(measured, tolerance, detail)``: the
measured error, its default pass tolerance and a one-line description.
``run_check`` alone names the result and judges it, against the default or
an override.  Composite checks (several sub-assertions with different
scales) report the worst normalized margin, i.e. measured <= 1.0 passes, so
tolerance overrides behave uniformly.

All sweeps are deterministic: random draws use fixed seeds.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fitting, numerics, potential, transport, tunneling, wavefunctional

__all__ = ["CHECKS", "CheckResult", "run_check", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of the check ``name``: ``passed`` is ``measured <= tolerance``, and ``detail`` describes it."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_erf_quadrature():
    """erf against (2/sqrt(pi)) * adaptive quadrature of e^(-t^2) on [0, x]."""
    pref = 2.0 / math.sqrt(math.pi)
    xs = np.linspace(0.25, 6.0, 24)
    quads = numerics.integrate_family(lambda t, i: np.exp(-t * t), 0.0, xs, 1e-14)
    worst = max(abs(math.erf(x) - pref * q) for x, q in zip(xs.tolist(), quads.tolist()))
    return worst, 1e-12, "max |erf - quadrature| on x in [0.25, 6]"


def check_normalization():
    """One-sided Gaussian normalization round trip on a 5x5 log grid."""
    pairs = list(itertools.product(np.geomspace(0.1, 100.0, 5).tolist(), np.geomspace(0.5, 50.0, 5).tolist()))
    alphas = np.array([alpha for alpha, _ in pairs])
    cs = np.array([wavefunctional.norm_constant(alpha, l) for alpha, l in pairs])
    u_max = np.array([l / math.sqrt(potential.TWO_PI) for _, l in pairs])
    vals = numerics.integrate_family(
        lambda u, i: cs[i] * cs[i] * np.exp(-2.0 * alphas[i] * u * u), 0.0, u_max, 1e-11
    )
    worst = float(np.max(np.abs(vals - 1.0)))
    return worst, 1e-8, "max |integral - 1| on (alpha, L) log grid"


def check_thin_wall_ft():
    """Closed-form box amplitude vs direct cosine-transform quadrature."""
    ls = (1.0, 2.0, 5.0, 10.0)
    ks = np.linspace(0.01, 20.0, 50)
    closed = np.array([[wavefunctional.thin_wall_ft(k, l) for k in ks.tolist()] for l in ls])
    direct = wavefunctional.thin_wall_ft_oracle(ks, np.array(ls)[:, None])
    worst = float(np.max(np.abs(closed - direct) / np.abs(closed)))
    return worst, 1e-6, "max relative error, k in [0.01, 20], L in {1,2,5,10}"


# seeded uniforms read by the ratio-18-19 check; its seed and rejection rule use 693
_RATIO_18_19_BLOCK = 1024


def _ratio_18_19_inputs():
    """The 100 accepted (x_bar, l, alpha, c1_norm, c2_norm, m_star) tuples of the ratio check.

    A draw is rejected when the common exponential factor falls below the
    normal double range, where a quotient of subnormals cannot carry 1e-12.
    The uniforms come from one block of seeded random() values, read in
    stream order: lo + (hi - lo) * u is what Generator.uniform(lo, hi)
    returns for the same u, bit for bit, so the inputs are those of one
    uniform() call per value.
    """
    it = iter(np.random.default_rng(20240811).random(_RATIO_18_19_BLOCK).tolist())

    def uniform(lo, hi):
        return lo + (hi - lo) * next(it)

    inputs = []
    while len(inputs) < 100:
        x_bar, l, alpha = uniform(0.1, 10.0), uniform(0.5, 50.0), uniform(0.02, 5.0)
        if alpha * l * l / (2.0 * x_bar) > 600.0:
            continue
        inputs.append((x_bar, l, alpha, uniform(0.1, 10.0), uniform(0.1, 10.0), uniform(0.1, 10.0)))
    return inputs


def check_ratio_18_19():
    """Full/reduced matrix-element ratio at n1 = 1 must be exactly 1/2."""
    worst = 0.0
    for x_bar, l, alpha, c1_norm, c2_norm, m_star in _ratio_18_19_inputs():
        inputs = tunneling.MatrixElementInputs(x_bar, l, alpha, 1.0, c1_norm, c2_norm, m_star)
        worst = max(worst, abs(tunneling.t_if_analytic(inputs) / tunneling.t_if_simplified(inputs) - 0.5))
    return worst, 1e-12, "max |ratio - 1/2| over 100 random inputs"


def check_sge_reconciliation():
    """Printed current vs the matrix-element form after the c_v absorption."""
    tp = transport.TransportParams(c_v=0.7, c_tilde1=2.5)
    es = np.geomspace(0.2, 20.0, 100)
    worst = 0.0
    for e, a in zip(es.tolist(), transport.curve_series("sge", tp, es).currents.tolist()):
        b = transport.sge_from_matrix_element_form(e, tp)
        worst = max(worst, abs(a - b) / abs(a))
    return worst, 1e-12, "max relative gap on a 100-point log grid"


def check_zener_threshold():
    """Zero at/below threshold, continuity at E_T, strictly increasing above."""
    tp = transport.TransportParams()
    below = float(transport.curve_series("zener", tp, np.linspace(0.05, tp.e_t, 200)).currents.max())
    continuity = abs(transport.current_zener(tp.e_t * (1.0 + 1e-12), tp))
    es = np.linspace(tp.e_t * (1.0 + 1e-8), 100.0 * tp.e_t, 10_000)
    vals = transport.curve_series("zener", tp, es).currents
    violations = int(np.sum(np.diff(vals) <= 0.0))
    measured = max(below / 1e-300, continuity / 1e-11, float(violations))
    return measured, 1.0, "normalized worst of: below-threshold |I|, continuity gap, non-increasing steps"


def check_bogomolnyi_sweep():
    """Energy bound holds on every pair profile of the (b, L, C1, C2 > 0) grid, where the gap is positive."""
    bs, ls, coefficients = (0.5, 1.0, 2.0, 4.0), (5.0, 8.0, 10.0, 15.0), (0.5, 1.0, 2.0)
    pairs = itertools.product(coefficients, coefficients)
    potentials = [potential.PotentialParams(c1=c1, c2=c2, phi0=potential.TWO_PI) for c1, c2 in pairs]
    failures = 0
    for l in ls:
        # one family of the four steepnesses per L; every (C1, C2) pair reads the same samples
        kps = [wavefunctional.KinkPairProfile(x_a=-0.5 * l, x_b=0.5 * l, b=b) for b in bs]
        family = wavefunctional.sample_profile(kps, half_width=25.0, n=4001)
        for p in potentials:
            reports = potential.bogomolnyi_check(family, p, phi_c=0.0, phi_f=0.0, phi_t=potential.TWO_PI)
            failures += sum(not report.satisfied for report in reports)
    total = len(bs) * len(ls) * len(potentials)
    return float(failures), 0.0, f"bound violations across {total} grid profiles"


def check_topological_charge():
    """Pair profiles wind to 0 (1e-12); single 0 -> 2 pi kinks wind to 1 (1e-9)."""
    worst_pair = 0.0
    for l in (4.0, 10.0):
        kps = [wavefunctional.KinkPairProfile(x_a=0.0, x_b=l, b=b) for b in (0.5, 1.0, 2.0)]
        family = wavefunctional.sample_profile(kps, half_width=20.0, n=801)
        worst_pair = max(worst_pair, float(np.max(np.abs(potential.topological_charge(family)))))
    xs = np.linspace(-30.0, 30.0, 1201)
    kinks = potential.FieldProfile(xs, math.pi * (1.0 + np.tanh(np.array([[1.0], [2.0], [4.0]]) * xs)))
    worst_kink = float(np.max(np.abs(potential.topological_charge(kinks) - 1.0)))
    measured = max(worst_pair / 1e-12, worst_kink / 1e-9)
    detail = f"normalized worst of pair windings ({worst_pair:.2e}) and kink windings ({worst_kink:.2e})"
    return measured, 1.0, detail


def oracle_shape_sweep():
    """Declared sweep: centers 0 and 2 pi, alpha = 1/L, alpha*Delta^2 in [4, 25], 15 points.

    Returns (x, ln|T|_oracle, ln|T|_analytic) arrays with x = alpha Delta^2/2.
    The analytic route is evaluated at the observer point x_bar = L^2/(4 pi^2)
    that places both routes on a common exponential scale.
    """
    delta = potential.TWO_PI
    xs = np.linspace(2.0, 12.5, 15)
    specs_i, specs_f, analytic = [], [], []
    for x in xs.tolist():
        alpha = 2.0 * x / delta**2
        l = 1.0 / alpha
        # both states share (alpha, L), so one norm serves the pair, as in transport_pair_specs
        norm_c = wavefunctional.norm_constant(alpha, l)
        specs_i.append(wavefunctional.WavefunctionalSpec(alpha, 0.0, norm_c))
        specs_f.append(wavefunctional.WavefunctionalSpec(alpha, delta, norm_c))
        inputs = tunneling.MatrixElementInputs(
            x_bar=l * l / delta**2, l=l, alpha=alpha, n1=1.0, c1_norm=norm_c, c2_norm=norm_c, m_star=1.0
        )
        analytic.append(math.log(tunneling.t_if_simplified(inputs)))
    oracle = tunneling.t_if_single_mode_oracles(specs_i, specs_f, tol=1e-12)
    return xs, np.array([math.log(t) for t in oracle.tolist()]), np.array(analytic)


def decay_slope(xs, ln_t):
    """Decay slope b of ln|T| = a + c ln(x) + b x (prefactor-aware regression)."""
    design = np.column_stack([np.ones_like(xs), np.log(xs), xs])
    coef, *_ = np.linalg.lstsq(design, ln_t, rcond=None)
    return float(coef[2])


def check_oracle_shape():
    """Quadrature oracle vs analytic forms: affine agreement and decay slope."""
    xs, ln_o, ln_a = oracle_shape_sweep()
    corr = float(np.corrcoef(ln_o, ln_a)[0, 1])
    slope = decay_slope(xs, ln_o)
    measured = max((1.0 - corr) / (1.0 - 0.99), abs(slope + 1.0) / 0.05)
    return measured, 1.0, f"corr = {corr:.6f} (>= 0.99), decay slope = {slope:.4f} (within 5% of -1)"


def fig2b_fit():
    """Reference fit to Zener samples on the declared span: (fit, sge, zener, rms_rel)."""
    tp = transport.TransportParams()
    lo, hi = fitting.FIG2B_WINDOW
    es = np.linspace(lo * tp.e_t, hi * tp.e_t, 100)
    fit = fitting.fit_sge_to_zener(tp, es, free={"c_tilde1", "c_v"}, start=tp)
    fitted = fitting.transport_with(tp, ("c_tilde1", "c_v"), fit.params)
    sge = transport.curve_series("sge", fitted, es)
    zener = transport.curve_series("zener", tp, es)
    return fit, sge, zener, fitting.compare_series(sge, zener)


def check_fig2b_fit():
    """Converged fit reproducing the recorded RMS; shared monotonicity/curvature."""
    fit, sge, zener, rms_rel = fig2b_fit()
    parts = []
    parts.append(0.0 if fit.converged else 2.0)
    ref = fitting.FIG2B_REFERENCE_RMS_REL
    parts.append(abs(rms_rel - ref) / ref / 0.01)
    increasing = np.all(np.diff(sge.currents) > 0.0) and np.all(np.diff(zener.currents) > 0.0)
    parts.append(0.0 if increasing else 2.0)
    curv_agree = np.all(np.sign(np.diff(sge.currents, 2)) == np.sign(np.diff(zener.currents, 2)))
    parts.append(0.0 if curv_agree else 2.0)
    detail = f"converged = {fit.converged}, rms_rel = {rms_rel:.12g} (recorded {ref:.12g})"
    return max(parts), 1.0, detail


def check_fit_roundtrip():
    """Self-fit recovery of (c_tilde1, c_v) from 20%-perturbed starts, all 50 in one fit family."""
    rng = np.random.default_rng(20240812)
    # per fit, in draw order: the true c_tilde1 and c_v, then the factors of their starts
    draws = rng.uniform([0.2, 0.5, 0.8, 0.8], [5.0, 2.0, 1.2, 1.2], size=(50, 4))
    truths = draws[:, :2]
    starts = [transport.TransportParams(c_tilde1=ct * f1, c_v=cv * f2) for ct, cv, f1, f2 in draws.tolist()]
    es = np.linspace(1.2, 5.0, 40)
    targets = transport.current_sge_array(es, 1.0, truths[:, 1:], truths[:, :1], False)
    fits = fitting.fit_sge_family(es, targets, {"c_tilde1", "c_v"}, starts)
    worst = float(np.max(np.abs(np.array([fit.params for fit in fits]) - truths) / truths))
    return worst, 1e-5, "max relative parameter error over 50 self-fits"


CHECKS = {
    "erf-quadrature": check_erf_quadrature,
    "normalization": check_normalization,
    "thin-wall-ft": check_thin_wall_ft,
    "ratio-18-19": check_ratio_18_19,
    "sge-reconciliation": check_sge_reconciliation,
    "zener-threshold": check_zener_threshold,
    "bogomolnyi-sweep": check_bogomolnyi_sweep,
    "topological-charge": check_topological_charge,
    "oracle-shape": check_oracle_shape,
    "fig2b-fit": check_fig2b_fit,
    "fit-roundtrip": check_fit_roundtrip,
}


def run_check(name, tolerance=None):
    """Run one named check, judged against ``tolerance`` or, if None, its default."""
    measured, default, detail = CHECKS[name]()
    tolerance = default if tolerance is None else tolerance
    return CheckResult(name, bool(measured <= tolerance), float(measured), float(tolerance), detail)


def run_checks(names=None, tolerances=None):
    """Run the selected checks (all by default) in registry order."""
    tolerances = tolerances or {}
    selected = list(CHECKS) if names is None else list(names)
    return [run_check(name, tolerances.get(name)) for name in selected]
