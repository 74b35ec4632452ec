"""Seeded op streams for the in-process workloads, with their correctness gates.

A workload is an endless stream of ``Op``s made from the seed alone.  An
op's ``call`` is the timed part: one request to the library, repeatable
and free of side effects.  Its inputs and its reference are built before
it runs, outside the timed region, and its ``check`` returns the reason
the result is wrong, or None.

Every op reaches the library through module attributes at call time
(``fitting.fit_sge_to_points``, not a bound function), so the traced run
sees the calls its wrappers replace.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import closed_forms as cf
from cdwtunnel import fitting, potential, transport, tunneling, verify, wavefunctional

# Pass tolerances of the verify registry as each check's signature documents
# them.  The benchmark holds its own copy so that a loosened default shows as
# a failed op instead of a faster one.
VERIFY_TOLERANCES = {
    "erf-quadrature": 1e-12,
    "normalization": 1e-8,
    "thin-wall-ft": 1e-6,
    "ratio-18-19": 1e-12,
    "sge-reconciliation": 1e-12,
    "zener-threshold": 1.0,
    "bogomolnyi-sweep": 0.0,
    "topological-charge": 1.0,
    "oracle-shape": 1.0,
    "fig2b-fit": 1.0,
    "fit-roundtrip": 1e-5,
}

FREE = frozenset(fitting.FREE_PARAM_ORDER)


@dataclass(frozen=True)
class KnownDefect:
    """A program defect present at the seed commit, known by its failure reason.

    An op of one of ``kinds`` whose failure reason starts with ``reason``
    is a known-defect op: it is counted under the defect's name, left out
    of the latencies, and not counted as failed.  Any other failure is a
    failed op and makes the run incorrect, and so do all of this defect's
    ops when it hits more than ``allowed(n)`` of the ``n`` ops of its
    kinds: a regression that makes a rare defect common shows.
    """

    name: str
    kinds: tuple
    reason: str
    share: float = 1.0

    def allowed(self, n):
        return 3 + self.share * n


KNOWN_DEFECTS = (
    # README documents exit 1 for a config error; a non-numeric grid_n exits 2.
    KnownDefect("grid_n_text_exits_2", ("error:grid_n_text",), "exit 2,"),
    # profile --k-n 1 exits 1 but leaves the profile it wrote first.
    KnownDefect("k_n_one_leaves_file", ("error:k_n_one",), "left ['p.csv']"),
    # About 1 Zener fit in 200 stops at max_iter=200 (rejected trial steps
    # count as iterations) with a finite rms no larger than the start's.
    KnownDefect("zener_fit_hits_max_iter", ("zener_fit", "fit"),
                "fit did not converge after 200 iterations", share=0.1),
    # The adaptive Simpson oracle misses the narrow overlap peak for L < 1.5,
    # which the default E grid of matrix-element --over e reaches.
    KnownDefect("oracle_wrong_below_l_1_5", ("matrix-element",), "t_oracle below L = 1.5"),
)


def known_defect(kind, reason):
    """Name of the known defect behind a failed op, or None."""
    for d in KNOWN_DEFECTS:
        if kind in d.kinds and reason.startswith(d.reason):
            return d.name
    return None


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]


class Kronecker:
    """A randomly shifted Kronecker sequence in [0, 1)^d (Roberts' R_d sequence).

    Consecutive points cover the cube evenly in all d coordinates jointly.
    A run of a few hundred ops then sees nearly the same mix of sizes and
    parameters on every seed, which keeps throughput and percentiles
    steady, while the seed (the shift) still changes every input.
    """

    def __init__(self, rng, d):
        phi = 2.0
        for _ in range(60):  # the root of x^(d+1) = x + 1
            phi = (1.0 + phi) ** (1.0 / (d + 1))
        self.alpha = (1.0 / phi) ** np.arange(1, d + 1) % 1.0
        self.x = rng.random(d)

    def __call__(self):
        self.x = (self.x + self.alpha) % 1.0
        return self.x.tolist()


class Cycle:
    """Items in shuffled rounds: each round returns every item once."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.queue = []

    def __call__(self):
        if not self.queue:
            self.queue = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.queue.pop()


def uniform(u, lo, hi):
    return float(lo + (hi - lo) * u)


def log_uniform(u, lo, hi):
    return float(lo * (hi / lo) ** u)


# ---------------------------------------------------------------------------
# verify_suite: one op is one pass over all 11 checks, in a seeded order
# ---------------------------------------------------------------------------

def _check_verify(order, results):
    names = [r.name for r in results]
    if names != order:
        return f"checks ran as {names}, requested {order}"
    for r in results:
        tol = VERIFY_TOLERANCES[r.name]
        if r.tolerance != tol:
            return f"{r.name}: tolerance {r.tolerance!r} is not the documented default {tol!r}"
        if not (r.passed and r.measured <= tol):
            return f"{r.name}: failed, measured {r.measured:.3e} against tolerance {tol:.3e}"
    return None


def verify_suite(seed):
    if set(verify.CHECKS) != set(VERIFY_TOLERANCES):
        raise RuntimeError(
            f"verify registry {sorted(verify.CHECKS)} differs from the benchmark's "
            f"{sorted(VERIFY_TOLERANCES)}"
        )
    rng = np.random.default_rng(seed)
    names = list(VERIFY_TOLERANCES)
    while True:
        order = [names[i] for i in rng.permutation(len(names))]
        yield Op(
            "verify",
            lambda order=order: verify.run_checks(order),
            lambda results, order=order: _check_verify(order, results),
        )


# ---------------------------------------------------------------------------
# fit_mix: 70% self-fits with known truth, 30% fits to Zener samples
# ---------------------------------------------------------------------------

def _check_self_fit(truth, fit):
    if not fit.converged:
        return f"self-fit did not converge after {fit.iterations} iterations"
    rel = np.abs(np.asarray(fit.params) - truth) / truth
    if not (rel.shape == (2,) and np.all(rel <= 1e-5)):
        return f"self-fit recovered {fit.params!r}, truth {truth!r}"
    return None


def _check_zener_fit(es, targets, rms_start, fit):
    # the rms gates hold for a fit that stopped early too; convergence comes last
    if not (math.isfinite(fit.residual_rms) and fit.residual_rms <= rms_start):
        return f"zener fit rms {fit.residual_rms!r} exceeds the start rms {rms_start!r}"
    c_tilde1, c_v = fit.params
    rms = math.sqrt(np.mean((targets - cf.current_sge(es, 1.0, c_v, c_tilde1)) ** 2))
    bad = cf.mismatch("zener fit residual_rms", fit.residual_rms, rms, 1e-9)
    if bad:
        return bad
    if not fit.converged:
        return f"fit did not converge after {fit.iterations} iterations"
    return None


def fit_mix(seed):
    rng = np.random.default_rng(seed)
    kind = Cycle(rng, ["self"] * 7 + ["zener"] * 3)
    # one sequence per kind, so each kind covers its ranges evenly
    points = {k: Kronecker(rng, 7) for k in ("self", "zener")}
    while True:
        k = kind()
        u_n, u_lo, u_hi, u_ct, u_cv, u_p1, u_p2 = points[k]()
        n = int(round(log_uniform(u_n, 20, 400)))
        es = np.linspace(uniform(u_lo, 1.1, 2.0), uniform(u_hi, 3.0, 10.0), n)
        if k == "self":
            truth = np.array([uniform(u_ct, 0.2, 5.0), uniform(u_cv, 0.5, 2.0)])
            targets = cf.current_sge(es, 1.0, truth[1], truth[0])
            start = transport.TransportParams(
                c_tilde1=float(truth[0] * uniform(u_p1, 0.8, 1.2)),
                c_v=float(truth[1] * uniform(u_p2, 0.8, 1.2)),
            )
            yield Op(
                "self_fit",
                lambda es=es, targets=targets, start=start: fitting.fit_sge_to_points(
                    es, targets, FREE, start
                ),
                lambda fit, truth=truth: _check_self_fit(truth, fit),
            )
        else:
            tp = transport.TransportParams()
            targets = cf.current_zener(es, 1.0, 1.0)
            rms_start = math.sqrt(np.mean((targets - cf.current_sge(es, 1.0, 1.0, 1.0)) ** 2))
            yield Op(
                "zener_fit",
                lambda es=es, tp=tp: fitting.fit_sge_to_zener(tp, es, free=FREE, start=tp),
                lambda fit, es=es, t=targets, r=rms_start: _check_zener_fit(es, t, r, fit),
            )


# ---------------------------------------------------------------------------
# grid_eval: one op is one grid request of 10 to 2e4 points
# ---------------------------------------------------------------------------

GRID_KINDS = ("sge_curve", "zener_curve", "profile", "k_grid", "l_grid")


def _check_curve(es, ref, series):
    if not np.array_equal(series.es, es):
        return "curve_series changed the field grid"
    return cf.mismatch("curve currents", series.currents, ref, 1e-12)


def _sge_curve(rng, n, u):
    e_t, c_v, c_tilde1 = uniform(u(), 0.5, 2.0), uniform(u(), 0.5, 2.0), uniform(u(), 0.2, 5.0)
    convention = ("printed", "substituted")[int(rng.integers(2))]
    tp = transport.TransportParams(e_t=e_t, c_v=c_v, c_tilde1=c_tilde1)
    es = np.geomspace(uniform(u(), 0.3, 1.5) * e_t, uniform(u(), 3.0, 10.0) * e_t, n)
    ref = cf.current_sge(es, e_t, c_v, c_tilde1, substituted=convention == "substituted")
    return (
        lambda: transport.curve_series("sge", tp, es, convention),
        lambda series: _check_curve(es, ref, series),
    )


def _zener_curve(rng, n, u):
    e_t, g_p = uniform(u(), 0.5, 2.0), uniform(u(), 0.5, 2.0)
    tp = transport.TransportParams(e_t=e_t, g_p=g_p)
    es = np.geomspace(uniform(u(), 0.3, 1.0) * e_t, uniform(u(), 3.0, 10.0) * e_t, n)
    ref = cf.current_zener(es, e_t, g_p)
    return (
        lambda: transport.curve_series("zener", tp, es),
        lambda series: _check_curve(es, ref, series),
    )


def _check_profile(ref, result):
    xs, phis, q, rhs, c1, c2, phi0 = ref
    prof, charge, report = result
    if not np.array_equal(prof.xs, xs):
        return "sample_profile grid differs from linspace"
    bad = cf.mismatch("profile phi", prof.phis, phis, 1e-12, 1e-12)
    if bad:
        return bad
    if not abs(charge - q) <= 1e-12:
        return f"topological charge {charge!r}, reference {q!r}"
    lhs = cf.profile_energy(xs, phis, c1, c2, phi0)
    bad = cf.mismatch("bound lhs", report.lhs, lhs, 1e-12, 1e-12) or cf.mismatch(
        "bound rhs", report.rhs, rhs, 1e-12
    )
    if bad:
        return bad
    if report.satisfied != (lhs >= rhs - 1e-9 * max(1.0, abs(rhs))):
        return f"bound satisfied={report.satisfied} contradicts lhs {lhs!r}, rhs {rhs!r}"
    return None


def _profile(rng, n, u):
    l = uniform(u(), 2.0, 20.0)
    kp = wavefunctional.KinkPairProfile(x_a=-0.5 * l, x_b=0.5 * l, b=uniform(u(), 0.3, 4.0))
    half_width = uniform(u(), 5.0, 25.0)
    c1, c2, phi0 = uniform(u(), 0.5, 2.0), uniform(u(), 0.5, 2.0), cf.TWO_PI
    p = potential.PotentialParams(c1=c1, c2=c2, phi0=phi0)
    xs = np.linspace(kp.x_a - half_width, kp.x_b + half_width, n)
    phis = cf.kink_pair(xs, kp.x_a, kp.x_b, kp.b)
    q = (phis[-1] - phis[0]) / cf.TWO_PI
    gap = cf.extended_potential(0.0, c1, c2, phi0) - cf.extended_potential(cf.TWO_PI, c1, c2, phi0)
    rhs = abs(q) + 0.5 * phi0**2 * (2.0 * gap)
    ref = (xs, phis, q, rhs, c1, c2, phi0)

    def call():
        prof = wavefunctional.sample_profile(kp, half_width, n)
        charge = potential.topological_charge(prof)
        report = potential.bogomolnyi_check(prof, p, phi_c=0.0, phi_f=0.0, phi_t=cf.TWO_PI)
        return prof, charge, report

    return call, lambda result: _check_profile(ref, result)


def _k_grid(rng, n, u):
    l = uniform(u(), 0.5, 20.0)
    ks = np.linspace(uniform(u(), 0.01, 1.0), uniform(u(), 10.0, 40.0), n)
    ref = cf.thin_wall_ft(ks, l)
    peak = cf.SQRT_2_OVER_PI * l / 2.0
    k_list = ks.tolist()
    return (
        lambda: np.array([wavefunctional.thin_wall_ft(k, l) for k in k_list]),
        lambda amps: cf.mismatch("thin_wall_ft", amps, ref, 1e-12, 1e-13 * peak),
    )


def _l_grid(rng, n, u):
    x_bar, n1, m_star = uniform(u(), 0.5, 5.0), uniform(u(), 0.9, 1.0), uniform(u(), 0.5, 2.0)
    eps = wavefunctional.DEFAULT_EPS_PLUS
    ls = np.linspace(uniform(u(), 2.0, 4.0), uniform(u(), 8.0, 12.0), n)
    alphas = 1.0 / ls
    norms = np.array([cf.norm_constant(a, l) for a, l in zip(alphas.tolist(), ls.tolist())])
    ref = np.column_stack(
        [
            norms,
            cf.t_if_analytic(x_bar, ls, alphas, n1, norms, norms, m_star),
            cf.t_if_simplified(x_bar, ls, alphas, norms, norms, m_star),
        ]
    )
    l_list = ls.tolist()

    def call():
        rows = []
        for l in l_list:
            spec_i, spec_f = wavefunctional.transport_pair_specs(l, eps)
            inputs = tunneling.MatrixElementInputs(
                x_bar=x_bar,
                l=l,
                alpha=1.0 / l,
                n1=n1,
                c1_norm=spec_i.norm_c,
                c2_norm=spec_f.norm_c,
                m_star=m_star,
            )
            rows.append(
                (spec_f.norm_c, tunneling.t_if_analytic(inputs), tunneling.t_if_simplified(inputs))
            )
        return np.array(rows)

    return call, lambda got: cf.mismatch("norm_c, t_analytic, t_simplified", got, ref, 1e-12)


_GRID_BUILDERS = {
    "sge_curve": _sge_curve,
    "zener_curve": _zener_curve,
    "profile": _profile,
    "k_grid": _k_grid,
    "l_grid": _l_grid,
}


def grid_eval(seed):
    rng = np.random.default_rng(seed)
    kind = Cycle(rng, GRID_KINDS * 2)
    # Per-point costs differ 60-fold between kinds, so each kind covers the
    # size range evenly on its own; the largest grids then weigh the same on
    # every seed.
    sizes = {k: Kronecker(rng, 1) for k in GRID_KINDS}
    while True:
        k = kind()
        n = int(round(log_uniform(sizes[k]()[0], 10, 2e4)))
        call, check = _GRID_BUILDERS[k](rng, n, rng.random)
        yield Op(k, call, check)


STREAMS = {"verify_suite": verify_suite, "fit_mix": fit_mix, "grid_eval": grid_eval}
