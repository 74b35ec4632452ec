"""The cli_mix workload: one op is one ``python -m cdwtunnel.cli`` process.

Ops are drawn from the seed: ``curve``, ``fit``, ``profile`` (with or
without ``--k-n``), ``matrix-element`` and ``verify --check`` with a
sub-second check, at grid sizes near the README defaults, with options
given as flags or through a ``--config`` JSON file.  One op in 20 is a
malformed request whose README-documented exit code is 1.  Some ops
repeat an earlier request and must reproduce its files byte for byte.

An op is a request template: paths in it read ``{d}``, the directory the
op writes to, so one op can run as a subprocess and in-process through
``cli.main`` and write the same bytes both times.
"""

import contextlib
import io
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import closed_forms as cf
from cdwtunnel import cli, fitting, transport
from workloads import VERIFY_TOLERANCES, Cycle, Kronecker, uniform

SUBCOMMANDS = ("curve", "fit", "profile", "matrix-element", "verify")

# Checks that finish well under a second; thin-wall-ft and fit-roundtrip
# belong to verify_suite.
QUICK_CHECKS = tuple(c for c in VERIFY_TOLERANCES if c not in ("thin-wall-ft", "fit-roundtrip"))

CONFIG_NAME = "config.json"
OP_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    exit_code: int
    stdout: bytes
    stderr: bytes
    files: dict  # name -> bytes, every file the op left in its directory
    seconds: float
    maxrss_kb: int = 0


@dataclass
class CliOp:
    kind: str  # a subcommand, or "error:<what>" for a malformed request
    args: list
    config: object = None  # dict written as JSON, str written verbatim, or None
    check: Callable[[Outcome], Optional[str]] = None
    repeat_of: Optional[int] = None  # stream index of the request this op repeats
    index: int = -1  # position in the stream

    def materialize(self, d):
        """Write the op's config into ``d`` and return its argv."""
        d = str(d)
        if self.config is not None:
            text = self.config if isinstance(self.config, str) else json.dumps(self.config)
            Path(d, CONFIG_NAME).write_text(text.replace("{d}", d), encoding="utf-8")
        return [a.replace("{d}", d) for a in self.args]


def _flag(key):
    return "--" + key.replace("_", "-")


def _request(subcommand, opts, use_config):
    """argv template and config for ``opts`` passed as flags or as config."""
    if use_config:
        return [subcommand, "--config", "{d}/" + CONFIG_NAME], dict(opts)
    args = [subcommand]
    for key, value in opts.items():
        args += [_flag(key), repr(value) if isinstance(value, float) else str(value)]
    return args, None


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir()) if p.name != CONFIG_NAME}


# ---------------------------------------------------------------------------
# parsing and gates
# ---------------------------------------------------------------------------

def _csv(data):
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    return header, rows


def _expect_ok(out, names):
    if out.exit_code != 0:
        return f"exit {out.exit_code}: {out.stderr.decode(errors='replace').strip()[-200:]}"
    missing = [n for n in names if n not in out.files]
    if missing:
        return f"missing output {missing}"
    extra = sorted(set(out.files) - set(names))
    if extra:
        return f"unexpected output {extra}"
    return None


def _columns(what, header, rows, expected_header, refs, rtol=1e-11, atols=None):
    if header != expected_header:
        return f"{what}: header {header}, expected {expected_header}"
    atols = atols or [0.0] * len(refs)
    for j, (ref, atol) in enumerate(zip(refs, atols)):
        bad = cf.mismatch(f"{what} column {header[j]}", rows[:, j], ref, rtol, atol)
        if bad:
            return bad
    return None


def _curve(u, rng):
    model = ("sge", "zener", "both")[int(rng.integers(3))]
    convention = ("printed", "substituted")[int(rng.integers(2))]
    fmt = ("csv", "json")[int(rng.integers(2))]
    e_t, c_v = uniform(u(), 0.5, 2.0), uniform(u(), 0.5, 2.0)
    c_tilde1, g_p = uniform(u(), 0.2, 5.0), uniform(u(), 0.5, 2.0)
    n = int(uniform(u(), 100, 300))
    kind = ("log", "linear")[int(rng.integers(2))]
    opts = {"model": model, "convention": convention, "format": fmt, "e_t": e_t, "c_v": c_v,
            "c_tilde1": c_tilde1, "g_p": g_p, "grid_n": n, "grid_kind": kind, "out": "{d}/curve." + fmt}
    lo, hi = 1.05 * e_t, 10.0 * e_t
    if rng.random() < 0.5:
        lo, hi = uniform(u(), 1.05, 2.0) * e_t, uniform(u(), 4.0, 12.0) * e_t
        opts.update(grid_lo=lo, grid_hi=hi)
    es = np.geomspace(lo, hi, n) if kind == "log" else np.linspace(lo, hi, n)
    sge = cf.current_sge(es, e_t, c_v, c_tilde1, substituted=convention == "substituted")
    zen = cf.current_zener(es, e_t, g_p)
    header = ["e"] + {"sge": ["i_sge"], "zener": ["i_zener"], "both": ["i_sge", "i_zener"]}[model]
    refs = [es] + {"sge": [sge], "zener": [zen], "both": [sge, zen]}[model]
    name = "curve." + fmt

    def check(out):
        bad = _expect_ok(out, [name])
        if bad:
            return bad
        if fmt == "csv":
            got_header, rows = _csv(out.files[name])
        else:
            payload = json.loads(out.files[name])
            if payload.get("model") != model:
                return f"curve json model {payload.get('model')!r}, expected {model!r}"
            got_header, rows = payload["columns"], np.array(payload["rows"], dtype=float)
        return _columns("curve", got_header, rows, header, refs)

    return opts, check


def _fit(u, rng):
    lo, hi, n = uniform(u(), 1.1, 2.0), uniform(u(), 3.0, 8.0), int(uniform(u(), 50, 150))
    opts = {"grid_lo": lo, "grid_hi": hi, "grid_n": n, "out": "{d}/report.json"}
    free = ("c_tilde1", "c_v")
    draw = rng.random()
    if draw < 0.2:
        free = (("c_tilde1",), ("c_v",))[int(rng.integers(2))]
        opts["free"] = ",".join(free)
    elif draw < 0.5:
        opts.update(start_c_tilde1=uniform(u(), 0.5, 2.0), start_c_v=uniform(u(), 0.5, 2.0))
    tp = transport.TransportParams()
    start = fitting.transport_with(
        tp, ("c_tilde1", "c_v"), (opts.get("start_c_tilde1", 1.0), opts.get("start_c_v", 1.0))
    )
    es = np.linspace(lo, hi, n)
    targets = cf.current_zener(es, 1.0, 1.0)
    rms_start = float(np.sqrt(np.mean((targets - cf.current_sge(es, 1.0, start.c_v, start.c_tilde1)) ** 2)))
    q = lambda v: float(format(float(v), ".12g"))  # noqa: E731
    # The library in this process, at the CLI's 12 significant digits.
    fit = fitting.fit_sge_to_zener(tp, es, free=set(free), start=start)
    expected = {
        "params": {k: q(v) for k, v in zip(free, fit.params)},
        "residual_rms": q(fit.residual_rms),
        "iterations": fit.iterations,
        "converged": bool(fit.converged),
    }

    def check(out):
        bad = _expect_ok(out, ["report.json"])
        if bad:
            return bad
        if out.stdout != out.files["report.json"]:
            return "fit stdout differs from report.json"
        report = json.loads(out.files["report.json"])
        if report != expected:
            return f"fit report {report}, in-process library gives {expected}"
        if not report["residual_rms"] <= rms_start:
            return f"fit rms {report['residual_rms']!r} exceeds the start rms {rms_start!r}"
        if not report["converged"]:
            return f"fit did not converge after {report['iterations']} iterations"
        return None

    return opts, check


def _profile(u, rng):
    x_a, x_b = uniform(u(), -8.0, -2.0), uniform(u(), 2.0, 8.0)
    b, half_width, n = uniform(u(), 0.5, 3.0), uniform(u(), 10.0, 20.0), int(uniform(u(), 401, 1201))
    opts = {"x_a": x_a, "x_b": x_b, "steepness": b, "half_width": half_width, "n": n, "out": "{d}/p.csv"}
    k_n = None
    if rng.random() < 0.5:
        k_n = int(uniform(u(), 20, 80))
        opts["k_n"] = k_n
    k_lo, k_hi = 0.01, 20.0
    if k_n and rng.random() < 0.5:
        k_lo, k_hi = uniform(u(), 0.01, 1.0), uniform(u(), 10.0, 30.0)
        opts.update(k_lo=k_lo, k_hi=k_hi)
    l = x_b - x_a
    xs = np.linspace(x_a - half_width, x_b + half_width, n)
    phis = cf.kink_pair(xs, x_a, x_b, b)
    q = (phis[-1] - phis[0]) / cf.TWO_PI
    names = ["p.csv", "p.meta.json"] + (["p.kspace.csv"] if k_n else [])

    def check(out):
        bad = _expect_ok(out, names)
        if bad:
            return bad
        header, rows = _csv(out.files["p.csv"])
        scale = float(np.max(np.abs(xs)))
        bad = _columns("profile", header, rows, ["x", "phi"], [xs, phis], atols=[1e-11 * scale, 1e-11])
        if bad:
            return bad
        meta = json.loads(out.files["p.meta.json"])
        pair = {"x_a": x_a, "x_b": x_b, "steepness": b, "l": l}
        if meta.get("pair") != pair or meta.get("grid") != {"half_width": half_width, "n": n}:
            return f"profile meta {meta} does not echo the request"
        if not abs(meta.get("topological_charge", np.nan) - q) <= 1e-11:
            return f"topological charge {meta.get('topological_charge')!r}, reference {q!r}"
        if k_n:
            ks = np.linspace(k_lo, k_hi, k_n)
            header, rows = _csv(out.files["p.kspace.csv"])
            peak = cf.SQRT_2_OVER_PI * l / 2.0
            return _columns("kspace", header, rows, ["k", "phi_k"], [ks, cf.thin_wall_ft(ks, l)],
                            atols=[0.0, 1e-13 * peak])
        return None

    return opts, check


# The quadrature oracle is wrong below this pair separation (known defect
# oracle_wrong_below_l_1_5); its column is gated apart there.
ORACLE_MIN_L = 1.5


# (over, default grid) of matrix-element ops, in shuffled rounds.  The
# default grid is 2..12; an E grid there maps to L = 2/E in [0.17, 1].
# The drawn grids keep L >= 2.
MATRIX_VARIANTS = (("l", True), ("l", False), ("e", True), ("e", False))


def _matrix_element(u, rng, variant):
    over, default_grid = variant
    n = int(uniform(u(), 15, 35))
    x_bar, m_star = uniform(u(), 0.5, 3.0), uniform(u(), 0.5, 2.0)
    opts = {"over": over, "grid_n": n, "x_bar": x_bar, "m_star": m_star, "out": "{d}/me.csv"}
    lo, hi = 2.0, 12.0
    if not default_grid:
        if over == "e":
            lo, hi = uniform(u(), 0.15, 0.3), uniform(u(), 0.6, 0.9)
        else:
            lo, hi = uniform(u(), 2.0, 3.0), uniform(u(), 8.0, 14.0)
        opts.update(grid_lo=lo, grid_hi=hi)
    n1 = 1.0 - 1e-3
    if rng.random() < 0.5:
        n1 = uniform(u(), 0.9, 1.0)
        opts["n1"] = n1
    grid = np.linspace(lo, hi, n)
    ls = 2.0 / grid if over == "e" else grid
    alphas = 1.0 / ls
    norms_i = [cf.norm_constant(a, l) for a, l in zip(alphas.tolist(), ls.tolist())]
    norms = np.array(norms_i)
    center_f = cf.TWO_PI + 1e-3
    oracle = np.array(
        [cf.overlap_current(c, a, 0.0, c, a, center_f, m_star) for c, a in zip(norms_i, alphas.tolist())]
    )
    low = ls < ORACLE_MIN_L
    header = (["e", "l"] if over == "e" else ["l"]) + ["t_analytic", "t_simplified", "t_oracle"]
    refs = ([grid, ls] if over == "e" else [ls]) + [
        cf.t_if_analytic(x_bar, ls, alphas, n1, norms, norms, m_star),
        cf.t_if_simplified(x_bar, ls, alphas, norms, norms, m_star),
    ]

    def check(out):
        bad = _expect_ok(out, ["me.csv"])
        if bad:
            return bad
        got_header, rows = _csv(out.files["me.csv"])
        # every column but t_oracle; the oracle is a quadrature at absolute tolerance 1e-11
        return (
            _columns("matrix-element", got_header, rows, header, refs)
            or cf.mismatch("matrix-element column t_oracle", rows[~low, -1], oracle[~low], 1e-11, 1e-10)
            or cf.mismatch(f"t_oracle below L = {ORACLE_MIN_L}", rows[low, -1], oracle[low], 1e-11, 1e-10)
        )

    return opts, check


def _verify(check_cycle):
    name = check_cycle()
    opts = {"check": name}
    tol = format(VERIFY_TOLERANCES[name], ".3e")

    def check(out):
        if out.exit_code == 3:
            return f"verify reported a failed check: {out.stdout.decode('utf-8').strip()}"
        bad = _expect_ok(out, [])
        if bad:
            return bad
        lines = out.stdout.decode("utf-8").splitlines()
        if len(lines) != 1 or not lines[0].startswith(f"PASS {name} ") or f" tol={tol} " not in lines[0]:
            return f"verify printed {lines!r}, expected one PASS line for {name} at tol={tol}"
        return None

    return opts, check


# Malformed requests, each documented to exit 1 and to leave no file behind.
ERRORS = {
    "grid_n_text": (["fit", "--config", "{d}/" + CONFIG_NAME], {"grid_n": "abc", "out": "{d}/report.json"}),
    "k_n_one": (["profile", "--k-n", "1", "--out", "{d}/p.csv"], None),
    "missing_out": (["curve", "--model", "sge"], None),
    "grid_n_one": (["curve", "--grid-n", "1", "--out", "{d}/curve.csv"], None),
    "config_not_json": (["curve", "--config", "{d}/" + CONFIG_NAME, "--out", "{d}/curve.csv"], "{not json"),
    "unknown_check": (["verify", "--check", "no-such-check"], None),
    "bad_choice": (["matrix-element", "--over", "x", "--out", "{d}/me.csv"], None),
    "bad_free": (["fit", "--free", "c_x", "--out", "{d}/report.json"], None),
}


def _check_error(out):
    if out.exit_code != 1:
        return f"exit {out.exit_code}, README documents 1 for a config error"
    if out.files:
        return f"left {sorted(out.files)} on disk after an error"
    err = out.stderr.decode("utf-8", errors="replace")
    if not err.startswith("error:") or "Traceback" in err:
        return f"stderr is not a one-line error: {err[:200]!r}"
    return None


def _check_repeat(original_check, expected, out):
    bad = original_check(out)
    if bad:
        return bad
    if out.files != expected:
        return "repeated request wrote different bytes"
    return None


def cli_mix(seed):
    """Endless seeded stream of CliOps."""
    rng = np.random.default_rng(seed)
    sequence = Kronecker(rng, 1)

    def u():
        return sequence()[0]

    check_cycle = Cycle(rng, QUICK_CHECKS)
    error_cycle = Cycle(rng, sorted(ERRORS))
    # each block of 20 ops: one malformed request, 19 spread over the subcommands
    block = Cycle(rng, ["error"] + (list(SUBCOMMANDS) * 4)[:19])
    matrix_variant = Cycle(rng, MATRIX_VARIANTS)
    builders = {"curve": _curve, "fit": _fit, "profile": _profile,
                "matrix-element": lambda u, rng: _matrix_element(u, rng, matrix_variant())}
    history = {kind: [] for kind in SUBCOMMANDS}  # requests made so far, by subcommand
    index = 0
    while True:
        kind = block()
        if kind == "error":
            what = error_cycle()
            args, config = ERRORS[what]
            op = CliOp("error:" + what, list(args), config, _check_error)
        elif history[kind] and rng.random() < 0.15:
            # a repeat keeps the subcommand its slot in the block drew
            prev = history[kind][int(rng.integers(len(history[kind])))]
            op = CliOp(prev.kind, prev.args, prev.config, prev.check, repeat_of=prev.index)
        else:
            if kind == "verify":
                opts, check = _verify(check_cycle)
            else:
                opts, check = builders[kind](u, rng)
            args, config = _request(kind, opts, use_config=rng.random() < 0.3)
            op = CliOp(kind, args, config, check)
            history[kind].append(op)
        op.index = index
        index += 1
        yield op


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------

def run_subprocess(op, d, python, env):
    """Run ``op`` as ``python -m cdwtunnel.cli`` in a fresh process writing to ``d``."""
    d = Path(d)
    d.mkdir(parents=True)
    argv = op.materialize(d)
    out_path, err_path = d.with_suffix(".stdout"), d.with_suffix(".stderr")
    with open(out_path, "wb") as fout, open(err_path, "wb") as ferr:
        t0 = time.perf_counter()
        proc = subprocess.Popen([python, "-m", "cdwtunnel.cli", *argv], cwd=d, env=env,
                                stdin=subprocess.DEVNULL, stdout=fout, stderr=ferr)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_bytes(), err_path.read_bytes(), _files(d),
                   seconds, usage.ru_maxrss)


def run_inprocess(op, d):
    """Run ``op`` through ``cli.main`` in this process, writing to ``d``."""
    d = Path(d)
    d.mkdir(parents=True)
    argv = op.materialize(d)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return Outcome(code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8"), _files(d), seconds)


def check(op, out, history_files):
    """Gate one outcome; ``history_files`` maps op index to the files it wrote."""
    if op.repeat_of is not None:
        return _check_repeat(op.check, history_files[op.repeat_of], out)
    return op.check(out)
