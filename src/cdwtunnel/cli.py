"""Command-line front end: curve, fit, profile, matrix-element, verify.

Each subcommand's options are declared once, in ``COMMANDS``: the flag
``--name-with-dashes`` is the config key ``name_with_dashes`` of a JSON
config file (``--config``).  A flag wins over a config entry, which wins over
the default; a config ``null`` counts as unset.  One rule (``_typed``) types
and checks a flag word and a config entry alike.  A command writes all of
its data files or none, with floats rendered to 12 significant digits, and
identical configurations produce byte-identical outputs.  Exit codes: 0
success, 1 usage/config error, 2 runtime/numeric error, 3 verification
failure.  ``run`` is the process entry point.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, fitting, potential, transport, tunneling, verify, wavefunctional
from .numerics import QuadratureError

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class CliUsageError(Exception):
    """Bad flags, config or input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern reads only "-5" and "-.5"-style words as negative
        # numbers and takes "-1e1" for an option flag; no flag here looks like a
        # number, so every float literal after a flag is read as its value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise CliUsageError(message)


def _fmt(value):
    """12-significant-digit rendering used for all emitted numbers."""
    return format(float(value), ".12g")


def _quantize(value):
    return float(_fmt(value))


def _csv_text(header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_text(payload):
    # JSON has no inf or nan: a non-finite value is a ValueError, not an "Infinity" token
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write(files):
    """Write each ``{path: text}`` entry in one shot: every temp sibling, then the renames.

    On any failure the temp files and the files already renamed into place
    are removed, so a command leaves all of its files or none.
    """
    tmps = {}
    placed = []
    try:
        for path, text in files.items():
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            f = open(tmp, "x", encoding="utf-8")
            tmps[tmp] = path
            with f:
                f.write(text)
        for tmp, path in tmps.items():
            os.replace(tmp, path)
            placed.append(path)
    except BaseException:
        for path in [*tmps, *placed]:
            path.unlink(missing_ok=True)
        raise


class Opt(NamedTuple):
    """One subcommand option: the flag ``--name-with-dashes`` and the config key ``name``."""

    name: str
    kind: object = float  # float, int, str, or list (a repeatable string)
    default: object = None
    choices: tuple = None
    help: str = None


def _load_config(path):
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliUsageError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliUsageError("config file must hold a JSON object")
    return cfg


def _typed(opt, value, word=False):
    """One value of ``opt`` as ``opt.kind``, checked against ``opt.choices``.

    ``value`` is a flag word (``word``: text, read as ``opt.kind`` or else as a
    float) or a config entry (a JSON value); a list entry may be one string.
    A bad value raises ArgumentTypeError with the reason, which argparse
    prefixes with ``argument --flag:`` and ``_resolve`` with the config key.
    """
    if opt.kind is list and not word:
        return [_typed(opt._replace(kind=str), v) for v in (value if isinstance(value, list) else [value])]
    if opt.kind in (float, int):
        if word:
            for read in (opt.kind, float):
                with contextlib.suppress(ValueError):
                    value = read(value)
                    break
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise argparse.ArgumentTypeError(f"must be a number, got {value!r}")
        if opt.kind is int and isinstance(value, float) and not value.is_integer():
            raise argparse.ArgumentTypeError(f"must be an integer, got {value!r}")
        try:
            value = opt.kind(value)
        except OverflowError:  # a JSON integer beyond the double range, read as float() reads its text
            value = math.inf if value > 0 else -math.inf
        if opt.kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {value!r}")
    elif not isinstance(value, str):
        raise argparse.ArgumentTypeError(f"must be a string, got {value!r}")
    if opt.choices is not None and value not in opt.choices:
        raise argparse.ArgumentTypeError(f"must be one of {', '.join(opt.choices)}, got {value!r}")
    return value


def _resolve(opts, args):
    """One value per option: the flag, else the config entry, else the default.

    argparse has typed the flags through ``_typed``; config entries go through
    it here, a JSON ``null`` counts as unset and an unknown key is an error.
    """
    config = _load_config(args.config)
    unknown = sorted(set(config) - {opt.name for opt in opts})
    if unknown:
        valid = ", ".join(opt.name for opt in opts)
        raise CliUsageError(f"unknown config key(s) {unknown}; valid keys: {valid}")
    resolved = argparse.Namespace()
    for opt in opts:
        value = config.get(opt.name)
        try:
            value = None if value is None else _typed(opt, value)
        except argparse.ArgumentTypeError as exc:
            raise CliUsageError(f"{opt.name} {exc}") from None
        if getattr(args, opt.name) is not None:
            value = getattr(args, opt.name)
        setattr(resolved, opt.name, opt.default if value is None else value)
    return resolved


def _grid(lo, hi, n, kind, name):
    """An ``n``-point ``kind`` ("linear" or "log") grid on [lo, hi]; ``name`` starts each error."""
    if n < 2:
        raise CliUsageError(f"{name} needs n >= 2")
    if not lo < hi:
        raise CliUsageError(f"{name} needs lo < hi")
    if not math.isfinite(hi - lo):
        raise CliUsageError(f"{name} span hi - lo overflows")
    if kind == "log" and not lo > 0.0:
        raise CliUsageError(f"log {name} needs lo > 0")
    try:
        return (np.geomspace if kind == "log" else np.linspace)(lo, hi, n)
    except IndexError as exc:  # near 2**63 numpy builds an empty array and fails to index it
        raise MemoryError(f"cannot allocate {n} {name} points") from exc


def _option_grid(o, lo, hi):
    """The ``grid_*`` options' grid; ``lo`` and ``hi`` stand in for unset ends."""
    ends = (lo if o.grid_lo is None else o.grid_lo, hi if o.grid_hi is None else o.grid_hi)
    return _grid(*ends, o.grid_n, o.grid_kind, "grid")


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError from validating option values as a usage error."""
    try:
        yield
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _transport_params(o, **values):
    """``TransportParams`` from the command's transport options, plus ``values``."""
    fields = {f.name for f in dataclasses.fields(transport.TransportParams)}
    with _usage_errors():
        return transport.TransportParams(**{k: v for k, v in vars(o).items() if k in fields}, **values)


def _require_out(o):
    if o.out is None:
        raise CliUsageError("an output path is required (--out)")
    return Path(o.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_curve(o):
    out = _require_out(o)
    tp = _transport_params(o)
    es = _option_grid(o, 1.05 * tp.e_t, 10.0 * tp.e_t)

    models = ("sge", "zener") if o.model == "both" else (o.model,)
    header = ["e"] + [f"i_{model}" for model in models]
    columns = [transport.curve_series(model, tp, es, o.convention).currents for model in models]
    rows = list(zip(es, *columns))

    if o.format == "csv":
        _write({out: _csv_text(header, rows)})
    else:
        payload = {
            "columns": header,
            "rows": [[_quantize(v) for v in row] for row in rows],
            "model": o.model,
        }
        _write({out: _json_text(payload)})
    return EXIT_OK


def _parse_data_csv(path):
    """(E, I) arrays from a CSV data file; the first non-blank line may be a header."""
    try:
        raw = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliUsageError(f"cannot read data file: {exc}") from exc
    es = []
    currents = []
    rows = [(n, line.strip()) for n, line in enumerate(raw.splitlines(), start=1) if line.strip()]
    for k, (lineno, line) in enumerate(rows):
        cells = [c.strip() for c in line.split(",")]
        if k == 0:
            try:
                float(cells[0])
            except ValueError:
                continue  # header line
        if len(cells) < 2:
            raise CliUsageError(f"line {lineno}: expected two comma-separated columns")
        try:
            e = float(cells[0])
            i = float(cells[1])
        except ValueError as exc:
            raise CliUsageError(f"line {lineno}: non-numeric cell ({exc})") from exc
        if not (math.isfinite(e) and math.isfinite(i)):
            raise CliUsageError(f"line {lineno}: non-finite cell")
        if not e > 0.0:
            raise CliUsageError(f"line {lineno}: field E must be positive")
        es.append(e)
        currents.append(i)
    if not es:
        raise CliUsageError("no data rows")
    return np.array(es), np.array(currents)


def _cmd_fit(o):
    # the Zener targets read e_t and g_p; the fit starts from c_tilde1 and c_v
    tp = _transport_params(o, c_tilde1=o.start_c_tilde1, c_v=o.start_c_v)
    with _usage_errors():
        names = fitting._free_names({name.strip() for name in o.free.split(",") if name.strip()})

    if o.data is not None:
        es, targets = _parse_data_csv(o.data)
        order = np.argsort(es)
        es, targets = es[order], targets[order]
        fit = fitting.fit_sge_to_points(es, targets, names, tp)
    else:
        lo, hi = fitting.FIG2B_WINDOW
        es = _option_grid(o, lo * tp.e_t, hi * tp.e_t)
        fit = fitting.fit_sge_to_zener(tp, es, free=names)

    params = dict(zip(names, fit.params))
    # the closed-form amplitude carries the sign of the data, and overflows when
    # scaled back from data near the top of the double range; the model's does neither
    if "c_tilde1" in params:
        fitted = f"fitted c_tilde1 = {_fmt(params['c_tilde1'])}"
        if not params["c_tilde1"] > 0.0:
            raise ValueError(f"{fitted} is not positive; the pair current needs c_tilde1 > 0")
        if not math.isfinite(params["c_tilde1"]):
            raise ValueError(f"{fitted} is not finite; the pair current needs a finite c_tilde1")
    report = {
        "params": {name: _quantize(v) for name, v in params.items()},
        "residual_rms": _quantize(fit.residual_rms),
        "iterations": fit.iterations,
        "converged": bool(fit.converged),
    }
    text = _json_text(report)
    sys.stdout.write(text)
    if o.out is not None:
        _write({Path(o.out): text})
    return EXIT_OK


def _cmd_profile(o):
    out = _require_out(o)
    ks = None if o.k_n is None else _grid(o.k_lo, o.k_hi, o.k_n, "linear", "k grid")
    # everything is computed before the first file is written
    with _usage_errors():
        kp = wavefunctional.KinkPairProfile(x_a=o.x_a, x_b=o.x_b, b=o.steepness)
        prof = wavefunctional.sample_profile(kp, o.half_width, o.n)
    files = {out: _csv_text(["x", "phi"], zip(prof.xs, prof.phis))}
    if ks is not None:
        amps = [wavefunctional.thin_wall_ft(float(k), kp.l) for k in ks]
        files[out.with_name(out.stem + ".kspace.csv")] = _csv_text(["k", "phi_k"], zip(ks, amps))
    sidecar = {
        "pair": {"x_a": kp.x_a, "x_b": kp.x_b, "steepness": kp.b, "l": kp.l},
        "grid": {"half_width": o.half_width, "n": o.n},
        "topological_charge": _quantize(potential.topological_charge(prof)),
    }
    files[out.with_name(out.stem + ".meta.json")] = _json_text(sidecar)
    _write(files)
    return EXIT_OK


def _cmd_matrix_element(o):
    out = _require_out(o)
    # only an E grid maps fields to separations through delta_s and e_star
    tp = _transport_params(o) if o.over == "e" else None
    grid = _option_grid(o, 2.0, 12.0)
    with _usage_errors():
        # x_bar, n1, m_star and eps_plus are checked once, before any row is computed
        tunneling.MatrixElementInputs(x_bar=o.x_bar, l=1.0, alpha=1.0, n1=o.n1, m_star=o.m_star)
        wavefunctional.transport_pair_specs(1.0, o.eps_plus)

    header = (["e", "l"] if o.over == "e" else ["l"]) + ["t_analytic", "t_simplified", "t_oracle"]
    rows, specs_i, specs_f = [], [], []
    try:
        for g in grid.tolist():
            l = transport.pair_separation(g, tp) if o.over == "e" else g
            spec_i, spec_f = wavefunctional.transport_pair_specs(l, o.eps_plus)
            inputs = tunneling.MatrixElementInputs(
                x_bar=o.x_bar, l=l, alpha=spec_i.alpha, n1=o.n1,
                c1_norm=spec_i.norm_c, c2_norm=spec_f.norm_c, m_star=o.m_star,
            )
            values = (tunneling.t_if_analytic(inputs), tunneling.t_if_simplified(inputs))
            for column, t in zip(("t_analytic", "t_simplified"), values):
                if not sys.float_info.min <= t < math.inf:
                    raise ValueError(f"{column} = {t!r} lies outside the normal double range")
            rows.append(((g, l) if o.over == "e" else (l,)) + values)
            specs_i.append(spec_i)
            specs_f.append(spec_f)
        t_oracle = tunneling.t_if_single_mode_oracles(specs_i, specs_f, m_star=o.m_star)
    except (ValueError, QuadratureError) as exc:
        # named by its grid value: the oracle's failing pair (``member``) or the row being built
        row = getattr(exc, "member", len(rows))
        raise type(exc)(f"at {o.over.upper()} = {float(grid[row])!r}: {exc}") from exc
    _write({out: _csv_text(header, [row + (t,) for row, t in zip(rows, t_oracle.tolist())])})
    return EXIT_OK


def _cmd_verify(o):
    tolerances = {}
    for spec in o.tol:
        name, _, value = spec.partition("=")
        if name not in verify.CHECKS:
            raise CliUsageError(
                f"unknown check '{name}' in --tol; valid names: {', '.join(verify.CHECKS)}"
            )
        tol = math.nan
        with contextlib.suppress(argparse.ArgumentTypeError):
            tol = _typed(Opt(name), value, word=True)  # a finite float
        if not tol >= 0.0:
            raise CliUsageError(f"tolerance for '{name}' must be finite and >= 0, got {value!r}")
        tolerances[name] = tol

    results = verify.run_checks(o.check or None, tolerances)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{status} {r.name:<{width}} measured={r.measured:.3e} tol={r.tolerance:.3e} {r.detail}\n"
        )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# option tables and argument wiring
# ---------------------------------------------------------------------------

def _grid_opts(n, kind):
    return [
        Opt("grid_lo"),
        Opt("grid_hi"),
        Opt("grid_n", int, n),
        Opt("grid_kind", str, kind, ("linear", "log")),
    ]


def _transport_opts(*names):
    return [Opt(name, float, getattr(transport.TransportParams, name)) for name in names]


_OUT = Opt("out", str, help="output path")

# subcommand: (function, help, options)
COMMANDS = {
    "curve": (_cmd_curve, "emit current-vs-field series", [
        _OUT,
        *_grid_opts(200, "log"),
        *_transport_opts("e_t", "c_v", "c_tilde1", "g_p"),
        Opt("model", str, "both", ("sge", "zener", "both")),
        Opt("convention", str, "printed", transport.CONVENTIONS),
        Opt("format", str, "csv", ("csv", "json")),
    ]),
    "fit": (_cmd_fit, "fit the pair current to Zener samples or CSV data", [
        _OUT,
        *_grid_opts(100, "linear"),
        *_transport_opts("e_t", "g_p"),
        Opt("data", str, help="CSV of (E, I) points to fit instead of synthetic targets"),
        Opt("free", str, "c_tilde1,c_v", help="comma list of free parameters (c_tilde1,c_v)"),
        Opt("start_c_tilde1", float, 1.0),
        Opt("start_c_v", float, 1.0),
    ]),
    "profile": (_cmd_profile, "emit a kink-pair profile and its box transform", [
        _OUT,
        Opt("x_a", float, -5.0),
        Opt("x_b", float, 5.0),
        Opt("steepness", float, 1.0),
        Opt("half_width", float, 15.0),
        Opt("n", int, 801),
        Opt("k_lo", float, 0.01),
        Opt("k_hi", float, 20.0),
        Opt("k_n", int),
    ]),
    "matrix-element": (_cmd_matrix_element, "evaluate matrix elements over an L or E grid", [
        _OUT,
        *_grid_opts(25, "linear"),
        *_transport_opts("delta_s", "e_star"),
        Opt("over", str, "l", ("l", "e")),
        Opt("x_bar", float, 1.0),
        Opt("n1", float, 1.0 - wavefunctional.DEFAULT_EPS_PLUS),
        Opt("m_star", float, 1.0),
        Opt("eps_plus", float, wavefunctional.DEFAULT_EPS_PLUS),
    ]),
    "verify": (_cmd_verify, "run the verification suite", [
        Opt("check", list, (), tuple(verify.CHECKS), "restrict to this check (repeatable)"),
        Opt("tol", list, (), help="override a tolerance, NAME=VALUE, VALUE finite and >= 0 (repeatable)"),
    ]),
}


def build_parser():
    parser = _Parser(prog="cdwtunnel", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cdwtunnel {__version__}")
    sub = parser.add_subparsers(required=True)
    for command, (func, help_text, opts) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its entries")
        for opt in opts:
            flag = "--" + opt.name.replace("_", "-")
            action = "append" if opt.kind is list else "store"
            metavar = None if opt.choices is None else "{" + ",".join(opt.choices) + "}"
            typed = functools.partial(_typed, opt, word=True)
            p.add_argument(flag, action=action, type=typed, metavar=metavar, help=opt.help)
        p.set_defaults(func=func, opts=opts)
    return parser


def main(argv=None):
    """Run one ``cdwtunnel`` command on ``argv`` (default: ``sys.argv[1:]``) and return its exit code.

    A usage or config error prints one ``error:`` line and returns 1; a
    ValueError, OverflowError, MemoryError, QuadratureError or OSError
    prints one and returns 2.  ``--help`` and ``--version`` raise SystemExit.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(_resolve(args.opts, args))
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, MemoryError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def run(argv=None):
    """Run ``main`` as a command and end the process with its exit code, skipping teardown.

    Every output file is closed and renamed into place before ``main``
    returns, and the package registers no atexit hook, so once stdout and
    stderr are flushed nothing is left for the interpreter's teardown to do
    but free objects: ``os._exit`` ends the process there, and atexit hooks
    registered by others do not run.  A flush that fails, or a stream that
    is None, leaves through ``sys.exit`` instead.  ``SystemExit`` from
    ``--help`` or ``--version`` and uncaught exceptions propagate from
    ``main`` and take the normal exit.
    """
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # a None stream has no flush
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
