"""Command-line front end: curve, fit, profile, matrix-element, verify.

Configuration comes from flags, a JSON config file (``--config``), or both;
flags win.  Data files are written in one shot (no partial file on error)
with floats rendered to 12 significant digits, and identical configurations
produce byte-identical outputs.

Exit codes: 0 success, 1 usage/config error, 2 runtime/numeric error,
3 verification failure.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import fitting, potential, transport, tunneling, verify, wavefunctional
from ._backend import QuadratureError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


class CliUsageError(Exception):
    """Bad flags, config or input files; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
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
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(path, text):
    """Write ``text`` to ``path`` in one shot: a temp sibling, then a rename."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    f = open(tmp, "x", encoding="utf-8")
    try:
        with f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _load_config(path):
    if path is None:
        return {}
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read config file: {exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliUsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliUsageError("config file must hold a JSON object")
    return cfg


def _merged(args, config, key, default=None):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _number(args, config, key, default=None, kind=float):
    """Merged numeric option as ``kind`` (float or int), or None if unset.

    Flags arrive typed from argparse; config values must be JSON numbers
    (not bools), and integral for an int option.
    """
    value = _merged(args, config, key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliUsageError(f"{key} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise CliUsageError(f"{key} must be an integer, got {value!r}")
    return kind(value)


def _listed(args, config, key):
    """A repeatable option: the flag's list, else the config list or single value."""
    value = getattr(args, key) or config.get(key) or []
    return value if isinstance(value, list) else [value]


def _grid(args, config, lo_default, hi_default, n_default, kind_default):
    lo = _number(args, config, "grid_lo", lo_default)
    hi = _number(args, config, "grid_hi", hi_default)
    n = _number(args, config, "grid_n", n_default, int)
    kind = str(_merged(args, config, "grid_kind", kind_default))
    if kind not in ("linear", "log"):
        raise CliUsageError("grid kind must be linear or log")
    if n < 2:
        raise CliUsageError("grid needs n >= 2")
    if not lo < hi:
        raise CliUsageError("grid needs lo < hi")
    if kind == "log" and not lo > 0.0:
        raise CliUsageError("log grid needs lo > 0")
    if kind == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _transport_params(args, config):
    kwargs = {}
    for name in (
        "e_t",
        "c_v",
        "c_tilde1",
        "g_p",
        "delta_s",
        "e_star",
        "eps_g",
        "m_e",
        "omega",
        "e_charge",
    ):
        value = _number(args, config, name)
        if value is not None:
            kwargs[name] = value
    try:
        return transport.TransportParams(**kwargs)
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc


def _require_out(args, config):
    out = _merged(args, config, "out")
    if out is None:
        raise CliUsageError("an output path is required (--out)")
    return Path(out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_curve(args):
    config = _load_config(args.config)
    model = str(_merged(args, config, "model", "both"))
    if model not in ("sge", "zener", "both"):
        raise CliUsageError("model must be sge, zener or both")
    convention = str(_merged(args, config, "convention", "printed"))
    if convention not in transport.CONVENTIONS:
        raise CliUsageError(f"convention must be one of {transport.CONVENTIONS}")
    fmt = str(_merged(args, config, "format", "csv"))
    if fmt not in ("csv", "json"):
        raise CliUsageError("format must be csv or json")
    out = _require_out(args, config)
    tp = _transport_params(args, config)
    es = _grid(args, config, 1.05 * tp.e_t, 10.0 * tp.e_t, 200, "log")

    if model == "both":
        header = ["e", "i_sge", "i_zener"]
        sge = transport.curve_series("sge", tp, es, convention)
        zen = transport.curve_series("zener", tp, es)
        rows = list(zip(es, sge.currents, zen.currents))
    else:
        header = ["e", f"i_{model}"]
        series = transport.curve_series(model, tp, es, convention)
        rows = list(zip(es, series.currents))

    if fmt == "csv":
        _write(out, _csv_text(header, rows))
    else:
        payload = {
            "columns": header,
            "rows": [[_quantize(v) for v in row] for row in rows],
            "model": model,
        }
        _write(out, _json_text(payload))
    return EXIT_OK


def _parse_data_csv(path):
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read data file: {exc}") from exc
    es = []
    currents = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if lineno == 1:
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
        es.append(e)
        currents.append(i)
    if not es:
        raise CliUsageError("no data rows")
    return np.array(es), np.array(currents)


def _cmd_fit(args):
    config = _load_config(args.config)
    tp = _transport_params(args, config)
    free_raw = str(_merged(args, config, "free", "c_tilde1,c_v"))
    free = {name.strip() for name in free_raw.split(",") if name.strip()}
    unknown = free - set(fitting.FREE_PARAM_ORDER)
    if unknown:
        raise CliUsageError(
            f"cannot free {sorted(unknown)}; allowed: {list(fitting.FREE_PARAM_ORDER)}"
        )
    start = tp
    start_ct1 = _number(args, config, "start_c_tilde1")
    start_cv = _number(args, config, "start_c_v")
    if start_ct1 is not None or start_cv is not None:
        start = fitting.transport_with(
            tp,
            ("c_tilde1", "c_v"),
            (
                start_ct1 if start_ct1 is not None else tp.c_tilde1,
                start_cv if start_cv is not None else tp.c_v,
            ),
        )

    data_path = _merged(args, config, "data")
    if data_path is not None:
        es, targets = _parse_data_csv(data_path)
        order = np.argsort(es)
        es, targets = es[order], targets[order]
        fit = fitting.fit_sge_to_points(es, targets, free, start)
    else:
        lo, hi = fitting.FIG2B_WINDOW
        es = _grid(args, config, lo * tp.e_t, hi * tp.e_t, 100, "linear")
        fit = fitting.fit_sge_to_zener(tp, es, free=free, start=start)

    names = [n for n in fitting.FREE_PARAM_ORDER if n in free]
    report = {
        "params": {name: _quantize(v) for name, v in zip(names, fit.params)},
        "residual_rms": _quantize(fit.residual_rms),
        "iterations": fit.iterations,
        "converged": bool(fit.converged),
    }
    text = _json_text(report)
    sys.stdout.write(text)
    out = _merged(args, config, "out")
    if out is not None:
        _write(Path(out), text)
    return EXIT_OK


def _cmd_profile(args):
    config = _load_config(args.config)
    out = _require_out(args, config)
    try:
        kp = wavefunctional.KinkPairProfile(
            x_a=_number(args, config, "x_a", -5.0),
            x_b=_number(args, config, "x_b", 5.0),
            b=_number(args, config, "steepness", 1.0),
        )
    except ValueError as exc:
        raise CliUsageError(str(exc)) from exc
    half_width = _number(args, config, "half_width", 15.0)
    n = _number(args, config, "n", 801, int)
    k_n = _number(args, config, "k_n", None, int)
    if k_n is not None:
        k_lo = _number(args, config, "k_lo", 0.01)
        k_hi = _number(args, config, "k_hi", 20.0)
        if k_n < 2 or not k_lo < k_hi:
            raise CliUsageError("k grid needs n >= 2 and lo < hi")

    # everything is computed before the first file is written
    prof = wavefunctional.sample_profile(kp, half_width, n)
    files = {out: _csv_text(["x", "phi"], zip(prof.xs, prof.phis))}
    if k_n is not None:
        ks = np.linspace(k_lo, k_hi, k_n)
        amps = [wavefunctional.thin_wall_ft(float(k), kp.l) for k in ks]
        files[out.with_name(out.stem + ".kspace.csv")] = _csv_text(["k", "phi_k"], zip(ks, amps))
    sidecar = {
        "pair": {"x_a": kp.x_a, "x_b": kp.x_b, "steepness": kp.b, "l": kp.l},
        "grid": {"half_width": half_width, "n": n},
        "topological_charge": _quantize(potential.topological_charge(prof)),
    }
    files[out.with_name(out.stem + ".meta.json")] = _json_text(sidecar)
    for path, text in files.items():
        _write(path, text)
    return EXIT_OK


def _cmd_matrix_element(args):
    config = _load_config(args.config)
    out = _require_out(args, config)
    over = str(_merged(args, config, "over", "l"))
    if over not in ("l", "e"):
        raise CliUsageError("matrix-element grids run over 'l' or 'e'")
    tp = _transport_params(args, config)
    x_bar = _number(args, config, "x_bar", 1.0)
    n1 = _number(args, config, "n1", 1.0 - wavefunctional.DEFAULT_EPS_PLUS)
    m_star = _number(args, config, "m_star", 1.0)
    eps_plus = _number(args, config, "eps_plus", wavefunctional.DEFAULT_EPS_PLUS)
    grid = _grid(args, config, 2.0, 12.0, 25, "linear")

    header = (["e", "l"] if over == "e" else ["l"]) + ["t_analytic", "t_simplified", "t_oracle"]
    rows = []
    for g in grid:
        l = transport.pair_separation(float(g), tp) if over == "e" else float(g)
        alpha = potential.alpha_from_separation(l)
        spec_i, spec_f = wavefunctional.transport_pair_specs(l, eps_plus)
        inputs = tunneling.MatrixElementInputs(
            x_bar=x_bar,
            l=l,
            alpha=alpha,
            n1=n1,
            c1_norm=spec_i.norm_c,
            c2_norm=spec_f.norm_c,
            m_star=m_star,
        )
        values = (
            tunneling.t_if_analytic(inputs),
            tunneling.t_if_simplified(inputs),
            tunneling.t_if_single_mode_oracle(spec_i, spec_f, m_star=m_star),
        )
        rows.append(((float(g), l) if over == "e" else (l,)) + values)
    _write(out, _csv_text(header, rows))
    return EXIT_OK


def _cmd_verify(args):
    config = _load_config(args.config)
    names = _listed(args, config, "check") or None
    if names:
        unknown = [n for n in names if n not in verify.CHECKS]
        if unknown:
            raise CliUsageError(
                f"unknown check(s) {unknown}; valid names: {', '.join(verify.CHECKS)}"
            )
    tolerances = {}
    for spec in _listed(args, config, "tol"):
        name, _, value = str(spec).partition("=")
        if name not in verify.CHECKS:
            raise CliUsageError(
                f"unknown check '{name}' in --tol; valid names: {', '.join(verify.CHECKS)}"
            )
        try:
            tolerances[name] = float(value)
        except ValueError as exc:
            raise CliUsageError(f"bad tolerance for '{name}': {value!r}") from exc

    results = verify.run_checks(names, tolerances)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        sys.stdout.write(
            f"{status} {r.name:<{width}} measured={r.measured:.3e} tol={r.tolerance:.3e} {r.detail}\n"
        )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override its entries")
    sub.add_argument("--out", help="output path")


def _add_grid(sub):
    sub.add_argument("--grid-lo", dest="grid_lo", type=float)
    sub.add_argument("--grid-hi", dest="grid_hi", type=float)
    sub.add_argument("--grid-n", dest="grid_n", type=int)
    sub.add_argument("--grid-kind", dest="grid_kind", choices=("linear", "log"))


def _add_transport(sub):
    for name in (
        "e-t",
        "c-v",
        "c-tilde1",
        "g-p",
        "delta-s",
        "e-star",
        "eps-g",
        "m-e",
        "omega",
        "e-charge",
    ):
        sub.add_argument(f"--{name}", dest=name.replace("-", "_"), type=float)


def build_parser():
    parser = _Parser(prog="cdwtunnel", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version="cdwtunnel 0.1.0")
    sub = parser.add_subparsers(dest="command")

    p_curve = sub.add_parser("curve", help="emit current-vs-field series")
    _add_common(p_curve)
    _add_grid(p_curve)
    _add_transport(p_curve)
    p_curve.add_argument("--model", choices=("sge", "zener", "both"))
    p_curve.add_argument("--convention", choices=transport.CONVENTIONS)
    p_curve.add_argument("--format", choices=("csv", "json"))
    p_curve.set_defaults(func=_cmd_curve)

    p_fit = sub.add_parser("fit", help="fit the pair current to Zener samples or CSV data")
    _add_common(p_fit)
    _add_grid(p_fit)
    _add_transport(p_fit)
    p_fit.add_argument("--data", help="CSV of (E, I) points to fit instead of synthetic targets")
    p_fit.add_argument("--free", help="comma list of free parameters (c_tilde1,c_v)")
    p_fit.add_argument("--start-c-tilde1", dest="start_c_tilde1", type=float)
    p_fit.add_argument("--start-c-v", dest="start_c_v", type=float)
    p_fit.set_defaults(func=_cmd_fit)

    p_prof = sub.add_parser("profile", help="emit a kink-pair profile and its box transform")
    _add_common(p_prof)
    p_prof.add_argument("--x-a", dest="x_a", type=float)
    p_prof.add_argument("--x-b", dest="x_b", type=float)
    p_prof.add_argument("--steepness", dest="steepness", type=float)
    p_prof.add_argument("--half-width", dest="half_width", type=float)
    p_prof.add_argument("--n", dest="n", type=int)
    p_prof.add_argument("--k-lo", dest="k_lo", type=float)
    p_prof.add_argument("--k-hi", dest="k_hi", type=float)
    p_prof.add_argument("--k-n", dest="k_n", type=int)
    p_prof.set_defaults(func=_cmd_profile)

    p_me = sub.add_parser("matrix-element", help="evaluate matrix elements over an L or E grid")
    _add_common(p_me)
    _add_grid(p_me)
    _add_transport(p_me)
    p_me.add_argument("--over", choices=("l", "e"))
    p_me.add_argument("--x-bar", dest="x_bar", type=float)
    p_me.add_argument("--n1", dest="n1", type=float)
    p_me.add_argument("--m-star", dest="m_star", type=float)
    p_me.add_argument("--eps-plus", dest="eps_plus", type=float)
    p_me.set_defaults(func=_cmd_matrix_element)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--config", help="JSON config file; flags override its entries")
    p_ver.add_argument("--check", action="append", help="restrict to this check (repeatable)")
    p_ver.add_argument("--tol", action="append", help="override a tolerance, NAME=VALUE (repeatable)")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise CliUsageError("a subcommand is required (curve, fit, profile, matrix-element, verify)")
        return args.func(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, QuadratureError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
