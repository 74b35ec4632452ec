"""Traced runs: spans and counts recorded by wrapping cdwtunnel's public names.

The program is not edited.  ``Tracer.installed()`` replaces module
attributes with wrappers and puts every original back on exit, including
names other modules imported directly (``fitting.least_squares_fit``,
``fitting.current_sge``, the package's re-exports) and the entries of
``verify.CHECKS``.

The quadrature engine is wrapped in the backend's kernel module, not in
``numerics``: the oracles (``box_ft_quadrature``,
``gaussian_overlap_current``) call the kernel module's
``integrate_adaptive`` directly, and ``numerics.integrate_adaptive`` is a
thin front for it.  With the compiled backend the oracles' calls stay
inside the extension and only the calls through ``numerics`` are seen.

Engine and library-op boundaries get spans (name, start, end, parent,
op id), kept in memory.  Per-point scalar kernels get a call count and
summed time only, since a span per call would cost more than the call.
A span's self time is its duration minus the time its child spans cover.
"""

import contextlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

from climix import SUBCOMMANDS as CLI_SUBCOMMANDS
from cdwtunnel import cli, fitting, numerics, potential, transport, tunneling, verify, wavefunctional
from cdwtunnel._backend import kernels

# Library and engine boundaries: (module, name, points per call or None).
SPANNED = [
    (kernels, "integrate_adaptive", None),
    (numerics, "least_squares_fit", None),
    (wavefunctional, "thin_wall_ft_oracle", None),
    (tunneling, "t_if_single_mode_oracle", None),
    (fitting, "fit_sge_to_points", None),
    (fitting, "fit_sge_to_zener", None),
    (transport, "curve_series", lambda a, k: len(k.get("e_grid", a[2] if len(a) > 2 else ()))),
    (wavefunctional, "sample_profile", lambda a, k: int(k.get("n", a[2] if len(a) > 2 else 0))),
    (potential, "bogomolnyi_check", lambda a, k: len(a[0])),
]

# Per-point scalar kernels and helpers: counted, not spanned.
COUNTED = [
    (transport, "current_sge"),
    (transport, "current_zener"),
    (fitting, "transport_with"),
    (fitting, "sge_model_jacobian"),
    (wavefunctional, "thin_wall_ft"),
    (wavefunctional, "norm_constant"),
    (wavefunctional, "transport_pair_specs"),
    (tunneling, "t_if_analytic"),
    (tunneling, "t_if_simplified"),
]

# Per-layer metrics of a traced run: name -> (unit, better).
LAYER_METRICS = {}


def _declare(names, unit, better="lower"):
    for name in names:
        LAYER_METRICS[name] = (unit, better)


_declare(["numerics.integrate_adaptive.calls", "numerics.integrate_adaptive.evals",
          "numerics.integrate_adaptive.failed"], "count")
_declare(["numerics.integrate_adaptive.self_ms"], "ms")
_declare(["wavefunctional.thin_wall_ft_oracle.calls", "tunneling.t_if_single_mode_oracle.calls"], "count")
_declare(["wavefunctional.thin_wall_ft_oracle.self_ms", "tunneling.t_if_single_mode_oracle.self_ms"], "ms")
_declare(["numerics.least_squares_fit.calls", "numerics.least_squares_fit.iterations",
          "numerics.least_squares_fit.not_converged"], "count")
_declare(["numerics.least_squares_fit.self_ms", "fitting.fit_sge_to_points.self_ms",
          "fitting.fit_sge_to_zener.self_ms"], "ms")
_declare(["fitting.transport_with.calls", "fitting.model_evals", "fitting.jacobian_evals",
          "transport.TransportParams.built"], "count")
_declare(["transport.current_sge.calls", "transport.current_zener.calls",
          "transport.curve_series.calls"], "count")
_declare(["transport.curve_series.points"], "count", "higher")
_declare(["transport.current_sge.ms", "transport.current_zener.ms", "transport.curve_series.self_ms"], "ms")
for _name in ("sample_profile", "thin_wall_ft", "norm_constant", "transport_pair_specs"):
    _declare([f"wavefunctional.{_name}.calls"], "count")
    _declare([f"wavefunctional.{_name}.points"], "count", "higher")
    _declare([f"wavefunctional.{_name}.ms"], "ms")
_declare(["potential.bogomolnyi_check.calls"], "count")
_declare(["potential.bogomolnyi_check.points"], "count", "higher")
_declare(["potential.bogomolnyi_check.self_ms"], "ms")
_declare(["tunneling.t_if_analytic.calls", "tunneling.t_if_simplified.calls"], "count")
_declare(["tunneling.t_if_analytic.ms", "tunneling.t_if_simplified.ms"], "ms")
_declare([f"verify.{name}.ms" for name in verify.CHECKS], "ms")
_declare(["cli.interpreter_start_ms", "cli.import_ms"], "ms")
_declare([f"cli.{name}.ms" for name in CLI_SUBCOMMANDS], "ms")
_declare(["cli.bytes_written"], "bytes")
_declare(["bench.tracing_overhead"], "ratio")


class Tracer:
    """Spans and counters of one traced pass; install with ``installed()``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, op id]
        self.counts = Counter()
        self.seconds = Counter()  # summed time of counted functions
        self.op = None
        self._stack = []
        self._saved = []  # (setter, owner, key, original) in patch order

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _spanned(self, name, fn, points=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if points is not None:
                self.counts[name + ".points"] += points(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _counted(self, name, fn):
        counts, seconds = self.counts, self.seconds

        @wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - t0
                counts[name + ".calls"] += 1

        return wrapper

    def _integrate(self, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted_f(x):
                counts["numerics.integrate_adaptive.evals"] += 1
                return f(x)

            with self.span("numerics.integrate_adaptive"):
                try:
                    return fn(counted_f, *args, **kwargs)
                except numerics.QuadratureError:
                    counts["numerics.integrate_adaptive.failed"] += 1
                    raise

        return wrapper

    def _least_squares(self, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span("numerics.least_squares_fit"):
                result = fn(*args, **kwargs)
            self.counts["numerics.least_squares_fit.iterations"] += result.iterations
            self.counts["numerics.least_squares_fit.not_converged"] += not result.converged
            return result

        return wrapper

    def _cli_main(self, fn):
        @wraps(fn)
        def wrapper(argv=None):
            name = argv[0] if argv and argv[0] in CLI_SUBCOMMANDS else "other"
            with self.span(f"cli.{name}"):
                return fn(argv)

        return wrapper

    def _post_init(self, fn):
        counts = self.counts

        def wrapper(obj):
            counts["transport.TransportParams.built"] += 1
            return fn(obj)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._saved.append((dict.__setitem__, owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((setattr, owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _replace_everywhere(self, original, wrapper):
        """Point every cdwtunnel module attribute bound to ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cdwtunnel" or mod_name.startswith("cdwtunnel."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def install(self):
        special = {
            (kernels, "integrate_adaptive"): self._integrate,
            (numerics, "least_squares_fit"): self._least_squares,
        }
        for module, name, points in SPANNED:
            fn = getattr(module, name)
            layer = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            make = special.get((module, name))
            self._replace_everywhere(fn, make(fn) if make else self._spanned(layer, fn, points))
        for module, name in COUNTED:
            fn = getattr(module, name)
            self._replace_everywhere(fn, self._counted(f"{module.__name__.rsplit('.', 1)[-1]}.{name}", fn))
        # The fitter's model closure reaches the current law through this
        # name only, so counting here counts model evaluations.
        inner = fitting.current_sge
        counts = self.counts

        @wraps(inner)
        def model_eval(*args, **kwargs):
            counts["fitting.model_evals"] += 1
            return inner(*args, **kwargs)

        self._set(fitting, "current_sge", model_eval)
        self._set(transport.TransportParams, "__post_init__",
                  self._post_init(transport.TransportParams.__post_init__))
        for name, fn in list(verify.CHECKS.items()):
            self._set(verify.CHECKS, name, self._spanned(f"verify.{name}", fn))
        self._replace_everywhere(cli.main, self._cli_main(cli.main))

    def restore(self):
        """Put every original back; raise if any patched name still differs."""
        saved, self._saved = self._saved, []
        for setter, owner, key, original in reversed(saved):
            setter(owner, key, original)
        first = {}
        for _, owner, key, original in saved:
            first.setdefault((id(owner), key), (owner, key, original))
        left = [
            key for owner, key, original in first.values()
            if (owner[key] if isinstance(owner, dict) else getattr(owner, key)) is not original
        ]
        if left:
            raise RuntimeError(f"tracer left patched names behind: {left}")
        return len(first)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results ---------------------------------------------------------------

    def span_totals(self):
        """name -> (calls, total seconds, self seconds)."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return {name: tuple(v) for name, v in totals.items()}

    def layer_values(self):
        """Every per-layer metric this tracer measures; the caller adds the cli probes."""
        spans = self.span_totals()
        values = {}
        for name in LAYER_METRICS:
            layer, _, field = name.rpartition(".")
            calls, total, own = spans.get(layer, (0, 0.0, 0.0))
            if field == "calls":
                values[name] = calls or self.counts[name]
            elif field == "points":  # a scalar kernel evaluates one point per call
                values[name] = self.counts[name] or self.counts[layer + ".calls"]
            elif field == "self_ms":
                values[name] = own * 1e3
            elif field == "ms":
                values[name] = (total or self.seconds[layer]) * 1e3
            else:
                values[name] = self.counts[name]
        values["fitting.jacobian_evals"] = self.counts["fitting.sge_model_jacobian.calls"]
        return values
