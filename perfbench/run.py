#!/usr/bin/env python3
"""cdwtunnel benchmark: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload fit_mix --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It imports the package from ``src/``
and never sets ``CDWTUNNEL_BACKEND``, so it measures the backend that
``import cdwtunnel`` picks.  With ``--trace 0`` it measures the end-to-end
metrics of BENCHMARK.json for ``--seconds`` seconds; with ``--trace 1`` it
runs a fixed, seeded list of ops once plain and once traced and reports
the per-layer metrics.  Every op's output is checked against a reference
the benchmark computes itself.  A report goes to standard output and its
last line is one JSON object: correct, attempted, failed and metrics.
See perfbench/README.md.
"""

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify_suite", "fit_mix", "grid_eval", "cli_mix")

SETUP_SAMPLES = 7  # fresh-process imports behind setup_s
PROBE_SAMPLES = 5  # processes behind each cli start-up probe of a traced run
# Ops in a traced run; fixed so that two traced runs with one seed count the same.
TRACE_OPS = {"verify_suite": 2, "fit_mix": 100, "grid_eval": 100, "cli_mix": 30}
SAMPLE_PERIOD = 0.025  # seconds between calibration kernel runs in an in-process run
CLI_CALIBRATION_INTERVAL = 2.0  # seconds between calibration processes in a cli run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--out", help="also write the full result (env, failures, spans) as JSON here")
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, env):
    """Run a child to completion; return (wall seconds, stdout text)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=120, check=True)
    return time.perf_counter() - t0, proc.stdout


def import_probe(modules, env):
    """(import seconds, calibration kernel seconds) of a fresh interpreter."""
    out = run_child([sys.executable, str(HERE / "import_probe.py"), *modules], env)[1]
    seconds, kernel = map(float, out.split())
    return seconds, kernel


def git_sha():
    """Commit of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy

    import cdwtunnel

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": cdwtunnel.BACKEND,
        "fastkernels_imported": "cdwtunnel._fastkernels" in sys.modules,
        "CDWTUNNEL_BACKEND": os.environ.get("CDWTUNNEL_BACKEND"),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Latencies and failures of one pass over ops.

    An op that fails through a known seed defect within its allowance is a
    known-defect op; every other failure is a failed op and makes the run
    incorrect.  Neither kind enters the latencies.

    With a ``calibration.Sampler`` or ``calibration.Speed``, times are also
    available in reference seconds (``scaled=True``); without one, only
    wall seconds exist.
    """

    def __init__(self, speed=None):
        self.speed = speed
        self.ops = []  # (wall seconds, what speed.scale takes for the op, succeeded)
        self.kinds = Counter()  # ops attempted per kind
        self.failures = []  # (op index, kind, reason, known defect name or None)

    def add(self, index, kind, seconds, reason, slot=None):
        import workloads

        self.ops.append((seconds, slot, reason is None))
        self.kinds[kind] += 1
        if reason is not None:
            self.failures.append((index, kind, reason, workloads.known_defect(kind, reason)))

    @property
    def attempted(self):
        return len(self.ops)

    def defects(self):
        """Known defect name -> (ops it failed, ops of its kinds, failures allowed)."""
        import workloads

        out = {}
        for d in workloads.KNOWN_DEFECTS:
            n = sum(self.kinds[k] for k in d.kinds)
            failed = sum(1 for *_, name in self.failures if name == d.name)
            if n:
                out[d.name] = (failed, n, d.allowed(n))
        return out

    def failed_ops(self):
        """Failures of no known defect, and all ops of a defect above its allowance."""
        over = {name for name, (failed, n, allowed) in self.defects().items() if failed > allowed}
        return [f for f in self.failures if f[3] is None or f[3] in over]

    def defect_ops(self):
        failed = self.failed_ops()
        return [f for f in self.failures if f not in failed]

    def problems(self):
        """Why the run is incorrect: failures of no known defect, and defects above their allowance."""
        out = [f"op {i} ({kind}): {reason}" for i, kind, reason, name in self.failures if name is None]
        out += [f"known defect {name} hit {hits} of {n} ops, more than {allowed:g}"
                for name, (hits, n, allowed) in self.defects().items() if hits > allowed]
        return out

    def _times(self, scaled):
        return [(s * self.speed.scale(slot) if scaled else s, ok) for s, slot, ok in self.ops]

    def busy(self, scaled=False):
        return sum(t for t, _ in self._times(scaled))

    def latencies(self, scaled=False):
        return [t for t, ok in self._times(scaled) if ok]

    def ops_per_s(self, scaled=False):
        busy = self.busy(scaled)
        return len(self.latencies()) / busy if busy > 0 else 0.0

    def percentile_ms(self, q, scaled=False):
        lat = self.latencies(scaled)
        if len(lat) < 2:
            return lat[0] * 1e3 if lat else float("nan")
        return statistics.quantiles(lat, n=100, method="inclusive")[q - 1] * 1e3


def guarded_check(check, result):
    try:
        return check(result)
    except Exception as exc:  # a result the gate cannot even read is a wrong result
        return f"check raised {type(exc).__name__}: {exc}"


def call_op(op):
    """Run an in-process op; return (start, end, result, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:
        return t0, time.perf_counter(), None, f"raised {type(exc).__name__}: {exc}"
    return t0, time.perf_counter(), result, None


# ---------------------------------------------------------------------------
# timed runs
# ---------------------------------------------------------------------------

def timed_inprocess(workload, seed, seconds):
    import calibration
    import workloads

    sampler = calibration.Sampler(SAMPLE_PERIOD)
    tally = Tally(sampler)
    stream = workloads.STREAMS[workload](seed)
    deadline = time.perf_counter() + seconds
    index = 0
    with sampler.running():
        while time.perf_counter() < deadline:
            op = next(stream)
            t0, t1, result, reason = call_op(op)
            tally.add(index, op.kind, t1 - t0 - sampler.stolen(t0, t1),
                      reason or guarded_check(op.check, result), (t0, t1))
            index += 1
    return tally, peak_rss_mb()


def timed_cli(seed, seconds, scratch, env):
    import calibration
    import climix

    speed = calibration.Speed(lambda budget: calibration.child_seconds(env, ROOT, budget), calibration.CHILD_REFERENCE_S,
                              CLI_CALIBRATION_INTERVAL)
    tally = Tally(speed)
    files = {}
    peak_kb = 0
    stream = climix.cli_mix(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = next(stream)
        slot = speed.tick()
        out = climix.run_subprocess(op, scratch / f"op{op.index}", sys.executable, env)
        files[op.index] = out.files
        peak_kb = max(peak_kb, out.maxrss_kb)
        tally.add(op.index, op.kind, out.seconds,
                  guarded_check(lambda o: climix.check(op, o, files), out), slot)
    speed.close()
    return tally, peak_kb / 1024.0


def run_timed(args, scratch, env, setup):
    if args.workload == "cli_mix":
        tally, rss = timed_cli(args.seed, args.seconds, scratch, env)
        rss_note = "largest cli child"
    else:
        tally, rss = timed_inprocess(args.workload, args.seed, args.seconds)
        rss_note = "this process"
    import calibration

    setup_ref = [s * calibration.KERNEL_REFERENCE_S / k for s, k in setup]
    metrics = {
        "setup_s": metric(statistics.median(setup_ref), "s"),
        "ops_per_s": metric(tally.ops_per_s(scaled=True), "1/s"),
        "op_ms_p50": metric(tally.percentile_ms(50, scaled=True), "ms"),
        "op_ms_p90": metric(tally.percentile_ms(90, scaled=True), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    n = len(tally.latencies())
    resolved = "resolved" if n >= 100 else "NOT resolved, fewer than 10 samples beyond it; read p50 only"
    cal = tally.speed.samples
    failed = len(tally.failed_ops())
    notes = [
        f"fail_frac {failed / max(tally.attempted, 1):.6g} ({failed} of {tally.attempted} ops failed; "
        f"{len(tally.defect_ops())} more hit a known defect)",
        f"latency samples: {n} successful ops; op_ms_p90 {resolved}",
        "times are reference times: wall time x calibration reference / calibrations beside and during the op",
        f"wall clock: ops_per_s {tally.ops_per_s():.6g}, op_ms_p50 {tally.percentile_ms(50):.6g}, "
        f"op_ms_p90 {tally.percentile_ms(90):.6g}, busy {tally.busy():.3f} s, "
        f"setup_s {statistics.median(s for s, _ in setup):.6g}",
        f"calibration: {len(cal)} samples, median {statistics.median(cal) * 1e3:.4g} ms, "
        f"range {min(cal) * 1e3:.4g}..{max(cal) * 1e3:.4g} ms",
        f"setup_s: median of {len(setup)} fresh-process imports; peak_rss_mb: {rss_note}",
    ]
    return tally, metrics, notes


# ---------------------------------------------------------------------------
# traced runs
# ---------------------------------------------------------------------------

def canonical(x):
    """Hashable, exactly comparable form of an op's result."""
    import numpy as np

    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return repr(x)
    if dataclasses.is_dataclass(x):
        return (type(x).__name__,) + tuple(canonical(getattr(x, f.name)) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(canonical(v) for v in x)
    if isinstance(x, dict):
        return tuple(sorted((k, canonical(v)) for k, v in x.items()))
    if hasattr(x, "__dict__"):
        return (type(x).__name__, canonical(vars(x)))
    return x


def traced_inprocess(workload, seed, tracer):
    """Plain pass, then traced pass over the same ops; outputs must agree."""
    import workloads

    ops = list(islice(workloads.STREAMS[workload](seed), TRACE_OPS[workload]))
    passes = []
    for traced in (False, True):
        tally, outputs = Tally(), []
        with tracer.installed() if traced else nullcontext():
            for i, op in enumerate(ops):
                tracer.op = i
                with tracer.span("bench.op") if traced else nullcontext():
                    t0, t1, result, reason = call_op(op)
                tally.add(i, op.kind, t1 - t0, reason or guarded_check(op.check, result))
                outputs.append(canonical(result))
        passes.append((tally, outputs))
    (plain, plain_out), (traced_tally, traced_out) = passes
    differ = [i for i, (a, b) in enumerate(zip(plain_out, traced_out)) if a != b]
    return plain, traced_tally, differ, {}


def traced_cli(seed, tracer, scratch, env):
    """The ops as subprocesses, then in-process plain and traced; all outputs must agree."""
    import climix

    ops, seen = [], dict.fromkeys(climix.SUBCOMMANDS, 0)
    stream = climix.cli_mix(seed)
    while len(ops) < TRACE_OPS["cli_mix"] or min(seen.values()) < 2:
        op = next(stream)
        ops.append(op)
        if op.kind in seen:
            seen[op.kind] += 1
    results, tallies = {}, {}
    for mode in ("subprocess", "plain", "traced"):
        tally, outs, files = Tally(), [], {}
        with tracer.installed() if mode == "traced" else nullcontext():
            for op in ops:
                d = scratch / mode / f"op{op.index}"
                if mode == "subprocess":
                    out = climix.run_subprocess(op, d, sys.executable, env)
                else:
                    tracer.op = op.index
                    with tracer.span("bench.op") if mode == "traced" else nullcontext():
                        out = climix.run_inprocess(op, d)
                files[op.index] = out.files
                tally.add(op.index, op.kind, out.seconds,
                          guarded_check(lambda o: climix.check(op, o, files), out))
                outs.append(out)
        results[mode], tallies[mode] = outs, tally
    differ = [
        op.index for op, a, b, c in zip(ops, results["subprocess"], results["plain"], results["traced"])
        if not (a.exit_code == b.exit_code == c.exit_code and a.stdout == b.stdout == c.stdout
                and a.files == b.files == c.files)
    ]
    extra = {
        "cli.bytes_written": sum(len(o.stdout) + sum(map(len, o.files.values())) for o in results["traced"]),
        "subprocess_op_ms_p50": tallies["subprocess"].percentile_ms(50),
    }
    for name in climix.SUBCOMMANDS:
        times = [o.seconds for op, o in zip(ops, results["plain"]) if op.kind == name]
        extra[f"cli.{name}.ms"] = statistics.median(times) * 1e3
    return tallies["plain"], tallies["traced"], differ, extra


def cli_probes(env):
    start = [run_child([sys.executable, "-c", "pass"], env)[0] for _ in range(PROBE_SAMPLES)]
    imports = [import_probe(["cdwtunnel.cli"], env)[0] for _ in range(PROBE_SAMPLES)]
    return statistics.median(start) * 1e3, statistics.median(imports) * 1e3


def cross_check(workload, values, tracer, extra):
    """Shares that the ROADMAP baseline attributes, recomputed from this trace."""
    if workload == "verify_suite":
        total = sum(v for k, v in values.items() if k.startswith("verify.") and k.endswith(".ms"))
        return {"thin-wall-ft share of a verify pass": values["verify.thin-wall-ft.ms"] / total}
    if workload == "fit_mix":
        ops = tracer.span_totals()["bench.op"][1]
        return {
            "transport_with (incl. TransportParams) share of fit time": tracer.seconds["fitting.transport_with"] / ops,
            "current_sge share of fit time": tracer.seconds["transport.current_sge"] / ops,
        }
    if workload == "cli_mix":
        start_import = values["cli.interpreter_start_ms"] + values["cli.import_ms"]
        return {"interpreter start + import share of a cli op (p50)": start_import / extra["subprocess_op_ms_p50"]}
    return {}


def run_traced(args, scratch, env, result):
    import tracing

    tracer = tracing.Tracer()
    if args.workload == "cli_mix":
        plain, traced, differ, extra = traced_cli(args.seed, tracer, scratch, env)
    else:
        plain, traced, differ, extra = traced_inprocess(args.workload, args.seed, tracer)
    values = tracer.layer_values()
    values.update({k: v for k, v in extra.items() if k in values})
    values["cli.interpreter_start_ms"], values["cli.import_ms"] = cli_probes(env)
    values["bench.tracing_overhead"] = 1.0 - traced.ops_per_s() / plain.ops_per_s() if plain.ops_per_s() else 0.0
    metrics = {name: metric(values[name], unit) for name, (unit, _) in tracing.LAYER_METRICS.items()}
    notes = [f"{len(traced.latencies())} of {traced.attempted} traced ops succeeded; "
             f"{len(tracer.spans)} spans; every patched name restored"]
    notes += [f"cross-check: {k} = {v:.3f}" for k, v in cross_check(args.workload, values, tracer, extra).items()]
    if differ:
        traced.failures.append((differ[0], "trace", f"traced outputs differ from untraced ones at ops {differ}", None))
    result["spans"] = tracer.spans
    result["counts"] = dict(tracer.counts)
    return traced, metrics, notes


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cdwtunnel" / "__init__.py").is_file():
        print(f"perfbench: no cdwtunnel sources at {SRC / 'cdwtunnel'}; run from a full checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    modules = ["cdwtunnel", "cdwtunnel.cli"] if args.workload == "cli_mix" else ["cdwtunnel"]

    # Users compile bytecode once per install, so warm the cache before timing imports.
    run_child([sys.executable, "-m", "compileall", "-q", str(SRC / "cdwtunnel")], env)
    import_probe(modules, env)
    setup = [] if args.trace else [import_probe(modules, env) for _ in range(SETUP_SAMPLES)]
    sys.path.insert(0, str(SRC))
    import cdwtunnel

    if not Path(cdwtunnel.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported cdwtunnel from {cdwtunnel.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env_block = environment()
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_block}
    try:
        if args.trace:
            tally, metrics, notes = run_traced(args, scratch, env, result)
        else:
            tally, metrics, notes = run_timed(args, scratch, env, setup)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    print(f"cdwtunnel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env_block.items()))
    for name, m in metrics.items():
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']}")
    for line in notes:
        print("  " + line)
    for name, (hits, n, allowed) in tally.defects().items():
        print(f"  known defect {name}: hit {hits} of {n} ops (allowed {allowed:g})")
    for index, kind, reason, name in tally.defect_ops():
        print(f"  known defect op {index} ({kind}) [{name}]: {reason}")
    for index, kind, reason, name in tally.failed_ops():
        print(f"  FAILED op {index} ({kind}){f' [known defect {name}, above its allowance]' if name else ''}: "
              f"{reason}")
    problems = tally.problems()
    for line in problems:
        print(f"perfbench: INCORRECT: {line}", file=sys.stderr)

    failed = len(tally.failed_ops())
    result.update(correct=not problems, attempted=tally.attempted, failed=failed,
                  metrics=metrics, failures=tally.failures, defects=tally.defects(), problems=problems,
                  notes=notes)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": not problems, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
