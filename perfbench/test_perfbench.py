"""Tests of the benchmark itself: gates, exact traced counts, patch hygiene.

    python3 -m pytest perfbench -q

These are not tier-1 tests: they run subprocesses and take about a minute.
"""

import json
import shutil
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import closed_forms as cf  # noqa: E402
import climix  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cdwtunnel import fitting, transport, tunneling, verify, wavefunctional  # noqa: E402


def first(stream, kind, n=3):
    return [op for op in islice(stream, 200) if op.kind == kind][:n]


def check_op(op):
    *_, result, reason = run.call_op(op)
    return reason or op.check(result)


@pytest.fixture
def scratch():
    d = ROOT / ".perfbench_tmp" / "test"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    yield d
    shutil.rmtree(d, ignore_errors=True)
    if not any(d.parent.iterdir()):
        d.parent.rmdir()


def scaled(fn, factor):
    return lambda *a, **k: fn(*a, **k) * factor


# ---------------------------------------------------------------------------
# every gate passes as generated and trips on a perturbed reference
# ---------------------------------------------------------------------------

GRID_REFERENCES = {
    "sge_curve": ["current_sge"],
    "zener_curve": ["current_zener"],
    "profile": ["kink_pair", "profile_energy"],
    "k_grid": ["thin_wall_ft"],
    "l_grid": ["norm_constant", "t_if_analytic", "t_if_simplified"],
}


@pytest.mark.parametrize("kind", workloads.GRID_KINDS)
def test_grid_gates(kind, monkeypatch):
    assert all(check_op(op) is None for op in first(workloads.grid_eval(7), kind))
    for name in GRID_REFERENCES[kind]:
        with monkeypatch.context() as m:
            m.setattr(cf, name, scaled(getattr(cf, name), 1.0 + 1e-9))
            assert all(check_op(op) for op in first(workloads.grid_eval(7), kind)), name


def test_fit_gates(monkeypatch):
    for kind in ("self_fit", "zener_fit"):
        assert all(check_op(op) is None for op in first(workloads.fit_mix(3), kind))
    # targets 1e-4 off the truth: the self-fit recovers parameters off by more than 1e-5
    monkeypatch.setattr(cf, "current_sge", scaled(cf.current_sge, 1.0 + 1e-4))
    assert all(check_op(op) for op in first(workloads.fit_mix(3), "self_fit"))
    assert all(check_op(op) for op in first(workloads.fit_mix(3), "zener_fit"))


def test_verify_gate(monkeypatch):
    (op,) = first(workloads.verify_suite(1), "verify", 1)
    results = op.call()
    assert op.check(results) is None
    monkeypatch.setitem(workloads.VERIFY_TOLERANCES, "thin-wall-ft", 1e-7)
    assert "documented default" in op.check(results)
    failed = [r if r.name != "normalization" else verify.CheckResult(r.name, False, 1.0, r.tolerance, "")
              for r in results]
    monkeypatch.setitem(workloads.VERIFY_TOLERANCES, "thin-wall-ft", 1e-6)
    assert "normalization: failed" in op.check(failed)
    assert "requested" in op.check(results[::-1])


# reference -> relative perturbation beyond its gate (the oracle column allows 1e-10 absolute)
CLI_REFERENCES = {
    "curve": {"current_sge": 1e-9, "current_zener": 1e-9},
    "profile": {"kink_pair": 1e-9},
    "matrix-element": {"t_if_analytic": 1e-9, "overlap_current": 1e-6},
}


def run_cli_ops(seed, kind, scratch, n=4):
    ops = [op for op in islice(climix.cli_mix(seed), 300) if op.kind == kind and op.repeat_of is None][:n]
    env = run.child_env()
    return [(op, climix.run_subprocess(op, scratch / f"{kind}{op.index}", sys.executable, env)) for op in ops]


@pytest.mark.parametrize("kind", sorted(CLI_REFERENCES))
def test_cli_gates(kind, scratch, monkeypatch):
    ran = run_cli_ops(5, kind, scratch, n=6)
    reasons = [op.check(out) for op, out in ran]
    # only a known defect fails an op as generated (the oracle on the default E grid)
    assert all(r is None or workloads.known_defect(kind, r) for r in reasons)
    ran = [(op, out) for (op, out), r in zip(ran, reasons) if r is None]
    assert ran
    for name, eps in CLI_REFERENCES[kind].items():
        with monkeypatch.context() as m:
            m.setattr(cf, name, scaled(getattr(cf, name), 1.0 + eps))
            fresh = [op for op in islice(climix.cli_mix(5), 300) if op.kind == kind and op.repeat_of is None]
            by_index = {op.index: op for op in fresh}
            tripped = [by_index[op.index].check(out) for op, out in ran]
            # a draw may leave out the perturbed column (a zener-only curve)
            assert any(tripped), name
            assert not any(workloads.known_defect(kind, r) for r in tripped if r), name


def test_cli_fit_and_verify_gates(scratch, monkeypatch):
    fits = run_cli_ops(5, "fit", scratch, n=2)
    checks = run_cli_ops(5, "verify", scratch, n=2)
    assert all(op.check(out) is None for op, out in fits + checks)
    real = fitting.fit_sge_to_zener

    def off(*a, **k):
        fit = real(*a, **k)
        fit.params = fit.params * (1.0 + 1e-9)
        return fit

    monkeypatch.setattr(fitting, "fit_sge_to_zener", off)
    fresh = {op.index: op for op in islice(climix.cli_mix(5), 300)}
    assert all(fresh[op.index].check(out) for op, out in fits)
    for op, _ in checks:
        monkeypatch.setitem(workloads.VERIFY_TOLERANCES, op.config["check"] if op.config else op.args[2], 0.5)
    fresh = {op.index: op for op in islice(climix.cli_mix(5), 300)}
    assert all(fresh[op.index].check(out) for op, out in checks)


def test_error_gate():
    ok = climix.Outcome(1, b"", b"error: an output path is required (--out)\n", {}, 0.1)
    assert climix._check_error(ok) is None
    assert "exit 2" in climix._check_error(climix.Outcome(2, b"", b"error: x\n", {}, 0.1))
    assert "left" in climix._check_error(climix.Outcome(1, b"", b"error: x\n", {"p.csv": b""}, 0.1))
    assert "Traceback" in climix._check_error(climix.Outcome(1, b"", b"Traceback (most recent", {}, 0.1))


def test_repeat_gate():
    out = climix.Outcome(0, b"", b"", {"a.csv": b"1\n"}, 0.1)
    assert climix._check_repeat(lambda o: None, {"a.csv": b"1\n"}, out) is None
    assert "different bytes" in climix._check_repeat(lambda o: None, {"a.csv": b"2\n"}, out)


def request(op):
    """The options of a cli op, whether given as flags or as config."""
    return op.config or {k[2:].replace("-", "_"): v for k, v in zip(op.args[1::2], op.args[2::2])}


def test_known_seed_defects_fail_their_ops(scratch):
    """The seed's defects are recognised by name; their ops are not failed and the run stays correct."""
    env = run.child_env()
    tally = run.Tally()
    for what, name in (("grid_n_text", "grid_n_text_exits_2"), ("k_n_one", "k_n_one_leaves_file")):
        args, config = climix.ERRORS[what]
        op = climix.CliOp("error:" + what, list(args), config, climix._check_error)
        reason = op.check(climix.run_subprocess(op, scratch / what, sys.executable, env))
        assert workloads.known_defect(op.kind, reason) == name
        tally.add(0, op.kind, 0.1, reason)
    # matrix-element --over e on the default grid
    (op,) = [op for op in islice(climix.cli_mix(5), 300) if op.kind == "matrix-element"
             and request(op).get("over") == "e" and "grid_lo" not in request(op)][:1]
    reason = op.check(climix.run_subprocess(op, scratch / "me", sys.executable, env))
    assert workloads.known_defect(op.kind, reason) == "oracle_wrong_below_l_1_5", reason
    tally.add(1, op.kind, 0.1, reason)
    assert tally.problems() == [] and tally.failed_ops() == []
    assert len(tally.defect_ops()) == 3 and tally.latencies() == []


def test_unknown_failures_and_common_defects_make_a_run_incorrect():
    tally = run.Tally()
    tally.add(0, "zener_fit", 0.1, "fit did not converge after 200 iterations")
    tally.add(1, "self_fit", 0.1, None)
    assert tally.problems() == [] and tally.failed_ops() == []
    tally.add(2, "self_fit", 0.1, "self-fit did not converge after 200 iterations")
    tally.add(3, "zener_fit", 0.1, "fit did not converge after 5 iterations")  # not at the cap
    assert len(tally.problems()) == 2 and [f[0] for f in tally.failed_ops()] == [2, 3]
    tally = run.Tally()
    for i in range(20):  # every Zener fit hits the cap: more than 3 + 10%
        tally.add(i, "zener_fit", 0.01, "fit did not converge after 200 iterations")
    assert "zener_fit_hits_max_iter" in tally.problems()[0]
    assert len(tally.failed_ops()) == 20 and tally.defect_ops() == []


@pytest.mark.xfail(strict=True, reason="quadrature oracle misses the overlap peak for L < 1.5 "
                                       "(4.6e-8 expected at L = 1, 1.0e-13 returned)")
def test_oracle_agrees_with_closed_form_below_l_1_5():
    spec_i, spec_f = wavefunctional.transport_pair_specs(1.0)
    got = tunneling.t_if_single_mode_oracle(spec_i, spec_f)
    ref = cf.overlap_current(spec_i.norm_c, spec_i.alpha, spec_i.center,
                             spec_f.norm_c, spec_f.alpha, spec_f.center, 1.0)
    assert abs(got - ref) <= 1e-10


# ---------------------------------------------------------------------------
# traced runs: exact counts, identical outputs, every name restored
# ---------------------------------------------------------------------------

COUNT_FIELDS = ("calls", "evals", "iterations", "model_evals", "built", "points", "bytes_written",
                "not_converged", "failed", "jacobian_evals")


def counts(values):
    return {k: v for k, v in values.items() if k.rpartition(".")[2] in COUNT_FIELDS}


@pytest.mark.parametrize("workload,n", [("fit_mix", 20), ("grid_eval", 30), ("verify_suite", 1)])
def test_traced_counts_repeat_and_outputs_match(workload, n, monkeypatch):
    monkeypatch.setitem(run.TRACE_OPS, workload, n)
    seen = []
    for _ in range(2):
        tracer = tracing.Tracer()
        plain, traced, differ, _ = run.traced_inprocess(workload, 11, tracer)
        assert differ == []
        assert traced.attempted == n
        seen.append(counts(tracer.layer_values()))
    assert seen[0] == seen[1]
    assert sum(seen[0].values()) > 0


def test_traced_cli_counts_repeat(scratch, monkeypatch):
    monkeypatch.setitem(run.TRACE_OPS, "cli_mix", 10)
    env = run.child_env()
    seen = []
    for i in range(2):
        tracer = tracing.Tracer()
        _, traced, differ, extra = run.traced_cli(2, tracer, scratch / str(i), env)
        assert differ == []
        values = tracer.layer_values()
        values["cli.bytes_written"] = extra["cli.bytes_written"]
        seen.append(counts(values))
    assert seen[0] == seen[1]
    assert seen[0]["cli.bytes_written"] > 0


def module_bindings():
    mods = {k: m for k, m in sys.modules.items() if k == "cdwtunnel" or k.startswith("cdwtunnel.")}
    names = {(k, n): v for k, m in mods.items() for n, v in vars(m).items() if callable(v)}
    names[("verify.CHECKS", "")] = dict(verify.CHECKS)
    names[("TransportParams", "__post_init__")] = transport.TransportParams.__post_init__
    return names


def test_tracer_restores_every_name_even_on_error():
    before = module_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert fitting.current_sge is not before[("cdwtunnel.fitting", "current_sge")]
            1 / 0
    after = module_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] or after[k] == before[k] for k in before)


def test_sampler_calibrates_during_ops_and_restores_the_signal():
    import signal

    import calibration

    handler = signal.getsignal(signal.SIGALRM)
    sampler = calibration.Sampler(0.02)
    with sampler.running():
        t0 = time.perf_counter()
        while time.perf_counter() < t0 + 0.2:
            pass
        t1 = time.perf_counter()
        time.sleep(0.1)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for s, d in zip(sampler.starts, sampler.samples) if t0 <= s < t1]
    assert len(inside) >= 3 and len(sampler.samples) > len(inside)
    assert sampler.stolen(t0, t1) == sum(inside)
    assert sampler.scale((t0, t1)) > 0.0


# ---------------------------------------------------------------------------
# the contract with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_bare_directory_exits_without_a_result(scratch):
    bare = scratch / "bare"
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit_mix", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_compare_flags_more_known_defect_ops(scratch, capsys):
    import compare

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}

    def write(name, hits):
        result = {"workload": "fit_mix", "trace": 0, "correct": True, "attempted": 100, "failed": 0,
                  "env": {"backend": "pure"}, "metrics": metrics, "problems": [],
                  "defects": {"zener_fit_hits_max_iter": [hits, 30, 6.0]}}
        path = scratch / f"{name}.json"
        path.write_text(json.dumps(result))
        return str(path)

    base = [write(f"b{i}", i % 2) for i in range(4)]
    assert compare.main(["--base", *base, "--new", write("same", 1)]) == 0
    assert compare.main(["--base", *base, "--new", write("more", 3)]) == 1
    assert "MORE FAILURES" in capsys.readouterr().out
