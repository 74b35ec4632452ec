"""The command path: ``cli.run`` behind ``python -m cdwtunnel.cli`` and the console script.

A finished command flushes its streams and ends with ``os._exit``; these
tests check that a process gives what ``cli.main`` gives in-process, and
which paths skip the interpreter's teardown.  The module starts all its
processes together, so they share the machine's cores instead of queueing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdwtunnel
from cdwtunnel import cli

SRC = str(Path(cdwtunnel.__file__).resolve().parent.parent)
# stdout block-buffered, as for a user: output that no flush reaches is lost at os._exit
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
CONFIG = "cfg.json"

# (argv, exit code); paths are relative to the run's own directory, so the
# process and the in-process run print and write the same bytes
PARITY_CASES = {
    "verify": (["verify", "--check", "ratio-18-19", "--check", "normalization"], 0),
    "fit": (["fit", "--grid-n", "40", "--out", "report.json"], 0),
    "curve-csv": (["curve", "--grid-n", "30", "--out", "c.csv"], 0),
    "curve-json": (["curve", "--format", "json", "--grid-n", "30", "--out", "c.json"], 0),
    "profile": (["profile", "--n", "201", "--k-n", "20", "--out", "p.csv"], 0),
    "matrix-element": (["matrix-element", "--grid-n", "5", "--out", "me.csv"], 0),
    "config-error": (["fit", "--config", CONFIG, "--out", "report.json"], 1),
    "numeric-error": (["matrix-element", "--eps-plus", "1e6", "--grid-n", "3", "--out", "me.csv"], 2),
    "verify-failure": (["verify", "--check", "ratio-18-19", "--tol", "ratio-18-19=0"], 3),
}


def _prepare(d):
    d.mkdir()
    (d / CONFIG).write_text(json.dumps({"grid_n": "abc"}), encoding="utf-8")
    return d


def _files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.name != CONFIG}


# a command as the interpreter runs it, behind a hook registered by someone else
MARKED = """\
import atexit, runpy, sys
atexit.register(lambda: print("atexit hook ran", file=sys.stderr))
sys.argv = ["cdwtunnel", *sys.argv[1:]]
runpy.run_module("cdwtunnel.cli", run_name="__main__")
"""
# (argv, exit code, whether the atexit hook runs)
TEARDOWN_CASES = {
    "ok": (["verify", "--check", "ratio-18-19"], 0, False),
    "usage": (["frobnicate"], 1, False),
    "runtime": (["curve", "--grid-hi", "1e6", "--out", "c.csv"], 2, False),
    "verify-failure": (["verify", "--check", "ratio-18-19", "--tol", "ratio-18-19=0"], 3, False),
    "version": (["--version"], 0, True),
}
FULL = "/dev/full"
# os._exit after a command is safe only while the package leaves nothing for atexit to do
PROBE = (
    "import atexit, numpy; before = atexit._ncallbacks(); import cdwtunnel.cli; "
    "print(before, atexit._ncallbacks())"
)


def _commands():
    """Every process of this module, ``{name: (argv, env, stdout path or None)}``."""
    cli_argv = [sys.executable, "-m", "cdwtunnel.cli"]
    commands = {f"parity-{name}": ([*cli_argv, *argv], ENV, None) for name, (argv, _) in PARITY_CASES.items()}
    for name, (argv, _, _) in TEARDOWN_CASES.items():
        commands[f"marked-{name}"] = ([sys.executable, "-c", MARKED, *argv], ENV, None)
    if os.path.exists(FULL):
        for name, env in [("unbuffered", {**ENV, "PYTHONUNBUFFERED": "1"}), ("buffered", ENV)]:
            commands[f"full-{name}"] = ([*cli_argv, "verify", "--check", "ratio-18-19"], env, FULL)
    commands["probe"] = ([sys.executable, "-c", PROBE], ENV, None)
    return commands


def _start(argv, d, env, stdout):
    """A process running ``argv`` in ``d``; stdout goes to ``stdout`` or a file beside ``d``, stderr beside ``d``."""
    out_path = stdout or d.with_suffix(".out")
    with open(out_path, "wb") as out, open(d.with_suffix(".err"), "wb") as err:
        return subprocess.Popen(argv, cwd=d, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)


@pytest.fixture(scope="module")
def processes(tmp_path_factory):
    """All of ``_commands`` started together, so the module waits about as long as its longest batch."""
    tmp = tmp_path_factory.mktemp("processes")
    procs = {}
    try:
        for name, (argv, env, stdout) in _commands().items():
            d = _prepare(tmp / name)
            procs[name] = (_start(argv, d, env, stdout), d)
        yield procs
    finally:
        for proc, _ in procs.values():
            proc.kill()
            proc.wait()


def _finish(processes, name):
    """(exit code, stdout bytes, stderr bytes, files) of a started process."""
    proc, d = processes[name]
    code = proc.wait(timeout=120)
    out = d.with_suffix(".out")
    return code, out.read_bytes() if out.exists() else b"", d.with_suffix(".err").read_bytes(), _files(d)


@pytest.mark.parametrize("case", PARITY_CASES)
def test_process_matches_the_in_process_run(processes, case, tmp_path, monkeypatch, capsys):
    argv, code = PARITY_CASES[case]
    got = _finish(processes, f"parity-{case}")
    monkeypatch.chdir(_prepare(tmp_path / "inprocess"))
    expected_code = cli.main(argv)
    out, err = capsys.readouterr()
    assert expected_code == code
    assert got == (code, out.encode("utf-8"), err.encode("utf-8"), _files(tmp_path / "inprocess"))


@pytest.mark.parametrize("case", TEARDOWN_CASES)
def test_a_finished_command_skips_the_atexit_hooks_and_version_runs_them(processes, case):
    _, code, hook_runs = TEARDOWN_CASES[case]
    got_code, _, err, _ = _finish(processes, f"marked-{case}")
    assert got_code == code, err
    assert (b"atexit hook ran" in err) == hook_runs


@pytest.mark.skipif(not os.path.exists(FULL), reason="needs the Linux /dev/full device")
@pytest.mark.parametrize(
    "case, code, err",
    [
        # the write itself fails, inside main
        ("unbuffered", 2, b"error: [Errno 28] No space left on device\n"),
        # the buffered write fails at run's flush, and again at the normal exit's
        ("buffered", 120, b"OSError: [Errno 28] No space left on device\n"),
    ],
    ids=["unbuffered", "buffered"],
)
def test_a_full_stdout_ends_as_it_did_before_run(processes, case, code, err):
    got_code, _, got_err, _ = _finish(processes, f"full-{case}")
    assert got_code == code and got_err.endswith(err), got_err


class _Exited(Exception):
    pass


def _raise_exited(code):
    raise _Exited(code)


class _Stream:
    flushed = False

    def write(self, text):
        return len(text)

    def flush(self):
        self.flushed = True


class _FailingFlush(_Stream):
    def flush(self):
        raise OSError(28, "No space left on device")


@pytest.fixture
def no_os_exit(monkeypatch):
    monkeypatch.setattr(os, "_exit", _raise_exited)
    monkeypatch.setattr(cli, "main", lambda argv=None: 3)


def test_run_flushes_then_ends_with_os_exit(no_os_exit, monkeypatch):
    streams = {name: _Stream() for name in ("stdout", "stderr")}
    for name, stream in streams.items():
        monkeypatch.setattr(sys, name, stream)
    with pytest.raises(_Exited) as info:
        cli.run([])
    assert info.value.args == (3,)
    assert all(stream.flushed for stream in streams.values())


def test_the_console_script_takes_the_same_path_as_python_m():
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("runs from a source checkout")
    assert 'cdwtunnel = "cdwtunnel.cli:run"' in pyproject.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize("stream", ["stdout", "stderr"])
@pytest.mark.parametrize("replacement", [_FailingFlush, None], ids=["flush-raises", "none"])
def test_run_falls_back_to_sys_exit_when_a_stream_cannot_flush(no_os_exit, monkeypatch, stream, replacement):
    monkeypatch.setattr(sys, stream, replacement and replacement())
    with pytest.raises(SystemExit) as info:
        cli.run([])
    assert info.value.code == 3


def test_importing_the_cli_registers_no_atexit_hook(processes):
    code, out, err, _ = _finish(processes, "probe")
    assert code == 0, err
    before, after = out.split()
    assert after == before
