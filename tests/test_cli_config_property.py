"""Any JSON config either runs or exits with a documented code, never with a traceback."""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from cdwtunnel import cli

JUNK_KEYS = ["gridn", "config"]
# small magnitudes keep every grid, profile and fit cheap; numbers are drawn
# most often so that many configs get past typing into the numerics
NUMBERS = st.one_of(st.integers(-3, 60), st.floats(-3.0, 60.0))
SCALARS = st.one_of(
    NUMBERS,
    st.none(),
    st.booleans(),
    st.text("ab-=.,", max_size=4),
    st.sampled_from(["log", "linear", "sge", "zener", "both", "json", "e", "l", "c_v"]),
)
VALUES = st.one_of(NUMBERS, SCALARS, st.lists(SCALARS, max_size=3))


def _configs(command):
    # each option name is listed three times so that most configs hold no junk key
    keys = st.sampled_from([opt.name for opt in cli.COMMANDS[command][2]] * 3 + JUNK_KEYS)
    return st.dictionaries(keys, VALUES, max_size=3)


@pytest.mark.parametrize("command", ["curve", "fit", "profile", "matrix-element"])
def test_any_json_config_runs_or_exits_cleanly(command, tmp_path, monkeypatch):
    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(config=_configs(command))
    def run(config):
        with tempfile.TemporaryDirectory() as d:
            cfg = Path(d, "run.json")
            cfg.write_text(json.dumps(config), encoding="utf-8")
            code = cli.main([command, "--config", str(cfg), "--out", str(Path(d, "out.csv"))])
            assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RUNTIME)
            if code != cli.EXIT_OK:
                assert [p.name for p in Path(d).iterdir()] == ["run.json"]

    run()
