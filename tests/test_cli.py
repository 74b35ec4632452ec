import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cdwtunnel
from cdwtunnel import cli, fitting, transport, tunneling
from cdwtunnel.cli import main


def run_cli(args, capsys=None):
    code = main(args)
    return code


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def test_curve_zener_zero_below_threshold(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        [
            "curve",
            "--model",
            "zener",
            "--e-t",
            "1",
            "--grid-lo",
            "0.5",
            "--grid-hi",
            "2.0",
            "--grid-n",
            "16",
            "--grid-kind",
            "linear",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == "e,i_zener"
    for line in lines[1:]:
        e, i = (float(c) for c in line.split(","))
        if e <= 1.0:
            assert i == 0.0
        else:
            assert i > 0.0


def test_curve_both_row_count(tmp_path):
    out = tmp_path / "both.csv"
    code = main(
        ["curve", "--model", "both", "--grid-lo", "1.1", "--grid-hi", "5", "--grid-n", "5", "--out", str(out)]
    )
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == "e,i_sge,i_zener"
    assert len(lines) == 6  # header + 5 data rows


def test_curve_missing_output_errors_without_file(tmp_path, capsys):
    code = main(["curve", "--model", "zener"])
    assert code == 1
    assert "output path" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_curve_bad_grid_is_usage_error(capsys):
    code = main(["curve", "--grid-lo", "2", "--grid-hi", "1", "--out", "x.csv"])
    assert code == 1
    code = main(["curve", "--grid-n", "1", "--out", "x.csv"])
    assert code == 1
    code = main(["curve", "--grid-lo", "0", "--grid-kind", "log", "--out", "x.csv"])
    assert code == 1


def test_curve_json_format(tmp_path):
    out = tmp_path / "curve.json"
    code = main(
        ["curve", "--model", "sge", "--grid-lo", "1.2", "--grid-hi", "3", "--grid-n", "4", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["columns"] == ["e", "i_sge"]
    assert len(payload["rows"]) == 4


def test_curve_deterministic_bytes(tmp_path):
    args = ["curve", "--model", "both", "--grid-n", "50", "--out"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(cli.os, "replace", refuse)
    code = main(["curve", "--grid-n", "5", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_failed_later_rename_removes_earlier_files(tmp_path, monkeypatch, capsys):
    real_replace = cli.os.replace
    calls = []

    def fail_second(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(cli.os, "replace", fail_second)
    code = main(["profile", "--k-n", "5", "--out", str(tmp_path / "p.csv")])
    assert code == 2
    assert "disk full" in capsys.readouterr().err
    assert len(calls) == 2
    assert list(tmp_path.iterdir()) == []


def test_csv_round_trip_is_exact_for_emitted_format(tmp_path):
    out = tmp_path / "c.csv"
    main(["curve", "--model", "sge", "--grid-n", "40", "--out", str(out)])
    lines = read_lines(out)
    rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
    rewritten = lines[:1] + [",".join(format(v, ".12g") for v in row) for row in rows]
    assert "\n".join(rewritten) + "\n" == out.read_text(encoding="utf-8")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "zener", "grid_lo": 1.1, "grid_hi": 4.0, "grid_n": 7}))
    out = tmp_path / "from_config.csv"
    code = main(["curve", "--config", str(cfg), "--grid-n", "9", "--out", str(out)])
    assert code == 0
    assert len(read_lines(out)) == 10  # flag wins over config n=7


def test_fit_self_fit_via_csv(tmp_path, capsys):
    data = tmp_path / "target.csv"
    main(
        ["curve", "--model", "sge", "--c-tilde1", "1.5", "--c-v", "1.2", "--grid-lo", "1.3", "--grid-hi", "5", "--grid-n", "40", "--grid-kind", "linear", "--out", str(data)]
    )
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = main(
        ["fit", "--data", str(data), "--start-c-tilde1", "1.2", "--start-c-v", "1.0", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["residual_rms"] < 1e-10
    assert report["params"]["c_tilde1"] == pytest.approx(1.5, rel=1e-4)
    assert report["params"]["c_v"] == pytest.approx(1.2, rel=1e-4)
    assert json.loads(out.read_text()) == report


def test_fit_synthetic_zener_report(tmp_path, capsys):
    code = main(["fit", "--grid-n", "60"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert set(report["params"]) == {"c_tilde1", "c_v"}


def test_fit_malformed_csv_names_line(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    rows = ["e,i"] + [f"{1.0 + 0.1 * n},{0.5 * n}" for n in range(1, 6)] + ["2.2,oops", "2.4,1.0"]
    data.write_text("\n".join(rows) + "\n")
    code = main(["fit", "--data", str(data)])
    assert code == 1
    assert "line 7" in capsys.readouterr().err


def test_fit_non_finite_cell_is_usage_error(tmp_path, capsys):
    # nan, inf and an overflowing literal parse as floats; each is malformed data
    for n, row in enumerate(["1.5,nan", "1.5,inf", "1.5,1e999", "nan,0.3", "-inf,0.3"]):
        data = tmp_path / f"bad{n}.csv"
        data.write_text(f"e,i\n2.0,0.5\n{row}\n3.0,0.9\n")
        out = tmp_path / "report.json"
        code = main(["fit", "--data", str(data), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code == 1 and stdout == ""
        assert err == "error: line 3: non-finite cell\n"
        assert not out.exists()


def test_fit_empty_data_file(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("e,i\n")
    code = main(["fit", "--data", str(data)])
    assert code == 1
    assert "no data rows" in capsys.readouterr().err


def test_fit_jacobian_overflow_is_runtime_error(tmp_path, capsys):
    # at these fields the start current underflows to 0, so the start is
    # evaluable, and the Jacobian's cosh overflows
    data = tmp_path / "tiny.csv"
    data.write_text("e,i\n1e-6,1\n2e-6,2\n")
    code = main(["fit", "--data", str(data), "--out", str(tmp_path / "report.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # the message names the overflowing quantity and the field
    assert "Jacobian" in err and "1e-06" in err
    assert [p.name for p in tmp_path.iterdir()] == ["tiny.csv"]


def test_fit_negative_amplitude_is_runtime_error(tmp_path, capsys):
    # mostly negative currents fit a negative closed-form c_tilde1, which the model rejects
    data = tmp_path / "negative.csv"
    data.write_text("e,i\n2,-1\n3,-2\n")
    code = main(["fit", "--data", str(data), "--out", str(tmp_path / "report.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: fitted c_tilde1 = -0.88660957679 is not positive; the pair current needs c_tilde1 > 0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["negative.csv"]


def test_fit_infinite_amplitude_is_runtime_error(tmp_path, capsys):
    # currents of 1e300 fit a closed-form c_tilde1 that overflows when scaled back
    data = tmp_path / "huge.csv"
    data.write_text("".join(f"{e},1e300\n" for e in ("0.02", "0.0225", "0.025", "0.0275", "0.03")))
    code = main(["fit", "--data", str(data), "--free", "c_tilde1", "--out", str(tmp_path / "report.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: fitted c_tilde1 = inf is not finite; the pair current needs a finite c_tilde1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]
    # no command prints a JSON report with Infinity or NaN in it
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._json_text({"params": {"c_tilde1": value}})


def test_fit_empty_free_set_reports_an_unevaluable_start(tmp_path, capsys):
    # the pair current overflows at these fields; with no free parameter the
    # report is the start's residual, which does not exist
    data = tmp_path / "huge.csv"
    data.write_text("e,i\n1e6,1\n2e6,2\n")
    code = main(["fit", "--data", str(data), "--free", "", "--out", str(tmp_path / "report.json")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: model is not evaluable at the initial parameters\n"
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]


def test_unknown_free_names_read_the_same_in_the_library_and_the_cli(capsys):
    with pytest.raises(ValueError) as library:
        fitting.fit_sge_to_points(np.array([2.0, 3.0]), np.array([1.0, 2.0]), {"c_x", "c_v"}, transport.TransportParams())
    assert main(["fit", "--free", "c_x,c_v"]) == 1
    assert capsys.readouterr() == ("", f"error: {library.value}\n")
    assert str(library.value) == "cannot free ['c_x']; allowed: ['c_tilde1', 'c_v']"


def test_fit_stops_on_a_rank_deficient_problem(tmp_path, capsys):
    # one distinct field: c_tilde1 and c_v trade off along a flat valley whose
    # floor puts the model at the mean of the two currents
    data = tmp_path / "one_field.csv"
    data.write_text("e,i\n2.0,1\n2.0,3\n")
    code = main(["fit", "--data", str(data)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["converged"] is True
    assert report["residual_rms"] == 1.0
    assert report["iterations"] < 20


def test_fit_whose_cost_has_no_finite_minimum_reports_max_iter(tmp_path, capsys):
    # with c_tilde1 held, the cost on zero currents only falls as c_v grows
    data = tmp_path / "zeros.csv"
    data.write_text("2,0\n3,0\n")
    assert main(["fit", "--data", str(data), "--free", "c_v"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["converged"], report["iterations"]) == (False, 200)


def test_fit_grid_below_threshold_is_runtime_error(capsys):
    code = main(["fit", "--grid-lo", "0.5", "--grid-hi", "5", "--grid-n", "30"])
    assert code == 2
    assert "threshold" in capsys.readouterr().err


def test_fit_data_file_with_bom_and_leading_blank_line(tmp_path, capsys):
    rows = "2,1.1\n3,1.9\n4,2.6\n"
    reports = []
    for name, text in [("plain.csv", rows), ("bom.csv", "\ufeff" + rows), ("blank.csv", "\n\ne,i\n" + rows)]:
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["fit", "--data", str(tmp_path / name)]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["iterations"] > 0


def test_fit_data_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    data = tmp_path / "bad.csv"
    data.write_bytes(b"\xff\xfe1,2\n")
    out = tmp_path / "report.json"
    assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: cannot read data file: ") and err.count("\n") == 1
    assert not out.exists()


def test_config_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_bytes(b'\xff\xfe{"grid_n": 7}\n')
    out = tmp_path / "out.csv"
    assert main(["curve", "--config", str(cfg), "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: cannot read config file: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [("{not json", "config file is not valid JSON: "), ("[1, 2]", "config file must hold a JSON object")],
    ids=["not-json", "not-an-object"],
)
def test_config_file_that_is_not_a_json_object_is_usage_error(tmp_path, capsys, text, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(text)
    assert main(["curve", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_fit_data_row_with_non_positive_field_is_usage_error(tmp_path, capsys):
    for n, field in enumerate(["0", "-0.0", "-2.5"]):
        data = tmp_path / f"bad{n}.csv"
        data.write_text(f"e,i\n2.0,0.5\n{field},0.7\n")
        out = tmp_path / "report.json"
        assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", "error: line 3: field E must be positive\n")
        assert not out.exists()


def test_fit_data_row_with_one_column_is_usage_error(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("e,i\n2.0,0.5\n3.0\n")
    out = tmp_path / "report.json"
    assert main(["fit", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: line 3: expected two comma-separated columns\n")
    assert not out.exists()


def test_fit_data_whose_squared_residual_overflows_is_runtime_error(tmp_path, capsys):
    # with c_tilde1 held at 1e300, the start residual's sum of squares overflows
    data = tmp_path / "data.csv"
    data.write_text("2,1\n3,2\n")
    for free in ("c_v", ""):
        args = ["fit", "--data", str(data), "--free", free, "--start-c-tilde1", "1e300"]
        code = main(args + ["--out", str(tmp_path / "report.json")])
        assert code == 2
        assert capsys.readouterr() == ("", "error: sum of squared residuals overflows at the initial parameters\n")
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]
    # currents of 1e300 fit on the scaled problem, whose squares do not overflow
    data.write_text("2,1e300\n3,1e300\n")
    assert main(["fit", "--data", str(data)]) == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


def test_fit_data_with_currents_near_1e154_converges(tmp_path, capsys):
    # a sum of two squares of these currents overflows; the fit runs on the
    # currents scaled below 1 and reports the amplitude and rms scaled back
    reports = []
    for name, big in (("huge.csv", "1e154"), ("unit.csv", "1")):
        (tmp_path / name).write_text(f"1,{big}\n1.5,0\n")
        assert main(["fit", "--data", str(tmp_path / name)]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    huge, unit = reports
    assert huge["converged"] is True and huge["iterations"] > 0
    assert huge["params"]["c_v"] == pytest.approx(unit["params"]["c_v"], rel=1e-11)
    assert huge["params"]["c_tilde1"] == pytest.approx(1e154 * unit["params"]["c_tilde1"], rel=1e-11)
    assert huge["residual_rms"] == pytest.approx(1e154 * unit["residual_rms"], rel=1e-11)


def test_any_fit_data_file_runs_or_exits_cleanly(tmp_path, monkeypatch, capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # hypothesis caches source constants in a storage directory even without a database
    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    fields = st.one_of(st.floats(0.5, 20.0), st.floats(1.2, 6.0), st.floats(-5.0, 0.0), st.sampled_from([1e-6, 1e6]))
    currents = st.one_of(
        st.floats(0.0, 5.0), st.floats(-10.0, 10.0), st.floats(-1e300, 1e300), st.sampled_from([1e300, 1e154, 1e150])
    )
    rows = st.lists(st.tuples(fields, currents, st.booleans()), max_size=6)

    def run_fit(d, name, text):
        (d / name).write_text(text, encoding="utf-8")
        out = d / "report.json"
        code = main(["fit", "--data", str(d / name), "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RUNTIME)
        if code == cli.EXIT_OK:
            assert err == "" and out.read_text(encoding="utf-8") == stdout
            out.unlink()
        else:
            assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
            assert not out.exists()
        return code, stdout, err

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(rows=rows, header=st.booleans())
    def run(rows, header):
        # each row may be preceded by a blank line
        lines = ["e,i"] if header else []
        for e, i, blank in rows:
            lines += [""] * blank + [f"{e!r},{i!r}"]
        text = "\n".join(lines) + "\n"
        d = tmp_path / "case"
        d.mkdir(exist_ok=True)
        plain = run_fit(d, "plain.csv", text)
        assert run_fit(d, "bom.csv", "\ufeff" + text) == plain
        if any(not e > 0.0 for e, _, _ in rows):
            assert plain[0] == cli.EXIT_USAGE

    run()


def test_any_matrix_element_magnitudes_run_or_exit_cleanly(tmp_path, monkeypatch, capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    # log-uniform over the double range, subnormals included; few such draws
    # give a finite overlap, so the examples pin runs that write a table
    magnitudes = st.floats(-323.0, 308.0).map(lambda p: 10.0**p)
    # an occupation n1 in (0, 1], log-uniform down to the subnormals
    occupations = st.floats(-323.0, 0.0).map(lambda p: 10.0**p)
    defaults = dict(x_bar=1.0, n1=0.999, m_star=1.0, delta_s=1.0)

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @example(ends=(2.0, 12.0), **defaults, eps_plus=1e-3, over="l", grid_n=4)
    @example(ends=(0.2, 2.0), **{**defaults, "x_bar": 3.0}, eps_plus=0.5, over="e", grid_n=4)
    @example(ends=(2.0, 12.0), **defaults, eps_plus=1e6, over="l", grid_n=3)
    @example(ends=(2.0, 12.0), **{**defaults, "n1": 1e-3, "m_star": 1e-3}, eps_plus=1e-3, over="l", grid_n=2)
    @example(ends=(2.0, 12.0), **{**defaults, "x_bar": 1e-26, "m_star": 1e-311}, eps_plus=1e-3, over="l", grid_n=2)
    @given(
        ends=st.tuples(magnitudes, magnitudes),
        x_bar=magnitudes,
        n1=occupations,
        m_star=magnitudes,
        eps_plus=magnitudes,
        delta_s=magnitudes,
        over=st.sampled_from(["l", "e"]),
        grid_n=st.integers(2, 4),
    )
    def run(ends, x_bar, n1, m_star, eps_plus, delta_s, over, grid_n):
        lo, hi = sorted(ends)
        work = tmp_path / "work"
        work.mkdir(exist_ok=True)
        out = work / "m.csv"
        args = ["matrix-element", "--over", over, "--grid-lo", repr(lo), "--grid-hi", repr(hi)]
        args += ["--grid-n", str(grid_n), "--x-bar", repr(x_bar), "--eps-plus", repr(eps_plus)]
        args += ["--n1", repr(n1), "--m-star", repr(m_star)]
        if over == "e":
            args += ["--delta-s", repr(delta_s)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*args, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert caught == [], (args, [str(w.message) for w in caught])
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RUNTIME), args
        if code == cli.EXIT_OK:
            assert stdout == err == ""
            # t_analytic, t_simplified and t_oracle are the last three columns
            ts = [float(t) for line in read_lines(out)[1:] for t in line.split(",")[-3:]]
            assert all(sys.float_info.min <= t < math.inf for t in ts), (args, ts)
            out.unlink()
        else:
            assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1, (args, err)
            assert list(work.iterdir()) == []

    run()


@pytest.mark.parametrize(
    "args, message",
    [
        (["matrix-element", "--grid-lo", "1e-320", "--grid-n", "3"], "at L = 1e-320: alpha must be positive and finite"),
        (
            ["matrix-element", "--over", "e", "--delta-s", "1e-320", "--grid-n", "3"],
            "at E = 2.0: alpha must be positive and finite, got inf",
        ),
        (
            ["matrix-element", "--over", "e", "--delta-s", "1e308", "--grid-n", "3"],
            "at E = 2.0: separation L = 2 delta_s / (e_star E) is inf at E = 2.0, not a positive finite double",
        ),
        (
            ["matrix-element", "--over", "e", "--grid-lo", "1e299", "--grid-hi", "1e300", "--grid-n", "2"]
            + ["--delta-s", "1e-300"],
            "at E = 1e+299: separation L = 2 delta_s / (e_star E) is 0.0 at E = 1e+299, not a positive",
        ),
        (["matrix-element", "--eps-plus", "1e6", "--grid-n", "3"], "at L = 2.0: overlap |T| = 0 of the states"),
        (
            ["matrix-element", "--over", "e", "--grid-hi", "100", "--grid-n", "5"],
            "at E = 75.5: overlap |T| = 4.29e-320 of the states",
        ),
        (
            ["curve", "--grid-lo", "1e-3", "--grid-hi", "1e6"],
            "currents must be finite and non-negative; the first bad one is I = inf at E = 258261.876068",
        ),
        (["matrix-element", "--x-bar", "1e300"], "at L = 2.0: t_analytic = inf lies outside the normal double range"),
        (["matrix-element", "--x-bar", "1e-300"], "at L = 2.0: t_analytic = 0.0 lies outside the normal double range"),
        (
            ["matrix-element", "--x-bar", "1e-214", "--n1", "5e-227"],
            "at L = 2.0: t_analytic = nan lies outside the normal double range",
        ),
        (
            ["matrix-element", "--x-bar", "1e-26", "--m-star", "1e-311"],
            "at L = 2.0: t_analytic = nan lies outside the normal double range",
        ),
        (
            ["matrix-element", "--over", "e", "--x-bar", "1e300"],
            "at E = 2.0: t_analytic = inf lies outside the normal double range",
        ),
    ],
    ids=[
        "tiny-l",
        "tiny-delta-s",
        "huge-delta-s",
        "underflowing-separation",
        "far-final-state",
        "subnormal-overlap",
        "sge-overflow",
        "huge-x-bar",
        "tiny-x-bar",
        "tiny-n1",
        "tiny-m-star",
        "huge-x-bar-over-e",
    ],
)
@pytest.mark.filterwarnings("error")
def test_domain_edge_is_runtime_error(tmp_path, capsys, args, message):
    code = main([*args, "--out", str(tmp_path / "out.csv")])
    assert code == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_any_profile_runs_or_exits_cleanly(tmp_path, monkeypatch, capsys):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    monkeypatch.setenv("HYPOTHESIS_STORAGE_DIRECTORY", str(tmp_path))
    # log-uniform over the double range, subnormals included, and either sign
    magnitudes = st.floats(-323.0, 308.0).map(lambda p: 10.0**p)
    signed = st.tuples(st.booleans(), magnitudes).map(lambda t: -t[1] if t[0] else t[1])
    k_grids = st.none() | st.tuples(signed, signed, st.integers(2, 4)).map(lambda t: (*sorted(t[:2]), t[2]))

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @example(ends=(-5.0, 5.0), steepness=1.0, half_width=15.0, n=9, k_grid=(0.01, 20.0, 3))
    @example(ends=(0.0, 1e200), steepness=1e200, half_width=15.0, n=9, k_grid=None)
    @example(ends=(0.0, 1e-300), steepness=1.0, half_width=1e-300, n=9, k_grid=None)
    @example(ends=(-1e308, 1e308), steepness=1.0, half_width=15.0, n=9, k_grid=None)
    @example(ends=(-5.0, 5.0), steepness=1.0, half_width=15.0, n=9, k_grid=(-1e308, 1e308, 3))
    @given(
        ends=st.tuples(signed, signed),
        steepness=magnitudes,
        half_width=magnitudes,
        n=st.integers(2, 40),
        k_grid=k_grids,
    )
    def run(ends, steepness, half_width, n, k_grid):
        x_a, x_b = sorted(ends)
        work = tmp_path / "work"
        work.mkdir(exist_ok=True)
        out = work / "p.csv"
        # the = form keeps a negative value from reading as a flag
        args = ["profile", f"--x-a={x_a!r}", f"--x-b={x_b!r}", f"--steepness={steepness!r}"]
        args += [f"--half-width={half_width!r}", f"--n={n}"]
        if k_grid is not None:
            args += [f"--k-lo={k_grid[0]!r}", f"--k-hi={k_grid[1]!r}", f"--k-n={k_grid[2]}"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*args, "--out", str(out)])
        stdout, err = capsys.readouterr()
        assert caught == [], (args, [str(w.message) for w in caught])
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_RUNTIME), args
        if code == cli.EXIT_OK:
            assert stdout == err == ""
            written = {"p.csv", "p.meta.json"} | ({"p.kspace.csv"} if k_grid else set())
            assert {f.name for f in work.iterdir()} == written
            assert len(read_lines(out)) == n + 1
            for f in work.iterdir():
                f.unlink()
        else:
            assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1, (args, err)
            assert list(work.iterdir()) == []

    run()


def test_profile_sidecar_charge(tmp_path):
    out = tmp_path / "prof.csv"
    code = main(["profile", "--x-a", "-5", "--x-b", "5", "--steepness", "1", "--out", str(out)])
    assert code == 0
    sidecar = json.loads((tmp_path / "prof.meta.json").read_text())
    assert abs(sidecar["topological_charge"]) <= 1e-12
    assert sidecar["pair"]["l"] == 10.0
    lines = read_lines(out)
    assert lines[0] == "x,phi"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["prof.csv", "prof.meta.json"]


def test_profile_kspace_zero_at_harmonic(tmp_path):
    out = tmp_path / "prof.csv"
    # L = 2: the harmonic k = pi lands on row 1 of a [pi, 2 pi] 2-point grid
    code = main(
        ["profile", "--x-a", "-1", "--x-b", "1", "--k-lo", str(math.pi), "--k-hi", str(2 * math.pi), "--k-n", "2", "--out", str(out)]
    )
    assert code == 0
    klines = read_lines(tmp_path / "prof.kspace.csv")
    assert klines[0] == "k,phi_k"
    k0, amp0 = (float(c) for c in klines[1].split(","))
    assert k0 == pytest.approx(math.pi)
    assert abs(amp0) <= 1e-15


def test_profile_bad_k_grid_writes_nothing(tmp_path, capsys):
    code = main(["profile", "--k-n", "1", "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert "k grid" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_profile_k_grid_whose_phase_overflows_is_runtime_error(tmp_path, capsys):
    # k L/2 overflows from the middle of the k grid on, where sin has no value
    args = ["profile", "--x-a", "0", "--x-b", "1e10", "--k-n", "3", "--k-hi", "1e300", "--out", str(tmp_path / "p.csv")]
    assert main(args) == 2
    assert capsys.readouterr() == (
        "", "error: box amplitude sin(k L/2)/k is undefined at k = 5e+299, L = 10000000000.0, where k L/2 = inf\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("literal", ["-1e1", "-1E+2", "-2.5e-3"])
def test_negative_float_literal_parses_as_its_equals_form(literal):
    # argparse takes "-1e1" after a flag for the value, as it does "-10"
    parser = cli.build_parser()
    for command, (_, _, opts) in cli.COMMANDS.items():
        for opt in opts:
            if opt.kind is float:
                flag = "--" + opt.name.replace("_", "-")
                spaced = parser.parse_args([command, flag, literal])
                assert spaced == parser.parse_args([command, f"{flag}={literal}"])
                assert getattr(spaced, opt.name) == float(literal)


def test_negative_float_literal_runs_as_its_equals_form(tmp_path):
    outputs = []
    for args in (["--x-a", "-1e1"], ["--x-a=-1e1"]):
        d = tmp_path / str(len(outputs))
        d.mkdir()
        assert main(["profile", *args, "--x-b", "5", "--k-n", "4", "--out", str(d / "p.csv")]) == 0
        outputs.append({p.name: p.read_bytes() for p in d.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command, config, field",
    [
        ("fit", {"grid_n": "abc"}, "grid_n"),
        ("profile", {"n": "x"}, "n"),
        ("curve", {"grid_n": 2.7}, "grid_n"),
        ("curve", {"e_t": "1"}, "e_t"),
        ("matrix-element", {"x_bar": True}, "x_bar"),
        ("curve", {"out": 5}, "out"),
        ("fit", {"data": 5}, "data"),
        ("fit", {"free": ["c_v"]}, "free"),
        ("matrix-element", {"grid_hi": float("nan")}, "grid_hi"),
        ("fit", {"e_t": float("inf")}, "e_t"),
    ],
)
def test_non_numeric_config_is_usage_error(tmp_path, capsys, command, config, field):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    out = [] if "out" in config else ["--out", str(tmp_path / "out.csv")]
    code = main([command, "--config", str(cfg), *out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["profile", "--n", "1"], "need at least 2 samples"),
        (["profile", "--half-width", "0"], "half_width must be positive"),
        (["fit", "--start-c-v", "0"], "c_v must be positive"),
        (["matrix-element", "--m-star", "0"], "m_star must be positive"),
        (["matrix-element", "--grid-hi", "inf"], "argument --grid-hi: must be a finite number"),
        (["matrix-element", "--eps-plus", "inf"], "argument --eps-plus: must be a finite number"),
        (["profile", "--half-width", "inf"], "argument --half-width: must be a finite number"),
        (["curve", "--e-t", "nan"], "argument --e-t: must be a finite number"),
        (["matrix-element", "--over", "e", "--delta-s", "0"], "delta_s must be positive"),
        (["matrix-element", "--eps-plus", "0"], "eps_plus must be positive"),
        (["matrix-element", "--eps-plus", "-6.283185307179586"], "eps_plus must be positive"),
        (["matrix-element", "--over", "e", "--eps-plus", "-7"], "eps_plus must be positive"),
        (["profile", "--x-a=-1e308", "--x-b=1e308"], "profile window [-1e+308, 1e+308] leaves the double range"),
        (["profile", "--k-n", "3", "--k-lo=-1e308", "--k-hi=1e308"], "k grid span hi - lo overflows"),
        (["curve", "--grid-lo=-1e308", "--grid-hi=1e308", "--grid-kind", "linear"], "grid span hi - lo overflows"),
    ],
    ids=[
        "profile-n",
        "profile-half-width",
        "fit-start-c-v",
        "matrix-element-m-star",
        "matrix-element-grid-hi-inf",
        "matrix-element-eps-plus-inf",
        "profile-half-width-inf",
        "curve-e-t-nan",
        "matrix-element-over-e-delta-s",
        "matrix-element-eps-plus-zero",
        "matrix-element-eps-plus-coincident-centres",
        "matrix-element-eps-plus-below-initial",
        "profile-window-overflows",
        "profile-k-span-overflows",
        "curve-grid-span-overflows",
    ],
)
@pytest.mark.filterwarnings("error")
def test_out_of_range_option_is_usage_error(tmp_path, capsys, args, message):
    code = main([*args, "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, value, message",
    [(name, value, f"{name} must be positive and finite") for name in ("x_bar", "n1", "m_star") for value in (0.0, -1.0)]
    + [("n1", 1.5, "n1 must lie in (0, 1]")],
)
@pytest.mark.parametrize("via", ["flag", "config"])
def test_matrix_element_inputs_checks_are_usage_errors(tmp_path, capsys, name, value, message, via):
    # finite values pass the option typing and reach MatrixElementInputs, whose message the user sees
    if via == "flag":
        args = [f"--{name.replace('_', '-')}={value!r}"]
    else:
        (tmp_path / "run.json").write_text(json.dumps({name: value}))
        args = ["--config", str(tmp_path / "run.json")]
    code = main(["matrix-element", *args, "--out", str(tmp_path / "out.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


# every float option takes nan, and every option with choices takes "zz", as a
# flag word and as a config entry (JSON NaN for nan)
# an integer beyond the double range: float() reads its text as inf but
# raises OverflowError on the JSON integer
HUGE_INT = "1" + "0" * 400
BAD_VALUES = [
    (command, opt, bad)
    for command, (_, _, opts) in cli.COMMANDS.items()
    for opt in opts
    for bad in (["nan", HUGE_INT] if opt.kind is float else []) + (["zz"] if opt.choices else [])
]


@pytest.mark.parametrize(
    "command, opt, bad",
    BAD_VALUES,
    ids=[f"{c}-{o.name}-{'1e400' if b == HUGE_INT else b}" for c, o, b in BAD_VALUES],
)
def test_flag_and_config_entry_get_the_same_reason(tmp_path, capsys, command, opt, bad):
    flag = "--" + opt.name.replace("_", "-")
    out = [] if command == "verify" else ["--out", str(tmp_path / "out.csv")]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({opt.name: {"nan": math.nan, HUGE_INT: int(HUGE_INT)}.get(bad, bad)}))
    reasons = []
    for args, prefix in (([flag, bad], f"error: argument {flag}: "), (["--config", str(cfg)], f"error: {opt.name} ")):
        assert main([command, *args, *out]) == 1
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith(prefix) and err.count("\n") == 1
        reasons.append(err[len(prefix) :])
    assert reasons[0] == reasons[1]
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_help_lists_every_choice(capsys, command):
    with pytest.raises(SystemExit) as exit:
        main([command, "--help"])
    assert exit.value.code == 0
    text = capsys.readouterr().out
    for opt in cli.COMMANDS[command][2]:
        if opt.choices:
            assert f"--{opt.name.replace('_', '-')} {{{','.join(opt.choices)}}}" in text


@pytest.mark.parametrize(
    "args",
    [["curve", "--grid-n"], ["fit", "--grid-n"], ["profile", "--n"], ["profile", "--k-n"], ["matrix-element", "--grid-n"]],
    ids=" ".join,
)
def test_grid_too_large_to_allocate_is_runtime_error(tmp_path, capsys, args):
    # 1e17 doubles are 711 PiB, more than any address space: numpy refuses the
    # size at once, without allocating anything (a MemoryError); 2**62 and
    # 1e30 fail its size checks with a ValueError instead
    for count in (10**17, 2**62, 10**30, 2**63 - 1):
        code = main([*args, str(count), "--out", str(tmp_path / "out.csv")])
        stdout, err = capsys.readouterr()
        assert code == 2 and stdout == "", count
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args, flag, message",
    [
        (["curve", "--grid-kind", "linear"], "--grid-n", "Maximum allowed size exceeded"),
        (["fit"], "--grid-n", "Maximum allowed size exceeded"),
        (["matrix-element"], "--grid-n", "Maximum allowed size exceeded"),
        (["profile"], "--n", f"cannot allocate {10**400} profile samples"),
        (["profile"], "--k-n", "Maximum allowed size exceeded"),
    ],
    ids=["curve-grid-n", "fit-grid-n", "matrix-element-grid-n", "profile-n", "profile-k-n"],
)
def test_count_beyond_the_double_range_fails_like_any_oversized_count(tmp_path, capsys, args, flag, message):
    # an int option is never checked for finiteness, so a count past the
    # double range reaches numpy's size checks, as a flag and as a config entry
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({flag[2:].replace("-", "_"): 10**400}))
    out = ["--out", str(tmp_path / "out.csv")]
    for given in ([flag, str(10**400)], ["--config", str(cfg)]):
        code = main([*args, *given, *out])
        stdout, err = capsys.readouterr()
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize("config", [{"check": [["x"]]}, {"check": {"a": 1}}, {"tol": 5}])
def test_wrong_typed_verify_config_is_usage_error(tmp_path, capsys, config):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code = main(["verify", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {next(iter(config))} must be") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["curve", "profile", "matrix-element"])
def test_null_config_values_mean_unset(tmp_path, command):
    outputs = []
    for config in ({}, {opt.name: None for opt in cli.COMMANDS[command][2]}):
        d = tmp_path / str(len(outputs))
        d.mkdir()
        (d / "run.json").write_text(json.dumps(config))
        assert main([command, "--config", str(d / "run.json"), "--out", str(d / "out.csv")]) == 0
        outputs.append({p.name: p.read_bytes() for p in d.iterdir() if p.name != "run.json"})
    assert outputs[0] == outputs[1]


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gridn": 7, "model": "sge"}))
    code = main(["curve", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown config key(s) ['gridn']") and "grid_n" in err
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


# Grid ends inside each subcommand's default window; any other float option is
# scaled by 0.8.  profile runs with a k grid, matrix-element over fields and
# fit with c_v alone free (a free c_tilde1 is solved in closed form at each
# c_v, so its start value cannot reach the output), so that every float
# option has an output to reach.
GRID_ENDS = {"curve": (1.1, 9.0), "fit": (1.3, 4.5), "matrix-element": (2.5, 11.0)}
BASE_ARGS = {"curve": [], "fit": ["--free", "c_v"], "profile": ["--k-n", "5"], "matrix-element": ["--over", "e"]}


@pytest.mark.parametrize(
    "command, opt",
    [(command, opt) for command, (_, _, opts) in cli.COMMANDS.items() for opt in opts if opt.kind is float],
    ids=lambda v: getattr(v, "name", v),
)
def test_every_float_option_changes_the_output(tmp_path, capsys, command, opt):
    if opt.name in ("grid_lo", "grid_hi"):
        value = GRID_ENDS[command][opt.name == "grid_hi"]
    else:
        value = 0.8 * opt.default
    outputs = []
    for extra in ([], ["--" + opt.name.replace("_", "-"), repr(value)]):
        d = tmp_path / str(len(outputs))
        d.mkdir()
        assert main([command, *BASE_ARGS[command], *extra, "--out", str(d / "out.csv")]) == 0
        outputs.append((capsys.readouterr().out, {p.name: p.read_bytes() for p in d.iterdir()}))
    assert outputs[0] != outputs[1]


# TransportParams fields that a subcommand's output does not read, so it does not take them
NOT_TAKEN = {
    "curve": ["delta_s", "e_star"],
    "fit": ["c_v", "c_tilde1", "delta_s", "e_star"],
    "matrix-element": ["e_t", "c_v", "c_tilde1", "g_p"],
}


@pytest.mark.parametrize("command, name", [(c, n) for c, names in NOT_TAKEN.items() for n in names])
def test_transport_field_not_taken_is_usage_error(tmp_path, capsys, command, name):
    flag = "--" + name.replace("_", "-")
    assert main([command, flag, "1", "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unrecognized arguments: {flag} 1") and err.count("\n") == 1
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({name: 1.0}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown config key(s) ['{name}']") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def test_profile_minimal_grid(tmp_path):
    out = tmp_path / "two.csv"
    code = main(["profile", "--n", "2", "--out", str(out)])
    assert code == 0
    assert len(read_lines(out)) == 3


def test_matrix_element_table(tmp_path):
    out = tmp_path / "me.csv"
    code = main(
        ["matrix-element", "--over", "l", "--grid-lo", "3", "--grid-hi", "9", "--grid-n", "4", "--grid-kind", "linear", "--out", str(out)]
    )
    assert code == 0
    lines = read_lines(out)
    assert lines[0] == "l,t_analytic,t_simplified,t_oracle"
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        assert cells[1] > 0.0 and cells[2] > 0.0 and cells[3] > 0.0


def test_matrix_element_quadrature_failure_names_the_row(tmp_path, capsys, monkeypatch):
    # the oracle's integrand turns non-finite on pair 2 alone, the third row of
    # the L grid 2, 4.5, 7, 9.5, 12; the engine carries the member, the CLI names its row
    engine = tunneling.integrate_family
    monkeypatch.setattr(
        tunneling, "integrate_family", lambda f, *a: engine(lambda x, i: np.where(i == 2, np.nan, f(x, i)), *a)
    )
    code = main(["matrix-element", "--grid-n", "5", "--out", str(tmp_path / "m.csv")])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: at L = 7.0: integrand returned nan at x = ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_matrix_element_over_l_ignores_transport_options(tmp_path):
    # delta_s and e_star map fields to separations; an L grid never reads them
    default, given = tmp_path / "default.csv", tmp_path / "given.csv"
    assert main(["matrix-element", "--out", str(default)]) == 0
    assert main(["matrix-element", "--delta-s", "0", "--e-star", "-1", "--out", str(given)]) == 0
    assert given.read_bytes() == default.read_bytes()


def test_matrix_element_over_field_grid(tmp_path):
    out = tmp_path / "me_e.csv"
    code = main(
        ["matrix-element", "--over", "e", "--grid-lo", "0.5", "--grid-hi", "2", "--grid-n", "4", "--grid-kind", "linear", "--delta-s", "2", "--out", str(out)]
    )
    assert code == 0
    lines = read_lines(out)
    e0, l0 = (float(c) for c in lines[1].split(",")[:2])
    assert l0 == pytest.approx(2.0 * 2.0 / e0)


# sha256 of the stdout and of every file each command writes at its defaults.
# A change that alters a printed value on purpose updates the digest here and
# names the field in CHANGES.md.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
OUTPUT_DIGESTS = {
    ("curve",): {"stdout": EMPTY, "out.csv": "aeffeee1a51a9fc4f6e5cf67be4e7a2fa97ca666384d840932df9d463bfb0711"},
    ("fit",): {
        "stdout": "b18c84a329035af595a4de9e7f81f71a39656da9c3fee74e17cae89af549847f",
        "out.csv": "b18c84a329035af595a4de9e7f81f71a39656da9c3fee74e17cae89af549847f",
    },
    ("profile", "--k-n", "50"): {
        "stdout": EMPTY,
        "out.csv": "5a3bccbec9c4df656e2b40050be444120fb251a004363dd1145f4accd8e68fb9",
        "out.kspace.csv": "99cb00f33ba4acf4e7e9834d0fb85987100d65e05d04c2e1483a630c2f34d918",
        "out.meta.json": "4721ae9d80c58def2e3d7f8dbcfeb6b3ec5c7c05ccfccd8850b61695ca3f5f1a",
    },
    ("matrix-element",): {"stdout": EMPTY, "out.csv": "90ee6f78f413f67e18c142e62a392d3ceb6541f9cc0e3777e7bb2ba93a9e5d76"},
    ("matrix-element", "--over", "e"): {
        "stdout": EMPTY,
        "out.csv": "955a29bcee4196470ac1516d86ddac5d39d5afaafe83b234664396db12b132c9",
    },
    # verify writes no file; it takes no --out
    ("verify",): {"stdout": "bf3acab168fc9229c2a81a0d029f5a197449863fb3f1ca36dd432c20c8afd353"},
}


@pytest.mark.parametrize("args", OUTPUT_DIGESTS, ids=" ".join)
def test_default_outputs_keep_their_recorded_bytes(tmp_path, capsys, args):
    code = main([*args] if args == ("verify",) else [*args, "--out", str(tmp_path / "out.csv")])
    stdout, err = capsys.readouterr()
    assert (code, err) == (0, "")
    digests = {"stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    digests |= {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.iterdir()}
    assert digests == OUTPUT_DIGESTS[args]


def test_verify_default_all_pass(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 11


def test_verify_tolerance_override_forces_fail(capsys):
    code = main(["verify", "--check", "thin-wall-ft", "--tol", "thin-wall-ft=1e-30"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL thin-wall-ft" in out


@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_verify_non_finite_or_negative_tolerance_is_usage_error(capsys, value):
    code = main(["verify", "--check", "ratio-18-19", "--tol", f"ratio-18-19={value}"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: tolerance for 'ratio-18-19' must be finite") and err.count("\n") == 1


def test_verify_zero_tolerance_is_valid(capsys):
    code = main(["verify", "--check", "ratio-18-19", "--tol", "ratio-18-19=0"])
    assert code == 3
    assert capsys.readouterr().out.startswith("FAIL ratio-18-19 ")


def test_verify_config_tol_may_be_one_string(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"check": "normalization", "tol": "normalization=1"}))
    code = main(["verify", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("PASS normalization") and " tol=1.000e+00 " in out


def test_verify_unknown_check_lists_names(capsys):
    code = main(["verify", "--check", "nonsense"])
    err = capsys.readouterr().err
    assert code == 1
    assert "thin-wall-ft" in err and "bogomolnyi-sweep" in err


def test_verify_tolerance_for_an_unknown_check_lists_names(capsys):
    code = main(["verify", "--tol", "nonsense=1"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: unknown check 'nonsense' in --tol; valid names: ") and "thin-wall-ft" in err


def test_verify_single_check(capsys):
    code = main(["verify", "--check", "ratio-18-19"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_console_entry_point_runs():
    # the subprocess imports the same sources as this process, installed or not
    src = str(Path(cdwtunnel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "cdwtunnel.cli", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert f"cdwtunnel {cdwtunnel.__version__}" in proc.stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only oracle; importing it at run time would add to every
    # command's start-up time and memory
    src = str(Path(cdwtunnel.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, cdwtunnel.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
