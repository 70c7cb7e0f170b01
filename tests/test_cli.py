"""End-to-end command-line behavior: shapes, exit codes, file formats."""

import csv
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tubeke
from tubeke import axis_sweep
from tubeke.cli import _MAX_SWEEP_ROWS, SWEEP_COLUMNS, _build_parser, main
from tubeke.curvature import _frame


@pytest.fixture(scope="module")
def sol_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sol_p2.json"
    assert main(["solve", "--p", "2", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def sol1_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "sol_p1.json"
    assert main(["solve", "--p", "1", "--out", str(path)]) == 0
    return path


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_reports_center_value(tmp_path, capsys):
    path = tmp_path / "s.json"
    code, out = run_json(capsys, ["solve", "--p", "1", "--out", str(path)])
    assert code == 0
    assert abs(out["F0"] - math.log(2.0) / 3.0) < 1e-9
    assert path.exists()
    # the file holds the record that stdout prints, without "out"
    assert json.loads(path.read_text()) == {k: v for k, v in out.items() if k != "out"}


def test_solve_has_no_accuracy_options(tmp_path, capsys):
    # every solve runs at the one accuracy; the old knobs are usage errors
    for option in (["--tol", "1e-8"], ["--f-max", "1e3"]):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--p", "1", *option, "--out", str(tmp_path / "s.json")])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_solve_refuses_a_blowup_cap_too_low(tmp_path, capsys, monkeypatch):
    # a profile the validator refuses is not written, and the verb exits 2
    monkeypatch.setattr(tubeke.potential_solver, "_U_CAP", 1e3)
    assert main(["solve", "--p", "2", "--out", str(tmp_path / "s.json")]) == 2
    assert "blow-up estimate error" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_readme_command_lines_parse():
    # every tubeke line in README's code blocks parses (nothing runs), so
    # a deleted option cannot linger in the docs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"^```.*?\n(.*?)^```", readme, re.S | re.M)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("tubeke ")]
    parser = _build_parser()
    verbs = set()
    for line in lines:
        try:
            args = parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
        verbs.add(args.command)
    assert verbs == {"solve", "eval", "metric", "curvature", "sweep", "verify"}


def test_a_file_at_another_tolerance_is_refused(tmp_path, sol_file, capsys):
    data = json.loads(sol_file.read_text())
    data["tolerance"] = 1e-8
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(data))
    assert main(["eval", "--sol", str(path), "--x", "0.5"]) == 2
    assert "differs from the solve for p = 2 at 'tolerance'" in capsys.readouterr().err


def test_eval_basic_and_derivs(sol1_file, capsys):
    code, out = run_json(capsys, ["eval", "--sol", str(sol1_file), "--x", "0.5"])
    assert code == 0
    assert set(out) == {"x", "F", "f"}
    assert abs(out["f"] - 4.0 / 3.0) < 1e-9   # p=1 closed form 2x/(1-x^2)
    code, out = run_json(capsys, ["eval", "--sol", str(sol1_file), "--x", "0.5",
                                  "--derivs"])
    assert code == 0
    assert set(out) == {"x", "F", "f", "f1", "f2", "f3", "Z"}
    assert abs(out["f1"] - 40.0 / 9.0) < 1e-8          # 2(1+x^2)/(1-x^2)^2
    assert abs(out["Z"] - 2.0 / 0.75**3) < 1e-8        # 2/(1-x^2)^3


def test_metric_json_shape(sol_file, capsys):
    code, out = run_json(capsys, ["metric", "--sol", str(sol_file),
                                  "--point", "0,0,0,0"])
    assert code == 0
    assert set(out) == {"point", "X", "g", "det", "d3", "d4"}
    assert out["point"] == [0.0, 0.0, 0.0, 0.0]
    assert out["X"] == 0.0
    g = out["g"]
    assert abs(g[0][0] - 8 * 5.0 / 3.0) < 1e-9   # 4pK for p=2
    assert g[0][1] == g[1][0] == 0.0
    assert set(out["d3"]) == {"111", "112", "121", "122", "211", "212", "221", "222"}
    assert len(out["d4"]) == 16
    assert abs(out["det"] - g[0][0] * g[1][1]) < 1e-12


def test_metric_json_lists_every_index_word_in_order(sol_file, capsys):
    # d3 and d4 hold the 8 and 16 index words in lexicographic order, each
    # the value of its count class (the number of 1s), as the jet has it
    z = tubeke.Point(complex(0.02, -0.4), complex(0.45, 0.8))
    code, out = run_json(capsys, ["metric", "--sol", str(sol_file),
                                  "--point=" + ",".join(map(repr, z.as_reals()))])
    assert code == 0
    jet = tubeke.metric_jet(tubeke.load_solution(sol_file), z)
    assert list(out) == ["point", "X", "g", "det", "d3", "d4"]
    assert out["g"] == [[jet.g[0], jet.g[1]], [jet.g[1], jet.g[2]]] and out["det"] == jet.det
    for n, classes in ((3, jet.d3), (4, jet.d4)):
        words = ["".join(w) for w in itertools.product("12", repeat=n)]
        assert list(out[f"d{n}"]) == words
        assert len(set(classes)) == n + 1
        for word, value in out[f"d{n}"].items():
            assert value == classes[word.count("1")], word


def test_curvature_pair_mode(sol_file, capsys):
    code, out = run_json(capsys, [
        "curvature", "--sol", str(sol_file), "--point", "0,0,0,0",
        "--v", "1,0,0,0", "--w", "1,0,0,0"])
    assert code == 0
    assert set(out) == {"point", "X", "tensor", "bis"}
    assert abs(out["bis"] + 2.4) < 1e-9            # p=2 center minimum
    assert abs(out["tensor"]["R1111"] + 32 * 8 * 5 / 3) < 1e-5


def test_curvature_pair_mode_takes_a_subnormal_vector(sol_file, capsys):
    # 1e-320 is subnormal and 2^1074 times it an exact integer: one direction
    tiny = 1e-320
    runs = [run_json(capsys, ["curvature", "--sol", str(sol_file), "--point=0,0,0.5,0",
                              f"--v={v!r},0,0,0", "--w=1,0,0,0"])
            for v in (tiny, math.ldexp(tiny, 1074))]
    assert [code for code, _ in runs] == [0, 0]
    assert runs[0][1]["bis"] == runs[1][1]["bis"]


def test_curvature_pair_mode_takes_a_vector_whose_modulus_overflows(sol_file, capsys):
    # |1.7e308 (1 + i)| is inf although both parts are finite: the value is
    # its 2^-1000 scaling's, printed as strict JSON
    runs = [run_json(capsys, ["curvature", "--sol", str(sol_file), "--point=0.01,0.2,0.5,-0.1",
                              f"--v={re1!r},{re1!r},0,0", "--w=0.3,0,0,1"])
            for re1 in (1.7e308, 1.7e308 / 2.0 ** 1000)]
    assert [code for code, _ in runs] == [0, 0]
    assert math.isfinite(runs[0][1]["bis"]) and runs[0][1]["bis"] == runs[1][1]["bis"]


def test_no_verb_prints_a_non_finite_value(sol_file, capsys, monkeypatch):
    # stdout is strict JSON: a NaN or inf result exits 2 with one line on
    # stderr instead of printing NaN with exit 0
    monkeypatch.setattr(tubeke.curvature, "bisectional", lambda *args, **kwargs: math.nan)
    code = main(["curvature", "--sol", str(sol_file), "--point=0,0,0,0",
                 "--v=1,0,0,0", "--w=1,0,0,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and "not JSON compliant" in captured.err


def test_curvature_extremes_mode(sol1_file, capsys):
    code, out = run_json(capsys, [
        "curvature", "--sol", str(sol1_file), "--point", "0,0,0,0",
        "--extremes"])
    assert code == 0
    ext = out["extremes"]
    assert abs(ext["min"] + 2.0) < 1e-6
    assert abs(ext["max"] + 1.0) < 1e-6
    assert len(ext["argmin"]["v"]) == 4 and len(ext["argmax"]["w"]) == 4


def test_extremes_answer_beyond_the_jet_paths_range(sol1_file, capsys):
    # p=1 at 1 - x = 1e-5, where the jet path's Einstein defect reads 1.3:
    # the closed forms give the ball's (-2, -1, -2) at the axis point and at
    # its translate off the axis alike
    found = []
    for point in ("--point=0,0,0.99999,0", "--point=0,0.25,0.99999,0.5"):
        assert main(["curvature", "--sol", str(sol1_file), point, "--extremes"]) == 0
        found.append(json.loads(capsys.readouterr().out)["extremes"])
        ext = found[-1]
        assert max(abs(ext["min"] + 2.0), abs(ext["max"] + 1.0),
                   abs(ext["sect_max"] + 2.0)) <= 1e-8
    assert [(e["min"], e["max"], e["sect_max"]) for e in found[:1]] == [
        (e["min"], e["max"], e["sect_max"]) for e in found[1:]]


def test_a_pair_beyond_the_jet_paths_range_answers(sol1_file, capsys):
    # p=1 at 1 - x = 1e-5, along the frame vector e1 = (alpha, beta): the
    # closed forms give the ball's -2, where the jet path's split would
    # print 3.0126
    jet = tubeke.metric_jet(tubeke.load_solution(sol1_file), tubeke.Point(0j, 0.99999 + 0j))
    alpha, beta, _ = _frame(jet)
    e1 = f"{alpha!r},0,{beta!r},0"
    for stats in ([], ["--stats"]):
        code = main(["curvature", "--sol", str(sol1_file), "--point=0,0,0.99999,0",
                     f"--v={e1}", f"--w={e1}", *stats])
        captured = capsys.readouterr()
        assert code == 0
        assert abs(json.loads(captured.out)["bis"] + 2.0) <= 1e-8
        if stats:
            assert json.loads(captured.err)["einstein_defect"] <= 1e-14


def test_axis_sweep_makes_one_split_per_call(sol_p2, kernel_calls):
    # the split is the closed forms' one evaluation on the stacked axis points
    axis_sweep(sol_p2, n=10)
    assert len(kernel_calls) == 1
    axis_sweep(sol_p2, n=500)
    assert len(kernel_calls) == 2


def test_curvature_requires_a_mode(sol_file, capsys):
    code = main(["curvature", "--sol", str(sol_file), "--point", "0,0,0,0"])
    assert code == 2
    assert "extremes" in capsys.readouterr().err


def test_curvature_refuses_half_a_pair(sol_file, capsys):
    for half in (["--v", "1,0,0,0"], ["--w", "0,0,1,0"]):
        for extremes in ([], ["--extremes"]):
            code = main(["curvature", "--sol", str(sol_file), "--point", "0,0,0,0",
                         *half, *extremes])
            assert code == 2
            assert "provide both --v and --w" in capsys.readouterr().err


@pytest.mark.parametrize("re1", ["-1e300", "-inf"])
def test_points_too_deep_for_the_jet_exit_two(sol_file, capsys, re1):
    for argv in (["metric"], ["curvature", "--extremes"]):
        code = main([*argv, "--sol", str(sol_file), f"--point={re1},0,0,0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        # Re z1 = -inf is no point of T_p; -1e300 is one, too deep for the jet
        reason = "must be finite" if re1 == "-inf" else "too deep"
        assert captured.err.startswith("error: point ") and reason in captured.err


def test_a_point_whose_power_overflows_exits_two(sol_file, capsys):
    # Re(z2)^4 = 1e1200 passes the double range: the point is outside T_2
    for argv in (["metric"], ["curvature", "--extremes"]):
        code = main([*argv, "--sol", str(sol_file), "--point=0,0,1e300,0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: point ") and "is not in T_2" in captured.err


def test_sweep_csv_format(sol_file, tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    code = main(["sweep", "--sol", str(sol_file), "--x-min", "0",
                 "--x-max", "0.9", "--n", "7", "--out", str(out_csv)])
    assert code == 0
    text = out_csv.read_text()
    assert text.splitlines()[0] == "x,F,f,f1,f2,f3,Z,det_g,bis_min,bis_max,sect_max"
    with open(out_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    xs = [float(r["x"]) for r in rows]
    assert xs == sorted(xs) and len(set(xs)) == 7
    for row in rows:
        for key, text_val in row.items():
            val = float(text_val)
            assert math.isfinite(val), f"{key} not finite"
        assert float(row["bis_min"]) <= float(row["bis_max"]) < 0.0
    assert xs[0] == 0.0 and xs[-1] == 0.9


def test_axis_sweep_rows_match_cli(sol_p2, sol_file, tmp_path):
    out_csv = tmp_path / "rows.csv"
    main(["sweep", "--sol", str(sol_file), "--x-min", "0.1",
          "--x-max", "0.5", "--n", "3", "--out", str(out_csv)])
    rows = axis_sweep(sol_p2, x_min=0.1, x_max=0.5, n=3)
    with open(out_csv) as fh:
        csv_rows = list(csv.DictReader(fh))
    for row, csv_row in zip(rows, csv_rows):
        assert float(csv_row["F"]) == row.F
        assert float(csv_row["sect_max"]) == row.sect_max


def reference_row_at(sol, x, F, f, f1, f2, f3, Z):
    """One sweep row through the scalar chain, as the sweep ran it row by row."""
    jet = tubeke.metric_jet(sol, tubeke.Point(0j, complex(x)))
    tensor = tubeke.tensor_from_jet(jet)
    ext = tubeke.bis_extremes_from_jet(jet, tensor)
    sm, _ = tubeke.sectional_max_from_jet(jet, tensor)
    return tubeke.SweepRow(x=x, F=F, f=f, f1=f1, f2=f2, f3=f3, Z=Z, det_g=jet.det,
                           bis_min=ext.min, bis_max=ext.max, sect_max=sm)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_axis_sweep_equals_the_row_loop_bit_for_bit(p, five_sols):
    sol = five_sols[p]
    xs = np.linspace(0.0, 1.0 - 1e-4, 500)
    columns = [xs, sol.eval_F(xs), *sol.eval_f_derivs(xs, 3), sol.eval_Z(xs, 0)[0]]
    reference = [reference_row_at(sol, *values) for values in zip(*(c.tolist() for c in columns))]
    rows = axis_sweep(sol, 0.0, 1.0 - 1e-4, 500)
    # repr, as the CSV writes each value: equal bits, signed zeros included
    assert ([[repr(getattr(row, c)) for c in SWEEP_COLUMNS] for row in rows]
            == [[repr(getattr(row, c)) for c in SWEEP_COLUMNS] for row in reference])
    assert all(type(getattr(row, c)) is float for row in rows for c in SWEEP_COLUMNS)


def test_sweep_answers_up_to_the_grid_end(sol_p1, tmp_path, capsys):
    # p=1 from 1 - x = 1e-6 to the grid end, where the jet path's defect is
    # far above 1e-3: the closed forms give the ball's (-2, -1, -2)
    health = {}
    rows = axis_sweep(sol_p1, 1.0 - 1e-6, sol_p1.x_max, 50, health=health)
    assert health["einstein_defect"] <= 1e-14
    assert max(max(abs(r.bis_min + 2.0), abs(r.bis_max + 1.0), abs(r.sect_max + 2.0))
               for r in rows) <= 1e-8
    path = tmp_path / "p1.json"
    sol_p1.save(path)
    argv = ["sweep", "--sol", str(path), "--x-max", repr(1.0 - 1e-6), "--n", "50",
            "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote 50 rows to {tmp_path / 'rows.csv'}\n"
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 51


def test_a_sweep_above_the_row_cap_is_refused_before_anything_is_allocated(
        sol1_file, tmp_path, capsys, monkeypatch):
    # 1e11 rows would take about 745 GiB of arrays; the count is refused
    # before np.linspace runs, so nothing is allocated
    def no_grid(*args, **kwargs):
        raise AssertionError("the grid was allocated")
    monkeypatch.setattr(np, "linspace", no_grid)
    for n in (_MAX_SWEEP_ROWS + 1, 10 ** 11):
        with pytest.raises(ValueError, match=f"need 1 <= n <= {_MAX_SWEEP_ROWS}, got {n}"):
            axis_sweep(tubeke.load_solution(sol1_file), n=n)
        code = main(["sweep", "--sol", str(sol1_file), "--n", str(n),
                     "--out", str(tmp_path / "rows.csv")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.count("\n") == 1
    assert not (tmp_path / "rows.csv").exists()


def test_verify_exit_zero_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "--p", "2", "--suite", "einstein",
                 "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert all(l.startswith("[PASS]") or l.startswith("[FAIL]") for l in lines)
    assert any("suite=einstein" in l for l in lines)
    data = json.loads(report_path.read_text())
    assert data["overall"] is True
    assert data["p"] == 2 and data["seed"] == 0


def test_verify_stats_leave_stdout_and_report_unchanged(sol_p2, tmp_path, capsys):
    runs = []
    for extra in ([], ["--stats"]):
        report = tmp_path / f"report{len(extra)}.json"
        code = main(["verify", "--p", "2", "--suite", "all", "--report", str(report), *extra])
        captured = capsys.readouterr()
        runs.append((code, captured.out, report.read_bytes(), captured.err))
    (code, out, report, err), (code_s, out_s, report_s, err_s) = runs
    assert code == code_s == 0
    assert out_s == out and report_s == report and err == ""
    stats = json.loads(err_s)
    assert set(stats) == {"solve_s", "solver", "suite_s", "checks", "failed"}
    assert list(stats["suite_s"]) == list(tubeke.SUITE_NAMES)
    assert all(t > 0.0 for t in [stats["solve_s"], *stats["suite_s"].values()])
    assert stats["solver"] == {"nodes": 80, "identity_residual": sol_p2.stats["identity_residual"]}
    assert stats["checks"] == len(json.loads(report)["checks"]) and stats["failed"] == 0


# argv, stages and the verb's health entries after "solver"
STATS_RUNS = {
    "solve": (["solve", "--p", "1", "--out", "{tmp}/s.json"], ["solve", "write"], []),
    "eval": (["eval", "--sol", "{sol}", "--x", "0.3", "--derivs"], ["load", "eval", "write"], []),
    "metric": (["metric", "--sol", "{sol}", "--point=-0.3,0.8,0.7,-1.1"],
               ["load", "jet", "write"], []),
    "curvature": (["curvature", "--sol", "{sol}", "--point=-0.3,0.8,0.7,-1.1",
                   "--v=-1,0.5,0,2", "--w", "0,0,1,0", "--extremes"],
                  ["load", "jet", "tensor", "bis", "extremes", "write"], ["einstein_defect"]),
    "curvature_pair": (["curvature", "--sol", "{sol}", "--point=-0.3,0.8,0.7,-1.1",
                        "--v=-1,0.5,0,2", "--w", "0,0,1,0"],
                       ["load", "jet", "tensor", "bis", "write"], ["einstein_defect"]),
    "sweep": (["sweep", "--sol", "{sol}", "--n", "5", "--out", "{tmp}/rows.csv"],
              ["load", "sweep", "write"], ["einstein_defect"]),
}


@pytest.mark.parametrize("verb", list(STATS_RUNS))
def test_stats_leave_stdout_unchanged_for_every_verb(verb, sol_file, sol_p1, sol_p2, tmp_path,
                                                     capsys):
    template, stages, health = STATS_RUNS[verb]
    argv = [a.format(sol=sol_file, tmp=tmp_path) for a in template]
    runs = []
    for extra in ([], ["--stats"]):
        code = main([*argv, *extra])
        captured = capsys.readouterr()
        written = sorted(f.read_bytes() for f in tmp_path.iterdir())
        runs.append((code, captured.out, written, captured.err))
    (code, out, written, err), (code_s, out_s, written_s, err_s) = runs
    assert code == code_s == 0
    # stdout and the files written (solve's JSON, sweep's CSV) stay byte-identical
    assert out_s == out and written_s == written and err == ""
    stats = json.loads(err_s)
    assert list(stats) == [f"{s}_s" for s in stages] + ["solver"] + health
    assert all(stats[f"{s}_s"] >= 0.0 for s in stages)
    # every verb solves: a file records a solve and loading repeats it
    resid = (sol_p1 if verb == "solve" else sol_p2).stats["identity_residual"]
    assert stats["solver"] == {"nodes": 80, "identity_residual": resid}
    if verb == "sweep":
        # the largest defect over the rows: on the axis, the closed forms'
        # |Q1111 + Q1122 + 3|, at rounding level
        found = {}
        axis_sweep(tubeke.load_solution(sol_file), n=5, health=found)
        assert stats["einstein_defect"] == found["einstein_defect"]
        assert 0.0 <= stats["einstein_defect"] <= 1e-14
    elif health:
        # the raw jet at this point, and the axis jet of the pair path, meet
        # the Einstein reduction to rounding
        assert 0.0 <= stats["einstein_defect"] <= 1e-8


def test_verify_refuses_the_limit_law_suites_above_p5(capsys, monkeypatch):
    # refused before the solve, with one line; the identity suites run
    def no_solve(params):
        raise AssertionError("solved before refusing")
    monkeypatch.setattr(tubeke.cli, "solve_potential", no_solve)
    for suite in ([], ["--suite", "asymptotics"], ["--suite", "all"]):
        assert main(["verify", "--p", "6", *suite]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert "runs for p = 1..5, got p = 6" in captured.err
    monkeypatch.undo()
    assert main(["verify", "--p", "6", "--suite", "origin"]) == 0
    assert "[PASS] suite=origin p=6" in capsys.readouterr().out


def test_curvature_stats_report_the_closed_forms_defect_in_both_modes(sol_file, capsys):
    # one einstein_defect, the extremes', whichever mode runs
    point = "--point=-0.3,0.8,0.7,-1.1"
    found = []
    for mode in (["--v=-1,0.5,0,2", "--w", "0,0,1,0"], ["--extremes"],
                 ["--v=-1,0.5,0,2", "--w", "0,0,1,0", "--extremes"]):
        assert main(["curvature", "--sol", str(sol_file), point, *mode, "--stats"]) == 0
        found.append(json.loads(capsys.readouterr().err)["einstein_defect"])
    sol = tubeke.load_solution(sol_file)
    jet = tubeke.metric_jet(sol, tubeke.Point.parse("-0.3,0.8,0.7,-1.1"))
    expected = tubeke.bis_extremes_from_jet(jet, tubeke.tensor_from_jet(jet)).einstein_defect
    assert found == [expected] * 3


def test_verify_all_suites_p2():
    assert main(["verify", "--p", "2", "--suite", "all"]) == 0


def test_verify_custom_seed_recorded(tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--p", "1", "--suite", "origin", "--seed", "3",
                 "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["seed"] == 3


# hostile inputs to solve, sweep and verify
HOSTILE = [
    *(["solve", f"--p={p}", "--out", "{tmp}/s.json"] for p in (0, -3, 20001)),
    *(["sweep", "--sol", "{sol}", f"--{end}={x}", "--out", "{tmp}/rows.csv"]
      for end in ("x-min", "x-max") for x in ("nan", "inf", "-inf", "1", "-1")),
    *(["sweep", "--sol", "{sol}", f"--n={n}", "--out", "{tmp}/rows.csv"]
      for n in (0, -1, _MAX_SWEEP_ROWS + 1)),
    ["sweep", "--sol", "{sol}", "--x-min=0.5", "--x-max=0.1", "--n=3", "--out", "{tmp}/rows.csv"],
    ["verify", "--p", "6", "--suite", "boundary_limit"],
    ["verify", "--p", "1", "--suite", "origin", "--seed=-1"],
]


def test_usage_errors_exit_two(sol_file, tmp_path, capsys):
    assert main(["eval", "--sol", "no-such-file.json", "--x", "0"]) == 2
    assert main(["eval", "--sol", str(sol_file), "--x", "1.5"]) == 2
    capsys.readouterr()
    # beyond the last node: the range is printed as a plain float
    assert main(["eval", "--sol", str(sol_file), "--x", "0.999999999999"]) == 2
    x_max = tubeke.solve_potential(tubeke.TubeParams(p=2)).x_max
    assert f"error: |x| exceeds the solved range [0, {x_max!r}] (" in capsys.readouterr().err
    assert main(["metric", "--sol", str(sol_file), "--point", "9,0,0,0"]) == 2
    assert main(["metric", "--sol", str(sol_file), "--point", "1,2,3"]) == 2
    assert main(["curvature", "--sol", str(sol_file), "--point", "0,0,0,0",
                 "--v", "1,0,0,0", "--w", "bad"]) == 2
    capsys.readouterr()
    # hostile inputs to solve, sweep and verify: each is refused with exit
    # 2, nothing on stdout and one line on stderr
    for template in HOSTILE:
        argv = [a.format(sol=sol_file, tmp=tmp_path) for a in template]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
    # endpoints inside (-1, 1) but beyond the grid end, on either side: the
    # error names the solved range
    beyond = repr(math.nextafter(x_max, 1.0))
    for ends in ([f"--x-max={beyond}"], [f"--x-min=-{beyond}", "--x-max=0"]):
        assert main(["sweep", "--sol", str(sol_file), *ends, "--out", str(tmp_path / "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: |x| exceeds the solved range [0, {x_max!r}] (the grid "
                                "stops where f crosses the blow-up threshold)\n")
    assert list(tmp_path.iterdir()) == []
    # one row at x_min = x_max, and a seed beyond 64 bits, answer
    assert main(["sweep", "--sol", str(sol_file), "--x-min=0.3", "--x-max=0.3", "--n=1",
                 "--out", str(tmp_path / "one.csv")]) == 0
    assert len((tmp_path / "one.csv").read_text().splitlines()) == 2
    assert main(["verify", "--p", "1", "--suite", "origin", f"--seed={2 ** 70}"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("template", [
    ["verify", "--p", "1", "--suite", "origin", "--report", "{path}"],
    ["sweep", "--sol", "{sol}", "--out", "{path}"],
    ["solve", "--p", "2", "--out", "{path}"],
])
def test_an_unwritable_output_path_is_refused_before_the_work(template, sol_file, tmp_path,
                                                              capsys, monkeypatch):
    # a directory, or a file in a missing one: refused before the solve (or
    # the load and the sweep) with one line, and nothing is left behind
    def unreached(*args, **kwargs):
        raise AssertionError("the work ran before the output path was refused")
    for name in ("solve_potential", "load_solution", "axis_sweep"):
        monkeypatch.setattr(tubeke.cli, name, unreached)
    for path in (tmp_path, tmp_path / "missing" / "out"):
        assert main([a.format(sol=sol_file, path=path) for a in template]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: [Errno ")
    assert list(tmp_path.iterdir()) == []


def test_the_output_check_leaves_a_writable_path_as_it_was(sol_file, tmp_path, capsys):
    # work refused after the check: an existing file keeps its bytes, and
    # no new file is created
    kept = tmp_path / "kept"
    kept.write_text("old bytes\n")
    for argv in (["solve", "--p", "20001"], ["sweep", "--sol", str(sol_file), "--n=0"]):
        for out in (kept, tmp_path / "new"):
            assert main([*argv, "--out", str(out)]) == 2
            assert capsys.readouterr().out == ""
    assert kept.read_text() == "old bytes\n" and list(tmp_path.iterdir()) == [kept]


def test_argparse_rejects_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_tampered_solution_file_exits_two(sol1_file, tmp_path, capsys):
    data = json.loads(sol1_file.read_text())
    data["F0"] += 1e-4
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(data))
    assert main(["eval", "--sol", str(bad), "--x", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: solution file {bad}: the record differs from the solve " \
                           f"for p = 1 at 'F0'\n"


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_non_finite_solution_file_exits_two(sol_file, tmp_path, capsys, value):
    # json writes and reads NaN and Infinity, so a file can carry them; the
    # verbs must refuse it rather than print "F": NaN
    data = json.loads(sol_file.read_text())
    data["F0"] = value
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(data))
    for argv in (["eval", "--sol", str(bad), "--x=0.5", "--derivs"],
                 ["metric", "--sol", str(bad), "--point=0,0,0.5,0"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "differs from the solve for p = 2 at 'F0'" in captured.err


def run_fresh(*args):
    """Run python3 with args in a new process that imports this tubeke."""
    src = os.path.dirname(os.path.dirname(tubeke.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_import_loads_neither_numpy_polynomial_nor_scipy():
    # every CLI call pays the package import: scipy.optimize alone costs
    # ~0.5 s, numpy.polynomial ~7 ms and 1.2 MB.  The submodules load on
    # first use, so every public name is touched before looking
    code = ("import sys, tubeke; [getattr(tubeke, name) for name in tubeke.__all__]; "
            "print([m for m in ('numpy.polynomial', 'scipy') if m in sys.modules])")
    out = run_fresh("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


MODULES = {"cli", "errors", "params", "potential_solver", "tube_geometry",
           "metric_tensor", "curvature", "diagnostics"}
# the submodules whose bodies every verb runs: potential_solver imports
# its generated Taylor recurrence, which is not registered lazily
EVERY_VERB = {"cli", "errors", "params", "potential_solver", "_taylor_series"}
# the submodules whose bodies a verb runs beyond those; curvature imports
# the coefficient tables of its axis kernel, which are not registered lazily
CURVATURE = {"tube_geometry", "metric_tensor", "curvature", "_axis_coefficients"}
VERB_MODULES = {
    "solve": set(),
    "eval": set(),
    "metric": {"tube_geometry", "metric_tensor"},
    "curvature": CURVATURE,
    "extremes": CURVATURE,
    "sweep": CURVATURE,
    "verify": CURVATURE | {"diagnostics"},
}
# runs one verb, then prints which tubeke submodules are registered and
# which ran; a lazy module's type is importlib.util._LazyModule until its
# first attribute access (vars() would count as one and load it)
LOADED_CODE = """
import json, sys, types
from tubeke.cli import main
code = main(sys.argv[1:])
subs = {n[7:]: m for n, m in sys.modules.items() if n.startswith("tubeke.")}
print(json.dumps([code, sorted(subs), sorted(n for n, m in subs.items()
                                             if type(m) is types.ModuleType)]))
"""


def test_import_registers_every_submodule_and_runs_none():
    code = ("import sys, types, tubeke.cli; subs = {n[7:]: m for n, m in sys.modules.items() "
            "if n.startswith('tubeke.')}; print(sorted(subs)); "
            "print(sorted(n for n, m in subs.items() if type(m) is types.ModuleType))")
    out = run_fresh("-c", code)
    assert out.returncode == 0, out.stderr
    registered, loaded = out.stdout.splitlines()
    assert registered == str(sorted(MODULES))
    assert loaded == "[]"


@pytest.mark.parametrize("verb", list(VERB_MODULES))
def test_each_verb_runs_only_the_modules_it_uses(verb, sol_file, tmp_path):
    point = "--point=0.01,0.1,0.3,-0.2"
    argv = {
        "solve": ["solve", "--p", "1", "--out", str(tmp_path / "s.json")],
        "eval": ["eval", "--sol", str(sol_file), "--x", "0.3", "--derivs"],
        "metric": ["metric", "--sol", str(sol_file), point],
        "curvature": ["curvature", "--sol", str(sol_file), point,
                      "--v=1,0,0.5,0", "--w=0,1,1,0"],
        "extremes": ["curvature", "--sol", str(sol_file), point, "--extremes"],
        "sweep": ["sweep", "--sol", str(sol_file), "--n", "3",
                  "--out", str(tmp_path / "s.csv")],
        "verify": ["verify", "--p", "1", "--suite", "origin"],
    }[verb]
    out = run_fresh("-c", LOADED_CODE, *argv)
    assert out.returncode == 0, out.stderr
    code, registered, loaded = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert set(registered) == MODULES | EVERY_VERB | VERB_MODULES[verb]
    assert set(loaded) == EVERY_VERB | VERB_MODULES[verb]


def test_python_dash_m_runs_the_cli():
    out = run_fresh("-W", "default", "-m", "tubeke", "--help")
    assert out.returncode == 0
    assert "usage: tubeke" in out.stdout
    assert "Warning" not in out.stderr
