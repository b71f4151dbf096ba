"""Expression grammar, chart files, and the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import minksoliton
from minksoliton import analysis, catalog, cli, exprs, jets
from minksoliton.cli import build_parser, main, round_floats
from minksoliton.hypersurface import GeometryBatch


# -- parser ----------------------------------------------------------------------

def _num_eval(text, **env):
    return exprs.parse(text).eval(env)


def test_precedence_and_associativity():
    assert _num_eval("1+2*3") == 7.0
    assert _num_eval("(1+2)*3") == 9.0
    assert _num_eval("2^3^2") == 512.0          # right associative
    assert _num_eval("-2^2") == -4.0            # unary binds looser than ^
    assert _num_eval("6/3/2") == 1.0            # left associative
    assert _num_eval("2*u - 3", u=5.0) == 7.0


def test_functions_and_negative_exponent():
    assert _num_eval("sin(0)") == 0.0
    assert _num_eval("cosh(u)^2 - sinh(u)^2", u=0.83) == pytest.approx(1.0)
    assert _num_eval("u^-2", u=2.0) == 0.25
    assert _num_eval("sqrt(u + 2)", u=2.0) == 2.0


def test_parse_errors():
    for bad in ("1 +", "foo(2)", "(1", "1 2", "u @ v", "2^u"):
        with pytest.raises(exprs.ParseError):
            if bad == "2^u":
                exprs.parse(bad).eval({"u": jets.variable(1, 1.0)})
            else:
                exprs.parse(bad).eval({"u": 1.0, "v": 1.0})


def test_division_by_zero_is_a_domain_error():
    for text, env, message in (
            ("1/c", {"c": 0.0}, "division by 'c' = 0"),
            ("u/(c - c)", {"c": 2.0, "u": 1.0}, "division by zero"),
            ("c^-2", {"c": 0.0}, "negative power of 'c' = 0"),
            ("1/u", {"u": np.array([1.0, 0.0])}, "division by 'u' = 0")):
        with pytest.raises(jets.DomainError, match=re.escape(message)):
            exprs.parse(text).eval(env)
    assert _num_eval("c^2 + c^0", c=0.0) == 1.0


def test_power_of_a_plain_number_stays_real():
    # a power overflows to inf as a product does, and takes no complex
    # value; nor does a sqrt
    assert _num_eval("k^2", k=1e200) == np.inf
    assert _num_eval("k^3", k=-1e200) == -np.inf
    assert _num_eval("k^0.5", k=0.0) == 0.0
    assert _num_eval("sqrt(k)", k=0.0) == 0.0
    for text, message in (("k^0.5", "real power of 'k' < 0"),
                          ("(k - 2)^1.5", "real power of a negative number"),
                          ("sqrt(k)", "sqrt of 'k' < 0"),
                          ("sqrt(k - 2)", "sqrt of a negative number")):
        with pytest.raises(jets.DomainError, match=re.escape(message)):
            _num_eval(text, k=-1.0)


def test_jet_and_numeric_paths_agree():
    text = "sinh(u)*cos(v) + sqrt(w*w + 1.5) / (2 + u^2)"
    e = exprs.parse(text)
    pt = (0.3, -0.7, 0.9)
    num = e.eval({"u": pt[0], "v": pt[1], "w": pt[2]})
    jet = e.eval({"u": jets.variable(1, pt[0]),
                  "v": jets.variable(2, pt[1]),
                  "w": jets.variable(3, pt[2])})
    assert jet.value == pytest.approx(num, rel=1e-14)


def test_chart_file_parsing(tmp_path):
    f = tmp_path / "chart.txt"
    f.write_text("""
# a graph chart
x1 = u
x2 = v
x3 = w
x4 = u*u + v*v + w*w   # height
""")
    imm = exprs.immersion_from_file(str(f), {})
    geo = GeometryBatch(imm, np.array([[0.2, 0.1, -0.3]]))
    assert geo.x[0, 3] == pytest.approx(0.04 + 0.01 + 0.09)


def test_chart_file_with_parameters(tmp_path):
    f = tmp_path / "scaled.txt"
    f.write_text("c*u\nc*v\nc*w\n1 + 0*u\n")
    imm = exprs.immersion_from_file(str(f), {"c": 2.0})
    geo = GeometryBatch(imm, np.array([[0.5, 0.0, 0.0]]))
    assert geo.x[0, 0] == pytest.approx(1.0)


def test_chart_file_undefined_name(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("u\nv\nw\nq*u\n")
    with pytest.raises(exprs.ParseError):
        exprs.immersion_from_file(str(f), {})


def test_chart_file_parameter_may_not_replace_a_chart_variable(tmp_path):
    f = tmp_path / "graph.txt"
    f.write_text("u\nv\nw\n2 + k*u*u\n")
    for name in exprs.VARIABLES:
        with pytest.raises(exprs.ParseError, match=repr(name)):
            exprs.immersion_from_file(str(f), {"k": 1.0, name: 0.3})


def test_chart_file_wrong_count(tmp_path):
    f = tmp_path / "three.txt"
    f.write_text("u\nv\nw\n")
    with pytest.raises(exprs.ParseError):
        exprs.immersion_from_file(str(f), {})


# -- CLI ---------------------------------------------------------------------------

def test_cli_analyze_json_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", "--entry", "de_sitter", "--grid", "3,3,3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    data = json.loads(text)
    assert data["entry"] == "de_sitter"
    assert set(data) >= {"entry", "parameters", "grid", "identities",
                         "classification", "soliton", "expectations"}
    assert data["soliton"]["verdict"] == "shrinking"
    assert abs(data["soliton"]["lambda_fit"] - 2.0) < 1e-9
    # byte-identical round trip after re-serialization
    again = json.dumps(round_floats(data), indent=2) + "\n"
    assert again == text


def test_cli_analyze_negative_control_exit_zero(capsys):
    code = main(["analyze", "--entry", "graph_lorentzian", "--grid", "3,3,3",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    data = json.loads(captured.out)
    assert data["soliton"]["verdict"] == "not_a_soliton"
    assert data["identities"]["pass"] is True


def test_cli_usage_errors(capsys, tmp_path):
    assert main(["analyze", "--entry", "de_sitter", "--grid", "1,1,1"]) == 1
    assert main(["analyze", "--entry", "nonexistent_entry"]) == 1
    assert main(["analyze", "--entry", "de_sitter", "--param", "c=0"]) == 1
    capsys.readouterr()
    # bad values get a message naming the flag, not an exception class
    chart = tmp_path / "graph.txt"
    chart.write_text("u\nv\nw\n2 + u*u\n")
    for argv, flag in (
            (["case-sweep", "--form", "jordan2", "--count", "0"], "--count"),
            (["case-sweep", "--form", "jordan2", "--count", "-3"], "--count"),
            (["case-sweep", "--form", "jordan2", "--seed", "-1"], "--seed"),
            (["analyze", "--entry", str(chart), "--box=a:1,0:1,0:1"],
             "--box")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert flag in err and "Error" not in err, err


def test_cli_param_value_must_be_a_number(capsys, tmp_path):
    assert main(["analyze", "--entry", "de_sitter", "--param", "c=abc"]) == 1
    err = capsys.readouterr().err
    assert "--param c" in err and "abc" in err and "Error" not in err, err
    chart = tmp_path / "graph.txt"
    chart.write_text("u\nv\nw\n2 + k*u*u\n")
    assert main(["analyze", "--entry", str(chart), "--param", "k=two"]) == 1
    assert "--param k" in capsys.readouterr().err
    assert main(["analyze", "--entry", "de_sitter", "--param", "zz=abc"]) == 1
    assert "unknown parameters" in capsys.readouterr().err


def test_cli_param_cannot_name_a_chart_variable(capsys):
    # a parameter w would shadow the chart coordinate w, and the flat
    # chart it made had a singular metric
    chart = Path(__file__).parent / "golden" / "hyperbolic_graph_chart.txt"
    assert main(["analyze", "--entry", str(chart), "--param", "w=0.3"]) == 1
    err = capsys.readouterr().err
    assert "--param w" in err and "Error" not in err, err


def test_cli_rejects_b_const_for_varying_b(capsys):
    # B(s) = 2 + sin s has no constant to set; the flag was echoed back and
    # changed nothing
    assert main(["analyze", "--entry", "generalized_umbilical_varB",
                 "--param", "b_const=-3"]) == 1
    err = capsys.readouterr().err
    assert "unknown parameters" in err and "b_const" in err, err


@pytest.mark.parametrize("name", ["generalized_umbilical",
                                  "generalized_cylinder_I"])
def test_cli_rejects_b_kind(name, capsys):
    # B is the constant b_const; the varying B(s) = 2 + sin s is the entry
    # generalized_umbilical_varB
    assert main(["analyze", "--entry", name,
                 "--param", "b_kind=offset_sin"]) == 1
    err = capsys.readouterr().err
    assert "unknown parameters" in err and "b_kind" in err, err
    assert "Error" not in err, err


@pytest.mark.parametrize("name, param", [
    ("generalized_umbilical", "a"), ("generalized_umbilical", "b_const"),
    ("generalized_cylinder_I", "b_const"), ("generalized_umbilical_varB", "a")])
def test_cli_zero_jordan_parameter_is_a_usage_error(name, param, capsys):
    assert main(["analyze", "--entry", name, "--param", f"{param}=0"]) == 1
    err = capsys.readouterr().err
    assert f"{param} must be nonzero" in err and "Error" not in err, err


def test_cli_unknown_parameter_message_is_bare(capsys):
    # str() of a KeyError would quote the message
    assert main(["analyze", "--entry", "de_sitter", "--param", "radius=2"]) == 1
    assert capsys.readouterr().err == \
        "error: unknown parameters for de_sitter: ['radius']\n"


@pytest.mark.parametrize("name", list(catalog.ENTRIES))
def test_text_report_prints_each_number_once(name):
    report = analysis.analyze_entry(name)
    text = cli._text_report(report)
    # above the expectations table, which quotes some identity keys again
    lines = text.split("expectations (claimed vs computed):")[0].splitlines()
    for key in report["identities"].keys() - {"pass", "tau"}:
        hits = [ln for ln in lines if re.search(rf"\b{key}\b", ln)]
        assert len(hits) == 1, (key, hits)
    # the headline fit and the paper-form fit, each lambda once
    assert sum("lambda=" in ln for ln in lines) == 2, lines


def test_cli_text_report_shows_provenance(capsys):
    code = main(["analyze", "--entry", "hyperbolic_space", "--grid", "3,3,3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "claimed" in out and "derived" in out
    assert "expectations (claimed vs computed)" in out


def test_cli_csv_pointwise(tmp_path):
    out = tmp_path / "points.csv"
    code = main(["analyze", "--entry", "pseudospherical_cylinder",
                 "--grid", "3,3,3", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("u1,u2,u3,epsilon")
    assert len(lines) == 1 + 27


def test_cli_expression_file(tmp_path, capsys):
    f = tmp_path / "graph.txt"
    f.write_text("u\nv\nw\n2 + u*u + v*v + w*w\n")
    code = main(["analyze", "--entry", str(f), "--grid", "3,3,3",
                 "--box=-0.2:0.2,-0.2:0.2,-0.2:0.2", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["identities"]["pass"] is True
    assert data["soliton"]["verdict"] == "not_a_soliton"


def test_cli_case_sweep_csv(capsys):
    code = main(["case-sweep", "--form", "complex_pair", "--count", "50",
                 "--seed", "9"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,b1,epsilon,kind,solvable,branch,lambda,rho,witness"
    assert len(lines) == 51
    assert all(",False," in ln for ln in lines[1:])


def test_cli_case_sweep_jordan2_solvable_rows(capsys):
    code = main(["case-sweep", "--form", "jordan2", "--count", "40",
                 "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["misclassifications"] == 0
    solvable = [r for r in data["rows"] if r["solvable"]]
    for row in solvable:
        assert abs(row["lambda"] - (row["a1"] ** 2 + 1.0)) < 1e-9


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "generalized_umbilical" in out
    assert "claimed" in out
    assert main(["list", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert any(e["name"] == "de_sitter" for e in data)


def test_cli_installed_entry_point():
    # The child imports the same package as the tests, also when pytest's
    # ``pythonpath`` setting (not the environment) put it on sys.path.
    path = [str(Path(minksoliton.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    for module in ("minksoliton.cli", "minksoliton"):
        proc = subprocess.run([sys.executable, "-m", module, "list"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, module
        assert "de_sitter" in proc.stdout


def test_cli_exit_two_on_identity_failure(monkeypatch, capsys):
    original = analysis.analyze_entry

    def broken(*args, **kwargs):
        rep = original("de_sitter", grid_counts=(3, 3, 3))
        rep["identities"]["pass"] = False
        return rep

    monkeypatch.setattr(analysis, "analyze_entry", broken)
    code = main(["analyze", "--entry", "de_sitter", "--format", "json"])
    capsys.readouterr()
    assert code == 2


def test_cli_write_failure_is_usage_error(tmp_path, capsys):
    out = str(tmp_path / "missing_dir" / "x.json")
    for argv in (["analyze", "--entry", "de_sitter", "--grid", "3,3,3"],
                 ["case-sweep", "--form", "jordan2", "--count", "20"],
                 ["case-sweep", "--form", "jordan2", "--count", "20",
                  "--format", "json"]):
        code = main(argv + ["--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: cannot write report to "), err
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["case-sweep", "--form", "diagonalizable", "--count", "30"],
    ["case-sweep", "--form", "jordan3", "--count", "30", "--format", "json"],
    ["list", "--format", "json"],
])
def test_cli_out_dash_writes_what_out_file_writes(argv, tmp_path, capsys):
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert main(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")


def test_cli_division_by_a_zero_parameter_names_it(tmp_path, capsys):
    chart = tmp_path / "de_sitter.txt"
    chart.write_text(catalog.CHARTS["de_sitter"])
    code = main(["analyze", "--entry", str(chart), "--grid", "3,3,3",
                 "--param", "c=0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "'c' = 0" in err and "ZeroDivisionError" not in err, err


def test_cli_param_passthrough(capsys):
    code = main(["analyze", "--entry", "de_sitter", "--param", "c=2",
                 "--grid", "3,3,3", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["parameters"]["c"] == 2.0
    assert abs(data["soliton"]["lambda_fit"] - 8.0) < 1e-9


def test_cli_csv_for_expression_file(tmp_path):
    f = tmp_path / "plane.txt"
    f.write_text("u\nv\nw\n1 + 0*u\n")
    out = tmp_path / "pts.csv"
    code = main(["analyze", "--entry", str(f), "--grid", "2,2,2",
                 "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 8


def test_cli_reports_deterministic_across_runs(tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.json"
        assert main(["analyze", "--entry", "hyperbolic_cylinder",
                     "--grid", "3,3,3", "--format", "json",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_csv_honours_orientation(capsys):
    columns = {}
    for sign in ("1", "-1"):
        assert main(["analyze", "--entry", "hyperbolic_space", "--grid",
                     "2,2,2", "--format", "csv", f"--orientation={sign}"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        col = lines[0].split(",").index("mean_curvature")
        columns[sign] = [float(ln.split(",")[col]) for ln in lines[1:]]
    assert all(h != 0.0 for h in columns["1"])
    assert columns["-1"] == [-h for h in columns["1"]]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_rejects_non_finite_param(bad, capsys):
    assert main(["analyze", "--entry", "de_sitter", "--param", f"c={bad}"]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err and bad in err


@pytest.mark.parametrize("name, param, error", [
    ("generalized_cylinder_I", "b_const=1e300", "DegenerateMetric"),
    ("generalized_cylinder_I", "b_const=-1e300", "DegenerateMetric"),
    ("generalized_umbilical", "a=1e6", "DegenerateMetric"),
    ("generalized_umbilical_varB", "a=1e6", "StepTooLarge"),
    ("de_sitter", "c=1e-300", "DegenerateMetric")])
def test_cli_extreme_param_fails_its_gate_without_warnings(name, param, error,
                                                          capsys):
    # the overflow reaches a gate that fails closed; numpy adds nothing
    assert main(["analyze", "--entry", name, "--param", param]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}: "), lines


@pytest.mark.parametrize("power, k, error", [
    ("k^2", "1e200", "error: DegenerateMetric: "),
    ("k^0.5", "-1", "error: DomainError: real power of 'k' < 0"),
    ("sqrt(k)", "-1", "error: DomainError: sqrt of 'k' < 0"),
    ("sqrt(0 - k)", "1", "error: DomainError: sqrt of a negative number")])
def test_cli_power_of_a_parameter_fails_closed(tmp_path, capsys, power, k,
                                               error):
    # k^2 overflows to inf, as k*k does, and the metric gate fails closed;
    # a fractional power or a sqrt of a negative number has no real value
    chart = tmp_path / "power.txt"
    chart.write_text(f"x1 = u\nx2 = v\nx3 = w\nx4 = {power}*u*u\n")
    assert main(["analyze", "--entry", str(chart), "--param", f"k={k}"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(error), lines


def test_cli_non_finite_position_fails_closed(tmp_path, capsys):
    # the metric and normal of this chart are finite, its position is not;
    # the gate stops the run before a NaN row or a numpy warning
    chart = tmp_path / "far.txt"
    chart.write_text("x1 = sqrt(1 + u*u + v*v + w*w) + sinh(1000)\n"
                     "x2 = u\nx3 = v\nx4 = w\n")
    assert main(["analyze", "--entry", str(chart)]) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert err.splitlines() == [
        f"error: DomainError: position of {str(chart)!r} is not finite on "
        "the batch"]


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_rejects_non_finite_box(tmp_path, bad, capsys):
    f = tmp_path / "graph.txt"
    f.write_text("u\nv\nw\n2 + u*u\n")
    assert main(["analyze", "--entry", str(f),
                 f"--box=0:1,0:{bad},0:1"]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err and bad in err


@pytest.mark.parametrize("box", ["0.1:0.1,0.1:0.1,0.1:0.1",
                                 "-0.5:0.5,0.3:-0.3,-0.5:0.5"])
def test_cli_rejects_empty_box_interval(tmp_path, box, capsys):
    # a zero-width box would sample one point n times and report it
    # isoparametric and of constant mean curvature
    f = tmp_path / "graph.txt"
    f.write_text("u\nv\nw\n2 + u*u\n")
    assert main(["analyze", "--entry", str(f), f"--box={box}"]) == 1
    err = capsys.readouterr().err
    assert "lo < hi" in err and "Error" not in err, err


@pytest.mark.parametrize("box", ["1:0,0:1,0:1", "0:1,0:1,0:1"])
def test_cli_rejects_box_for_a_catalog_entry(box, capsys):
    # a catalog entry is sampled on its safe box, never on --box
    assert main(["analyze", "--entry", "de_sitter", "--grid", "2,2,2",
                 f"--box={box}"]) == 1
    err = capsys.readouterr().err
    assert "--box" in err and "chart file" in err and "Error" not in err, err


def test_library_chart_report_is_the_cli_report(tmp_path, monkeypatch):
    from minksoliton.cli import CHART_BOX, dump_json
    # the report names the chart by the path it was given
    monkeypatch.chdir(Path(__file__).parent)
    path = "golden/hyperbolic_graph_chart.txt"
    out = tmp_path / "report.json"
    assert main(["analyze", "--entry", path, "--format", "json",
                 "--out", str(out)]) == 0
    report = analysis.analyze_immersion(exprs.immersion_from_file(path),
                                        CHART_BOX)
    assert dump_json(report) == out.read_text()


@pytest.mark.parametrize("c,n,without", [
    ("1e-7", 5, 20), ("1e-7", 11, 88), ("3e-7", 5, 70), ("3e-7", 11, 704)])
def test_spacelike_chart_with_jordan_forms_exits_zero(tmp_path, capsys, c, n,
                                                       without):
    # H^3 as a graph, bent by c*u^3: the classifier puts Jordan blocks on a
    # spacelike chart, where no case system exists, so the consistency
    # check leaves those points out and counts them
    chart = tmp_path / "h3_cubic.txt"
    chart.write_text("x1 = sqrt(1 + u^2 + v^2 + w^2)\nx2 = u\nx3 = v\n"
                     "x4 = w + c*u^3\n")
    assert main(["analyze", "--entry", str(chart), "--param", f"c={c}",
                 "--grid", f"{n},{n},{n}", "--format", "json"]) == 0
    block = json.loads(capsys.readouterr().out)["soliton"][
        "case_system_consistency"]
    assert block["points_without_case_system"] == without
    assert block["points_checked"] + without == n ** 3


def test_readme_usage_block_matches_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", block))
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {opt for parser in subparsers.choices.values()
               for action in parser._actions
               if not isinstance(action, argparse._HelpAction)
               for opt in action.option_strings}
    assert documented == options


MAIN_CALLS = [
    ["analyze", "--entry", "de_sitter", "--param", "c=1.5", "--format", "json"],
    ["analyze", "--entry", "generalized_cylinder_I", "--param", "b_const=0.5",
     "--format", "csv"],
    ["case-sweep", "--form", "jordan2", "--count", "20", "--format", "json"],
    ["list", "--format", "text"],
]


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (0, 2), (2, 3),
                                           (3, 0)])
def test_successive_main_calls_write_what_each_writes_alone(capsys, first,
                                                           second):
    # main builds its parser once per process; parsing one call must leave
    # nothing behind for the next
    def run(argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    alone = {}
    for k in (first, second):
        cli._parser.cache_clear()
        alone[k] = run(MAIN_CALLS[k])
    cli._parser.cache_clear()
    assert run(MAIN_CALLS[first]) == alone[first]
    assert run(MAIN_CALLS[second]) == alone[second]
    assert cli._parser.cache_info().misses == 1
