"""Expression grammar, chart files, and the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minksoliton
from minksoliton import exprs, jets
from minksoliton.cli import main, round_floats


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
    from minksoliton.hypersurface import sample
    s = sample(imm, [0.2, 0.1, -0.3])
    assert s.point[3] == pytest.approx(0.04 + 0.01 + 0.09)


def test_chart_file_with_parameters(tmp_path):
    f = tmp_path / "scaled.txt"
    f.write_text("c*u\nc*v\nc*w\n1 + 0*u\n")
    imm = exprs.immersion_from_file(str(f), {"c": 2.0})
    from minksoliton.hypersurface import sample
    s = sample(imm, [0.5, 0.0, 0.0])
    assert s.point[0] == pytest.approx(1.0)


def test_chart_file_undefined_name(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("u\nv\nw\nq*u\n")
    with pytest.raises(exprs.ParseError):
        exprs.immersion_from_file(str(f), {})


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


def test_cli_usage_errors(capsys):
    assert main(["analyze", "--entry", "de_sitter", "--grid", "1,1,1"]) == 1
    assert main(["analyze", "--entry", "nonexistent_entry"]) == 1
    assert main(["analyze", "--entry", "de_sitter", "--param", "c=0"]) == 1
    capsys.readouterr()


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
    proc = subprocess.run([sys.executable, "-m", "minksoliton.cli", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "de_sitter" in proc.stdout


def test_cli_exit_two_on_identity_failure(monkeypatch, capsys):
    from minksoliton import analysis
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
    code = main(["analyze", "--entry", "de_sitter", "--grid", "3,3,3",
                 "--out", str(tmp_path / "missing_dir" / "x.json")])
    capsys.readouterr()
    assert code == 1


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


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_rejects_non_finite_box(tmp_path, bad, capsys):
    f = tmp_path / "graph.txt"
    f.write_text("u\nv\nw\n2 + u*u\n")
    assert main(["analyze", "--entry", str(f),
                 f"--box=0:1,0:{bad},0:1"]) == 1
    err = capsys.readouterr().err
    assert "must be finite" in err and bad in err
