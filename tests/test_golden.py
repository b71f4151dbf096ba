"""Reports stay byte-identical to the committed golden files.

The files in tests/golden/ are:

* CLI reports of every catalog entry: JSON at 5^3 and 11^3 grid points, and
  CSV and text at 5^3;
* CLI JSON reports at 5^3 of the chart file hyperbolic_graph_chart.txt, on
  the default box and on a given ``--box``;
* ``case-sweep`` output of each canonical form, CSV and JSON, for
  ``--count 60 --seed 11`` and the default ``--epsilon``;
* the chart file hyperbolic_graph_chart.txt itself.

A refactor of the engine must reproduce them byte for byte.  The directory
holds no other file.

The bytes also depend on numpy's SIMD dispatch.  The files were written with
numpy 2.4.6 running its AVX-512 kernels; with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", 8 of the 27 analyze
reports differ in round-off-sized residuals: de_sitter 5^3 and 11^3 JSON and
5^3 CSV, hyperbolic_space and hyperbolic_cylinder 11^3 JSON, and
pseudospherical_cylinder 5^3 and 11^3 JSON and 5^3 CSV (lambda_spread in
de_sitter_5.json, for one, reads 1.55e-15 against 1.33e-15).  Of the other
reports, the 5^3 text reports of de_sitter and pseudospherical_cylinder
differ there too.  The 11 reports of the three frame-ODE entries are the
same under both dispatches; test_frame_ode.py bounds how far they sit from
the reports of the step-by-step RK4 loop.  CI prints numpy.show_runtime()
before the tests, to tell such a failure from a change of the code, and
runs the suite a second time with AVX-512 off under
``-k "not report_matches_golden"``: that deselects the analyze-report cases
(JSON, CSV, text and chart file) and keeps the case-sweep goldens and the
directory check, which hold under both dispatches.
"""

from pathlib import Path

import pytest

from minksoliton import catalog
from minksoliton.cli import main
from minksoliton.lorentz import FormVariant

GOLDEN = Path(__file__).parent / "golden"
CHART = "hyperbolic_graph_chart.txt"

CASES = ([(name, n, "json") for name in catalog.ENTRIES for n in (5, 11)]
         + [(name, 5, "csv") for name in catalog.ENTRIES])
SWEEP_CASES = [(v.value, fmt) for v in FormVariant for fmt in ("csv", "json")]
CHART_CASES = [(None, "hyperbolic_graph_5.json"),
               ("-0.3:0.2,-0.1:0.4,-0.25:0.25", "hyperbolic_graph_box_5.json")]


@pytest.mark.parametrize("name,n,fmt", CASES)
def test_report_matches_golden(tmp_path, name, n, fmt):
    out = tmp_path / f"report.{fmt}"
    code = main(["analyze", "--entry", name, "--grid", f"{n},{n},{n}",
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}_{n}.{fmt}").read_bytes()


@pytest.mark.parametrize("form,fmt", SWEEP_CASES)
def test_case_sweep_matches_golden(tmp_path, form, fmt):
    out = tmp_path / f"sweep.{fmt}"
    code = main(["case-sweep", "--form", form, "--count", "60", "--seed", "11",
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == \
        (GOLDEN / f"case_sweep_{form}.{fmt}").read_bytes()


def _analyze(tmp_path, *argv):
    out = tmp_path / "report"
    assert main(["analyze", *argv, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", list(catalog.ENTRIES))
def test_text_report_matches_golden(tmp_path, name):
    assert _analyze(tmp_path, "--entry", name, "--grid", "5,5,5",
                    "--format", "text") == \
        (GOLDEN / f"{name}_5.txt").read_bytes()


@pytest.mark.parametrize("box,golden", CHART_CASES)
def test_chart_file_report_matches_golden(tmp_path, monkeypatch, box, golden):
    # the report names the chart by the path it was given
    monkeypatch.chdir(GOLDEN.parent)
    argv = ["--entry", f"golden/{CHART}", "--grid", "5,5,5",
            "--format", "json"] + ([f"--box={box}"] if box else [])
    assert _analyze(tmp_path, *argv) == (GOLDEN / golden).read_bytes()


def test_golden_directory_holds_only_named_files():
    # a golden file that no case above reads pins nothing
    named = ({f"{name}_{n}.{fmt}" for name, n, fmt in CASES}
             | {f"{name}_5.txt" for name in catalog.ENTRIES}
             | {f"case_sweep_{form}.{fmt}" for form, fmt in SWEEP_CASES}
             | {golden for _, golden in CHART_CASES} | {CHART})
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(named)
    assert len(named) == 47
