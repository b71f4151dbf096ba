"""Reports stay byte-identical to the committed golden files.

The files in tests/golden/ are:

* CLI reports of every catalog entry: JSON at 5^3 and 11^3 grid points, and
  CSV and text at 5^3, all with both Ricci modes;
* CLI JSON reports of every catalog entry at 5^3 under each single Ricci
  mode;
* CLI JSON reports at 5^3 of the chart file hyperbolic_graph_chart.txt, on
  the default box and on a given ``--box``;
* the expectation tables of every catalog entry at 5^3 under each single
  Ricci mode, as ``dump_json`` writes them;
* ``case-sweep`` output of each canonical form, CSV and JSON, for
  ``--count 60 --seed 11`` and the default ``--epsilon``.

A refactor of the engine must reproduce them byte for byte.

The bytes also depend on numpy's SIMD dispatch.  The files were written with
numpy 2.4.6 running its AVX-512 kernels; with
NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR", 8 of the 27 analyze
reports differ in round-off-sized residuals: de_sitter 5^3 and 11^3 JSON and
5^3 CSV, hyperbolic_space and hyperbolic_cylinder 11^3 JSON, and
pseudospherical_cylinder 5^3 and 11^3 JSON and 5^3 CSV (lambda_spread in
de_sitter_5.json, for one, reads 1.55e-15 against 1.33e-15).  Of the other
reports, those of de_sitter and pseudospherical_cylinder differ there too:
the 5^3 text reports and both single-mode 5^3 JSON reports.  CI prints
numpy.show_runtime() before the tests, to tell such a failure from a change
of the code.
"""

from pathlib import Path

import pytest

from minksoliton import analysis, catalog
from minksoliton.cli import dump_json, main
from minksoliton.lorentz import FormVariant
from minksoliton.soliton import RICCI_MODES

GOLDEN = Path(__file__).parent / "golden"

CASES = ([(name, n, "json") for name in catalog.ENTRIES for n in (5, 11)]
         + [(name, 5, "csv") for name in catalog.ENTRIES])


@pytest.mark.parametrize("name,n,fmt", CASES)
def test_report_matches_golden(tmp_path, name, n, fmt):
    out = tmp_path / f"report.{fmt}"
    code = main(["analyze", "--entry", name, "--grid", f"{n},{n},{n}",
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}_{n}.{fmt}").read_bytes()


def test_single_mode_expectations_match_golden():
    table = {name: {mode: analysis.analyze_entry(
        name, grid_counts=(5, 5, 5), ricci_mode=mode)["expectations"]
        for mode in RICCI_MODES} for name in catalog.ENTRIES}
    assert dump_json(table).encode() == \
        (GOLDEN / "expectations_single_mode_5.json").read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("form", [v.value for v in FormVariant])
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


@pytest.mark.parametrize("mode", RICCI_MODES)
@pytest.mark.parametrize("name", list(catalog.ENTRIES))
def test_single_mode_report_matches_golden(tmp_path, name, mode):
    assert _analyze(tmp_path, "--entry", name, "--grid", "5,5,5",
                    "--ricci-mode", mode, "--format", "json") == \
        (GOLDEN / f"{name}_5_{mode}.json").read_bytes()


@pytest.mark.parametrize("box,golden", [
    (None, "hyperbolic_graph_5.json"),
    ("-0.3:0.2,-0.1:0.4,-0.25:0.25", "hyperbolic_graph_box_5.json")])
def test_chart_file_report_matches_golden(tmp_path, monkeypatch, box, golden):
    # the report names the chart by the path it was given
    monkeypatch.chdir(GOLDEN.parent)
    argv = ["--entry", "golden/hyperbolic_graph_chart.txt", "--grid", "5,5,5",
            "--format", "json"] + ([f"--box={box}"] if box else [])
    assert _analyze(tmp_path, *argv) == (GOLDEN / golden).read_bytes()
