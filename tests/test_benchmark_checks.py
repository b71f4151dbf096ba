"""The benchmark's output checks pass on the CLI's reports.

``perfbench/workloads.py`` holds the checks that every output of a benchmark
operation must pass.  A report change that fails one (a renamed key, a
missing text line) fails here, in the tests, rather than first as failed
operations of a benchmark run.  The module is loaded from its file, read
only.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from minksoliton import catalog
from minksoliton.cli import main

SPEC = importlib.util.spec_from_file_location(
    "perfbench_workloads",
    Path(__file__).parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = workloads  # its @dataclass looks the module up
SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("name", workloads.CATALOG)
def test_benchmark_checks_pass_on_default_reports(tmp_path, name, fmt):
    out = tmp_path / f"report.{fmt}"
    assert main(["analyze", "--entry", name, "--format", fmt,
                 "--out", str(out)]) == 0
    expect = workloads.expected_soliton(name, catalog.get(name).defaults)
    workloads.CHECK_REPORT[fmt](out.read_text(encoding="utf-8"), expect)
