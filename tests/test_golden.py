"""Catalog reports stay byte-identical to the committed golden files.

The files in tests/golden/ are CLI reports of every catalog entry: JSON at
5^3 and 11^3 grid points and CSV at 5^3.  A refactor of the engine must
reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from minksoliton import catalog
from minksoliton.cli import main

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
