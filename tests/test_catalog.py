"""Catalog entries: defining constraints, identity suites, manifest shape,
and the tolerance table every gate reads."""

import json
from pathlib import Path

import numpy as np
import pytest
from scalar_reference import identity_table

from minksoliton import analysis, catalog, exprs
from minksoliton.cli import main
from minksoliton.hypersurface import GeometryBatch, grid_points
from minksoliton.lorentz import is_self_adjoint
from minksoliton.soliton import TAU


def test_every_entry_satisfies_its_constraint():
    for name, entry in catalog.ENTRIES.items():
        if entry.constraint is None:
            continue
        imm, params = entry.build()
        grid = grid_points(entry.safe_box(params), (4, 4, 4))
        geo = GeometryBatch(imm, grid)
        res = entry.constraint(geo.x, params)
        assert np.max(res) < 1e-12, name


def test_every_entry_passes_identity_suite():
    for name, entry in catalog.ENTRIES.items():
        imm, params = entry.build()
        grid = grid_points(entry.safe_box(params), (3, 3, 3))
        geo = GeometryBatch(imm, grid)
        ids = {key: np.max(row) for key, row in identity_table(geo).items()}
        assert max(ids.values()) < TAU[entry.is_ode][0], (name, ids)


def test_every_shape_operator_is_self_adjoint():
    for name, entry in catalog.ENTRIES.items():
        imm, params = entry.build()
        grid = grid_points(entry.safe_box(params), (3, 3, 3))
        geo = GeometryBatch(imm, grid)
        gv, Av = geo.g, geo.A
        for n in range(grid_points(entry.safe_box(params), (3, 3, 3)).shape[0]):
            m = gv[n] @ Av[n]
            assert np.max(np.abs(m - m.T)) < 1e-9, name
            assert is_self_adjoint(Av[n], gv[n])


def test_parameter_variants_build():
    for c in (0.5, 1.0, 2.0):
        imm, params = catalog.get("hyperbolic_cylinder").build(c=c)
        assert params["c"] == c
    imm, params = catalog.get("generalized_umbilical").build(a=2.0)
    assert params["a"] == 2.0


def test_unknown_parameter_rejected():
    with pytest.raises(KeyError):
        catalog.get("de_sitter").build(radius=2.0)


def test_zero_curvature_rejected():
    with pytest.raises(ValueError):
        catalog.get("de_sitter").build(c=0.0)


def test_unknown_entry_message():
    with pytest.raises(KeyError):
        catalog.get("klein_bottle")


def test_manifest_shape():
    m = catalog.manifest()
    names = [e["name"] for e in m]
    assert names == sorted(names)
    assert "generalized_umbilical" in names
    for e in m:
        assert set(e) >= {"name", "description", "parameters", "safe_box",
                          "orientation_sign", "expectations"}
        for exp in e["expectations"]:
            assert exp["source"] in ("claimed", "derived", "exact")


def test_expectations_never_overwrite_computed():
    rep = analysis.analyze_entry("de_sitter", grid_counts=(3, 3, 3))
    row = next(r for r in rep["expectations"] if r["key"] == "lambda_claimed")
    # claimed constants stay claimed; the computed value is the fit
    assert row["claimed"] == [1.0, 3.0]
    assert row["computed"] == pytest.approx(2.0, abs=1e-9)
    assert row["agrees"] is False


@pytest.mark.parametrize("name", list(catalog.ENTRIES))
def test_every_gate_reads_the_tolerance_table(name, capsys):
    tau = TAU[catalog.get(name).is_ode]
    rep = analysis.analyze_entry(name, grid_counts=(3, 3, 3))
    assert (rep["identities"]["tau"], rep["soliton"]["tau"]) == tau
    assert main(["list", "--format", "json"]) == 0
    listed = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
    assert (listed[name]["tau_identity"], listed[name]["tau_soliton"]) == tau


def test_chart_file_report_reads_the_closed_form_tolerances():
    chart = Path(__file__).parent / "golden" / "hyperbolic_graph_chart.txt"
    rep = analysis.analyze_immersion(exprs.immersion_from_file(str(chart)),
                                     ((-0.5, 0.5),) * 3, (3, 3, 3))
    assert (rep["identities"]["tau"], rep["soliton"]["tau"]) == TAU[False]


def test_principal_curvatures_compare_at_the_given_tolerance():
    # the closed-form fit gate, not a looser tolerance of the comparator's own
    agrees = catalog.EXPECTATION_KEYS["principal_curvatures"][1]
    tol = TAU[False][1]
    assert agrees((1.0, 1.0, 0.0), (1.0, 0.0, 1.0), tol)
    assert not agrees((1.0, 1.0, 0.0), (1.0, 1.0 + 1e-5, 0.0), tol)
    assert not agrees((1.0, 1.0, 0.0), (1.0, 1.0), tol)
