"""Catalog entries: defining constraints, identity suites, manifest shape,
the tolerance table every gate reads, and the chart text of the closed-form
entries."""

import json
from pathlib import Path

import numpy as np
import pytest

from minksoliton import analysis, catalog, exprs
from minksoliton.cli import main
from minksoliton.hypersurface import GeometryBatch, grid_points
from minksoliton.lorentz import is_self_adjoint
from minksoliton.soliton import TAU


def test_every_entry_satisfies_its_constraint():
    # the goldens all run at c = 1, where a chart reading c for 1/c passes
    for name, entry in catalog.ENTRIES.items():
        if entry.constraint is None:
            continue
        variants = [{}] + [{"c": c} for c in (0.5, 2.0, 3.7)
                           if "c" in entry.defaults]
        for overrides in variants:
            imm, params = entry.build(**overrides)
            grid = grid_points(entry.safe_box(params), (4, 4, 4))
            geo = GeometryBatch(imm, grid)
            res = entry.constraint(geo.x, params)
            assert np.max(res) < 1e-12, (name, overrides)


@pytest.mark.parametrize("name", list(catalog.CHARTS))
def test_chart_text_reads_exactly_the_entry_parameters(name):
    # a parameter the text does not read would be accepted and ignored
    components = exprs.parse_chart_file(catalog.CHARTS[name])
    names = set().union(*(e.names() for e in components))
    assert names - set(exprs.VARIABLES) == set(catalog.get(name).defaults)


@pytest.mark.parametrize("name", list(catalog.CHARTS))
def test_chart_text_as_a_file_gives_the_catalog_report(name, tmp_path):
    entry = catalog.get(name)
    chart = tmp_path / f"{name}.txt"
    chart.write_text(catalog.CHARTS[name])
    box = ",".join(f"{lo!r}:{hi!r}" for lo, hi in entry.safe_box(entry.defaults))
    params = [arg for k, v in entry.defaults.items()
              for arg in ("--param", f"{k}={v!r}")]

    def report(*argv):
        out = tmp_path / "report.json"
        assert main(["analyze", *argv, "--format", "json",
                     "--out", str(out)]) == 0
        return json.loads(out.read_text())

    from_file = report("--entry", str(chart), f"--box={box}", *params)
    from_entry = report("--entry", name)
    assert from_file["soliton"] == from_entry["soliton"]
    shared = from_file["identities"].keys() & from_entry["identities"].keys()
    assert len(shared) > 1
    for key in shared:
        assert from_file["identities"][key] == from_entry["identities"][key], key


def test_every_entry_passes_identity_suite():
    for name, entry in catalog.ENTRIES.items():
        imm, params = entry.build()
        grid = grid_points(entry.safe_box(params), (3, 3, 3))
        geo = GeometryBatch(imm, grid)
        ids = {key: np.max(row) for key, row in geo.identities.items()}
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
