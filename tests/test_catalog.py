"""Catalog entries: defining constraints, identity suites, manifest shape,
the tolerance table every gate reads, the chart text of every entry, and
the null-curve entries against their builders on the frame ODE."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scalar_reference import frame_route_entry

from minksoliton import analysis, catalog, exprs
from minksoliton.cli import main
from minksoliton.hypersurface import KEPT, GeometryBatch, grid_points
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


def test_every_entry_is_chart_text():
    assert set(catalog.CHARTS) == set(catalog.ENTRIES)
    integrated = {name for name, e in catalog.ENTRIES.items() if e.is_ode}
    assert integrated == {"generalized_umbilical_varB"}


@pytest.mark.parametrize("name", list(catalog.CHARTS))
def test_chart_text_reads_exactly_the_entry_parameters(name):
    # a parameter the text does not read would be accepted and ignored
    components, b = exprs.parse_chart_file(catalog.CHARTS[name])
    names = set().union(*(e.names() for e in components))
    if b is not None:
        names |= b.names()
    assert names - set(exprs.RESERVED) == set(catalog.get(name).defaults)


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

    from_file = report("--entry", str(chart), f"--box={box}",
                       f"--orientation={entry.orientation_sign:g}", *params)
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


def test_chart_file_report_reads_the_closed_form_tolerances(tmp_path):
    chart = Path(__file__).parent / "golden" / "hyperbolic_graph_chart.txt"
    rep = analysis.analyze_immersion(exprs.immersion_from_file(str(chart)),
                                     ((-0.5, 0.5),) * 3, (3, 3, 3))
    assert (rep["identities"]["tau"], rep["soliton"]["tau"]) == TAU[False]
    # a chart file that declares B integrates the frame ODE
    declared = tmp_path / "varB.txt"
    declared.write_text(catalog.CHARTS["generalized_umbilical_varB"])
    rep = analysis.analyze_immersion(
        exprs.immersion_from_file(str(declared), {"a": 1.0}),
        ((-0.5, 0.5),) * 3, (3, 3, 3))
    assert (rep["identities"]["tau"], rep["soliton"]["tau"]) == TAU[True]


def test_principal_curvatures_compare_at_the_given_tolerance():
    # the closed-form fit gate, not a looser tolerance of the comparator's own
    agrees = catalog.EXPECTATION_KEYS["principal_curvatures"][1]
    tol = TAU[False][1]
    assert agrees((1.0, 1.0, 0.0), (1.0, 0.0, 1.0), tol)
    assert not agrees((1.0, 1.0, 0.0), (1.0, 1.0 + 1e-5, 0.0), tol)
    assert not agrees((1.0, 1.0, 0.0), (1.0, 1.0), tol)


# -- the constant-B null-curve entries against the frame ODE --------------------
# Their chart text is the closed-form flow of the frame system; the frame-ODE
# route integrates the same system by RK4, so the two agree to its error.

SECOND_ROUTE = (
    [("generalized_umbilical", {"a": a, "b_const": b})
     for a, b in ((1.0, 1.0), (0.5, 2.0), (2.0, 0.7), (2.0, 2.0), (-1.0, 1.0),
                  (1.0, -1.5), (0.01, 1.0))]
    + [("generalized_cylinder_I", {"b_const": b}) for b in (1.0, -1.5, 0.5, 2.0)])


@pytest.mark.parametrize("name, params", SECOND_ROUTE, ids=lambda v: (
    ",".join(f"{k}={x:g}" for k, x in v.items()) if isinstance(v, dict) else v))
def test_closed_form_entry_matches_frame_route(name, params):
    entry = catalog.get(name)
    imm, merged = entry.build(**params)
    pts = grid_points(entry.safe_box(merged), (11, 11, 11))
    closed = GeometryBatch(imm, pts)
    ode = GeometryBatch(frame_route_entry(name).build(**params)[0], pts)
    for key in KEPT:
        want, got = getattr(ode, key), getattr(closed, key)
        bound = 1e-10 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= bound, (key, bound)


def leaves(obj, path=""):
    """(path, value) of every leaf of a report."""
    if isinstance(obj, dict):
        return [leaf for k, v in obj.items() for leaf in leaves(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [leaf for k, v in enumerate(obj) for leaf in leaves(v, f"{path}[{k}]")]
    return [(path, obj)]


def printed_form(report):
    """The report's centre form, rounded as the text report prints it."""
    form = report["classification"]["center_form"]
    form["parameters"] = [f"{p:.9g}" for p in form["parameters"]]
    form["minimal_polynomial"] = [round(c, 9) + 0.0
                                  for c in form["minimal_polynomial"]]
    return form


@pytest.mark.parametrize("name", ["generalized_umbilical",
                                  "generalized_cylinder_I"])
def test_closed_form_report_matches_frame_route(name, monkeypatch):
    closed = analysis.analyze_entry(name)
    monkeypatch.setitem(catalog.ENTRIES, name, frame_route_entry(name))
    ode = analysis.analyze_entry(name)
    # what the text report prints of the classification is the same
    for rep in (closed, ode):
        printed_form(rep)
    want, got = leaves(ode), leaves(closed)
    assert [path for path, _ in got] == [path for path, _ in want]
    for (path, w), (_, g) in zip(want, got):
        if path in (".identities.tau", ".soliton.tau"):
            assert g < w, path  # the closed-form gates are the tighter
        elif isinstance(w, float):
            assert isinstance(g, float), path
            assert (math.isnan(w) and math.isnan(g)) or \
                abs(g - w) <= 1e-10 * max(1.0, abs(w)), (path, w, g)
        else:  # verdicts, forms, histogram counts, flags and text
            assert g == w, (path, w, g)


# -- the varying-B entry against the builder its text replaced -------------------
# Both routes read one frame table; the text starts the curve at the origin
# and adds the offset -1/a to x3, where the builder added -Z(0)/a, so they
# differ by round-off only.

@pytest.mark.parametrize("a", [1.0, 0.5, 1.7, -1.3, 2.0, 0.2])
def test_varying_b_text_matches_reference_builder(a):
    name = "generalized_umbilical_varB"
    entry = catalog.get(name)
    imm, merged = entry.build(a=a)
    pts = grid_points(entry.safe_box(merged), (11, 11, 11))
    text = GeometryBatch(imm, pts)
    ode = GeometryBatch(frame_route_entry(name).build(a=a)[0], pts)
    for key in KEPT:
        want, got = getattr(ode, key), getattr(text, key)
        bound = 1e-12 * max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= bound, (key, bound)


@pytest.mark.parametrize("a", [1.0, 0.5, 1.7, -1.3, 2.0, 0.2])
def test_varying_b_report_matches_reference_builder(a, monkeypatch):
    name = "generalized_umbilical_varB"
    text = analysis.analyze_entry(name, {"a": a})
    monkeypatch.setitem(catalog.ENTRIES, name, frame_route_entry(name))
    ode = analysis.analyze_entry(name, {"a": a})
    for rep in (text, ode):
        assert rep["identities"]["pass"]
        assert (rep["identities"]["tau"], rep["soliton"]["tau"]) == TAU[True]
    for block in (lambda r: r["soliton"], lambda r: r["soliton"]["paper_form"]):
        assert block(text)["verdict"] == block(ode)["verdict"]
    assert text["classification"]["form_histogram"] == \
        ode["classification"]["form_histogram"]
    assert printed_form(text) == printed_form(ode)
