"""Catalog entries: defining constraints, identity suites, manifest shape."""

import numpy as np
import pytest
from scalar_reference import identity_table

from minksoliton import catalog
from minksoliton.hypersurface import GeometryBatch, grid_points
from minksoliton.lorentz import is_self_adjoint


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
        assert max(ids.values()) < entry.tau_identity, (name, ids)


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
    from minksoliton.analysis import analyze_entry
    rep = analyze_entry("de_sitter", grid_counts=(3, 3, 3))
    row = next(r for r in rep["expectations"] if r["key"] == "lambda_claimed")
    # claimed constants stay claimed; the computed value is the fit
    assert row["claimed"] == [1.0, 3.0]
    assert row["computed"] == pytest.approx(2.0, abs=1e-9)
    assert row["agrees"] is False
