"""Report assembly: classification histograms, consistency-block rules,
and expectation bookkeeping."""

import dataclasses
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from minksoliton import analysis, canonical, catalog, exprs, lorentz
from minksoliton.cli import CHART_BOX
from minksoliton.hypersurface import GeometryBatch, grid_points


def test_histogram_sums_to_grid_size():
    rep = analysis.analyze_entry("hyperbolic_cylinder", grid_counts=(3, 4, 2))
    hist = rep["classification"]["form_histogram"]
    assert sum(hist.values()) == 24
    assert rep["grid"]["n_points"] == 24


def test_ambiguous_points_are_counted(monkeypatch):
    from minksoliton import lorentz
    original = lorentz.classify_batch

    def flaky(A, g=None, **kw):
        forms = original(A, g, **kw)
        ambiguous = forms.ambiguous.copy()
        ambiguous[1::2] = True
        return dataclasses.replace(forms, ambiguous=ambiguous)

    monkeypatch.setattr(analysis, "classify_batch", flaky)
    rep = analysis.analyze_entry("de_sitter", grid_counts=(2, 2, 2))
    hist = rep["classification"]["form_histogram"]
    assert hist.get("ambiguous", 0) == 4
    assert hist["diagonalizable"] == 4


def test_consistency_block_needs_matching_convention():
    # the case systems use the uncorrected convention, so on a spacelike
    # soliton the block feeds them the paper_form constant: the corrected
    # one, of opposite sign, leaves the systems far from solved
    rep = analysis.analyze_entry("hyperbolic_space", grid_counts=(3, 3, 3))
    sol = rep["soliton"]
    block = sol["case_system_consistency"]
    assert block["convention"] == "paper_form"
    assert sol["paper_form"]["lambda_fit"] == pytest.approx(-sol["lambda_fit"])
    entry = catalog.get("hyperbolic_space")
    imm, merged = entry.build()
    geo = GeometryBatch(imm, grid_points(entry.safe_box(merged), (3, 3, 3)))
    forms = lorentz.classify_batch(geo.A, geo.g)
    assert not forms.ambiguous.any()
    at_corrected = canonical.consistency_residual(
        np.array(lorentz.VARIANTS, dtype=object)[forms.variant],
        forms.parameters, int(geo.epsilon), geo.rho, sol["lambda_fit"])
    assert at_corrected > 1.0
    assert block["max_residual"] < 1e-9
    assert block["points_checked"] == 27


def test_consistency_block_absent_for_non_solitons():
    rep = analysis.analyze_entry("graph_lorentzian", grid_counts=(3, 3, 3))
    assert "case_system_consistency" not in rep["soliton"]


HEADLINE_KEYS = ["lambda_fit", "lambda_spread", "residual_sup", "verdict",
                 "tau", "headline_mode", "paper_form"]
PAPER_FORM_KEYS = ["lambda_fit", "lambda_spread", "residual_sup", "verdict"]
CHART = Path(__file__).parent / "golden" / "hyperbolic_graph_chart.txt"


def _keys(obj):
    """Every dict key anywhere in ``obj``."""
    if isinstance(obj, dict):
        return set(obj).union(*map(_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    return set()


@pytest.mark.parametrize("name", list(catalog.ENTRIES) + [CHART.name])
def test_each_number_appears_once_in_the_report(name):
    if name in catalog.ENTRIES:
        rep = analysis.analyze_entry(name)
    else:
        rep = analysis.analyze_immersion(
            exprs.immersion_from_file(str(CHART)), CHART_BOX)
    sol = rep["soliton"]
    solitons = {sol["verdict"], sol["paper_form"]["verdict"]} != \
        {"not_a_soliton"}
    assert list(sol) == HEADLINE_KEYS + ["case_system_consistency"] * solitons
    assert list(sol["paper_form"]) == PAPER_FORM_KEYS
    # each block names its own gate tolerance "tau"; no other key repeats
    assert set(sol) & set(rep["identities"]) == {"tau"}
    keys = _keys(rep)
    assert not {"corrected", "ricci_mode"} & keys
    assert not [k for k in keys if k.startswith("plain_vs_intrinsic")]


def test_de_sitter_general_radius_constant_curvature():
    c = 1.5
    imm = catalog.get("de_sitter").build(c=c)[0]
    geo = GeometryBatch(imm, np.array([[0.3, 1.0, 0.8]]))
    assert np.allclose(geo.ric_intrinsic[0], 2 * c * c * geo.g[0],
                       atol=1e-10)
    rep = analysis.analyze_entry("de_sitter", params={"c": c},
                                 grid_counts=(3, 3, 3))
    assert rep["soliton"]["lambda_fit"] == pytest.approx(2 * c * c, abs=1e-9)
    assert rep["identities"]["ricci_intrinsic_vs_2c2_g"] < 1e-9


def test_orientation_override_flows_through():
    rep = analysis.analyze_entry("de_sitter", grid_counts=(2, 2, 2),
                                 orientation_override=-1.0)
    # curvature parameters negate, soliton data unchanged
    assert rep["classification"]["center_form"]["parameters"] == \
        pytest.approx([-1.0, -1.0, -1.0], abs=1e-10)
    assert rep["soliton"]["lambda_fit"] == pytest.approx(2.0, abs=1e-9)


def test_pointwise_table_shape_and_columns():
    entry = catalog.get("de_sitter")
    imm, merged = entry.build()
    header, rows = analysis.pointwise_table(
        analysis.analyze_immersion(imm, entry.safe_box(merged), (3, 3, 3)))
    assert header[:3] == ("u1", "u2", "u3")
    assert len(rows) == 27
    assert all(len(r) == len(header) for r in rows)
    lam_col = header.index("lambda_corrected")
    assert all(abs(r[lam_col] - 2.0) < 1e-9 for r in rows)


def test_expectation_table_has_no_placeholder_rows():
    for name in catalog.ENTRIES:
        rep = analysis.analyze_entry(name, grid_counts=(2, 2, 2))
        for row in rep["expectations"]:
            assert row["source"] in ("claimed", "derived", "exact")
            if row["agrees"] is None:
                # informational rows only: no computed counterpart exists
                assert row["computed"] is None


IDENTITY_ROWS = ("normal_orthogonality", "normal_unit",
                 "position_decomposition", "shape_self_adjoint",
                 "weingarten_tangency", "codazzi_residual",
                 "gauss_vs_intrinsic", "route_agreement", "lemma1",
                 "gradient_check")


def test_identity_gate_fails_closed_on_nan(monkeypatch, capsys):
    # a NaN at one point of any row of the table fails the gate
    from minksoliton import hypersurface
    from minksoliton.cli import main
    original = hypersurface.identity_residuals
    for key in IDENTITY_ROWS:
        seen = []

        def nan_at_last_point(geo):
            table = original(geo)
            seen.append(tuple(table))
            table[key][..., -1] = np.nan
            return table

        monkeypatch.setattr(hypersurface, "identity_residuals",
                            nan_at_last_point)
        rep = analysis.analyze_entry("de_sitter", grid_counts=(3, 3, 3))
        assert seen == [IDENTITY_ROWS]  # the table is every gated row
        assert rep["identities"]["pass"] is False, key
        assert main(["analyze", "--entry", "de_sitter", "--grid", "3,3,3",
                     "--format", "json"]) == 2, key
        capsys.readouterr()


def test_one_pass_per_analysis(monkeypatch):
    from minksoliton import hypersurface, soliton
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    targets = [(analysis, "GeometryBatch")]
    # these under every name a package module binds them to
    for fn in (lorentz.char_poly, hypersurface.ricci_gauss,
               soliton.lie_closed_form_batch, soliton.identity_residuals):
        targets += [(module, fn.__name__)
                    for name, module in sys.modules.items()
                    if name.startswith("minksoliton.")
                    and getattr(module, fn.__name__, None) is fn]
    for module, name in targets:
        monkeypatch.setattr(module, name, counted(module, name))
    rep = analysis.analyze_entry("de_sitter", params={"c": 1.5},
                                 grid_counts=(3, 3, 3))
    analysis.pointwise_table(rep)
    assert calls == {"GeometryBatch": 1, "ricci_gauss": 1,
                     "lie_closed_form_batch": 1, "identity_residuals": 1,
                     "char_poly": 1}


@pytest.mark.parametrize("name", ["hyperbolic_space",
                                  "generalized_umbilical_varB"])
def test_analysis_peak_memory_at_21_cubed(name):
    # a 21^3 analysis keeps 79 doubles per point, about 5.6 MiB; the jets
    # and arrays of one block come on top, and an array that only the block
    # reads must not be kept for the whole batch.  Products in slice runs
    # hold no gathered pair rows: the peaks read 13.57 and 13.89 MiB, and
    # 14.43 and 15.22 MiB while every product gathered
    analysis.analyze_entry(name)  # imports and the frame table, untraced
    tracemalloc.start()
    try:
        analysis.analyze_entry(name, grid_counts=(21, 21, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14.5 * 2**20, peak / 2**20


def test_public_names_resolve():
    import minksoliton
    assert set(minksoliton.__all__) == {
        "CaseSystem", "FormVariant", "Immersion", "Jet", "Verdict",
        "analyze_entry", "analyze_immersion", "grid_points", "mink_inner",
        "ricci_gauss", "sweep"}
    missing = [n for n in minksoliton.__all__ if not hasattr(minksoliton, n)]
    assert missing == []
    namespace = {}
    exec("from minksoliton import *", namespace)
    assert set(minksoliton.__all__) <= set(namespace)
