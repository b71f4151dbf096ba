"""Soliton machinery: Lie-derivative routes, lambda fitting, verdicts,
and the universal position-field identities."""

import numpy as np
import pytest

from minksoliton import catalog, jets
from minksoliton.hypersurface import (GeometryBatch, Immersion, grid_points,
                                      ricci_gauss)
from minksoliton.soliton import (Verdict, fit_lambda, fit_lambda_from_geometry,
                                 gradient_check_batch, lemma1_batch,
                                 lie_closed_form_batch, lie_coordinate_batch,
                                 route_agreement_batch, soliton_residual)

ENTRY_GRIDS = {}


def entry_grid(name, counts=(3, 3, 3), **params):
    key = (name, counts, tuple(sorted(params.items())))
    if key not in ENTRY_GRIDS:
        entry = catalog.get(name)
        imm, merged = entry.build(**params)
        grid = grid_points(entry.safe_box(merged), counts)
        ENTRY_GRIDS[key] = (imm, grid, entry)
    return ENTRY_GRIDS[key]


def test_lie_derivative_zero_field_on_de_sitter():
    imm, grid, _ = entry_grid("de_sitter")
    lie = lie_coordinate_batch(GeometryBatch(imm, grid[4]))[0]
    assert np.max(np.abs(lie)) < 1e-12


def test_lie_derivative_ruling_component():
    # x_T = w * d/dw on the Lorentzian cylinder: (L g)(dw, dw)/2 = 1
    imm, grid, _ = entry_grid("pseudospherical_cylinder")
    geo = GeometryBatch(imm, [0.3, 1.0, 0.7])
    lie = lie_coordinate_batch(geo)[0]
    assert lie[2, 2] / 2.0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lie, lie_closed_form_batch(geo)[0], atol=1e-11)


def test_lie_derivative_flat_plane_euler_field():
    def chart(u, v, w):
        return [u, v, w, jets.constant(1.0, u.shape)]
    imm = Immersion("plane", chart, ((-1, 1),) * 3)
    geo = GeometryBatch(imm, [0.4, -0.2, 0.7])
    lie = lie_coordinate_batch(geo)[0]
    assert np.allclose(lie / 2.0, geo.g[0], atol=1e-13)


def test_closed_form_zero_operator():
    geo = GeometryBatch(Immersion(
        "plane", lambda u, v, w: [u, v, w, jets.constant(0.5, u.shape)],
        ((-1, 1),) * 3), [0.1, 0.2, 0.3])
    geo.h[:] = 0.0  # the second fundamental form of a zero shape operator
    assert np.allclose(lie_closed_form_batch(geo)[0], 2.0 * geo.g[0])


def test_route_agreement_all_entries():
    for name in catalog.ENTRIES:
        imm, grid, _ = entry_grid(name)
        geo = GeometryBatch(imm, grid)
        assert route_agreement_batch(geo) < 1e-7, name


def test_soliton_residual_cylinder_lambda_one():
    imm, grid, _ = entry_grid("pseudospherical_cylinder")
    assert soliton_residual(imm, grid, 1.0, "corrected") < 1e-7


def test_soliton_residual_graph_no_lambda_works():
    imm, grid, _ = entry_grid("graph_lorentzian")
    best = min(soliton_residual(imm, grid, lam, "corrected")
               for lam in np.linspace(-5.0, 5.0, 101))
    assert best > 1e-2


def test_fit_lambda_de_sitter():
    imm, grid, entry = entry_grid("de_sitter")
    rep = fit_lambda(imm, grid, "corrected", tau=entry.tau_sol)
    assert rep.lambda_fit == pytest.approx(2.0, abs=1e-9)
    assert rep.lambda_spread < 1e-9
    assert rep.verdict is Verdict.SHRINKING
    assert rep.equation_equivalence_gap < 1e-12


def test_fit_lambda_generalized_cylinder():
    imm, grid, entry = entry_grid("generalized_cylinder_I")
    rep = fit_lambda(imm, grid, "corrected", tau=entry.tau_sol)
    assert rep.lambda_fit == pytest.approx(1.0, abs=1e-9)
    assert rep.lambda_spread < 1e-9
    geo = GeometryBatch(imm, grid)
    assert np.max(np.abs(ricci_gauss(geo.A, geo.g, geo.epsilon))) < 1e-9


def test_fit_lambda_hyperbolic_cylinder_c2_not_a_soliton():
    imm, grid, entry = entry_grid("hyperbolic_cylinder", c=2.0)
    for mode in ("corrected", "paper_form"):
        rep = fit_lambda(imm, grid, mode, tau=entry.tau_sol)
        assert rep.verdict is Verdict.NOT_A_SOLITON
        assert rep.lambda_spread > entry.tau_sol


def test_fit_lambda_hyperbolic_cylinder_c1_paper_form():
    imm, grid, entry = entry_grid("hyperbolic_cylinder")
    rep = fit_lambda(imm, grid, "paper_form", tau=entry.tau_sol)
    assert rep.lambda_fit == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict is Verdict.SHRINKING
    rep_c = fit_lambda(imm, grid, "corrected", tau=entry.tau_sol)
    assert rep_c.verdict is Verdict.NOT_A_SOLITON


def test_generalized_umbilical_soliton_holds_on_central_slice():
    """At a = 1 the soliton equation with lambda = a^2 + 1 is exact on the
    s = 0 slice (where the support function equals -a) and fails off it."""
    imm, _, entry = entry_grid("generalized_umbilical")
    slice_grid = grid_points(((-1e-12, 1e-12), (-0.8, 0.8), (-0.6, 0.6)),
                             (2, 4, 4))
    assert soliton_residual(imm, slice_grid, 2.0, "corrected") < 1e-9
    full_grid = grid_points(entry.safe_box(entry.defaults), (5, 4, 4))
    assert soliton_residual(imm, full_grid, 2.0, "corrected") > 1e-2


def test_position_field_identities_universal():
    for name in catalog.ENTRIES:
        imm, grid, entry = entry_grid(name)
        first, second = lemma1_batch(GeometryBatch(imm, grid))
        assert first < entry.tau_identity, name
        assert second < entry.tau_identity, name


def test_position_identity_pieces_vanish_on_de_sitter():
    imm, grid, _ = entry_grid("de_sitter")
    geo = GeometryBatch(imm, grid)
    assert np.max(np.abs(geo.drho)) < 1e-11
    AxT = np.einsum('nkl,nl->nk', geo.A, geo.xT)
    assert np.max(np.abs(AxT)) < 1e-11


def test_position_identity_plane_exact():
    def chart(u, v, w):
        return [u, v, w, jets.constant(1.0, u.shape)]
    imm = Immersion("plane", chart, ((-1, 1),) * 3)
    first, second = lemma1_batch(
        GeometryBatch(imm, grid_points(((-1, 1),) * 3, (3, 3, 3))))
    assert first < 1e-13 and second < 1e-13


def test_gradient_check_universal():
    for name in catalog.ENTRIES:
        imm, grid, _ = entry_grid(name)
        assert gradient_check_batch(GeometryBatch(imm, grid)) < 1e-7, name


def test_gradient_check_cylinder_field_is_ruling():
    imm, grid, _ = entry_grid("hyperbolic_cylinder")
    geo = GeometryBatch(imm, grid)
    xT = geo.xT
    # chart components (0, 0, w)
    assert np.max(np.abs(xT[:, 0])) < 1e-11
    assert np.max(np.abs(xT[:, 1])) < 1e-11
    assert np.allclose(xT[:, 2], grid[:, 2], atol=1e-11)
    f = 0.5 * (-1.0 + grid[:, 2] ** 2)  # <x,x>/2 on the unit-c chart
    assert np.allclose(geo.f, f, atol=1e-11)


def test_hyperbolic_space_gradient_constant_potential():
    imm, grid, _ = entry_grid("hyperbolic_space")
    geo = GeometryBatch(imm, grid)
    assert np.allclose(geo.f, -0.5, atol=1e-12)
    assert gradient_check_batch(geo) < 1e-11


def test_negative_controls_fail_soliton_pass_identities():
    for name in ("graph_lorentzian", "graph_spacelike"):
        imm, grid, entry = entry_grid(name)
        rep = fit_lambda(imm, grid, "corrected", tau=entry.tau_sol)
        assert rep.verdict is Verdict.NOT_A_SOLITON
        assert rep.lambda_spread > 1e-2
        first, second = rep.lemma1_residuals
        assert max(first, second, rep.gradient_check,
                   rep.route_agreement) < 1e-7


def test_grid_refinement_stability_of_lambda():
    for name in ("de_sitter", "pseudospherical_cylinder"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        box = entry.safe_box(merged)
        lam5 = fit_lambda(imm, grid_points(box, (5, 5, 5)), "corrected").lambda_fit
        lam9 = fit_lambda(imm, grid_points(box, (9, 9, 9)), "corrected").lambda_fit
        assert abs(lam5 - lam9) < 1e-8


def test_normal_flip_covariance():
    for name in ("de_sitter", "hyperbolic_cylinder", "generalized_umbilical"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        flipped = imm.with_orientation(-imm.orientation_sign)
        grid = grid_points(entry.safe_box(merged), (3, 3, 3))
        geo = GeometryBatch(imm, grid)
        geo_f = GeometryBatch(flipped, grid)
        assert np.max(np.abs(geo.rho + geo_f.rho)) < 1e-9
        assert np.max(np.abs(geo.A + geo_f.A)) < 1e-9
        ric = ricci_gauss(geo.A, geo.g, geo.epsilon)
        ric_f = ricci_gauss(geo_f.A, geo_f.g, geo_f.epsilon)
        assert np.max(np.abs(ric - ric_f)) < 1e-9
        rep = fit_lambda_from_geometry(geo, tau=entry.tau_sol)
        rep_f = fit_lambda_from_geometry(geo_f, tau=entry.tau_sol)
        assert abs(rep.lambda_fit - rep_f.lambda_fit) < 1e-9
        assert rep.verdict is rep_f.verdict


def test_soliton_equation_matches_ricci_condition_for_random_lambda():
    # both sides assembled independently through the closed-form route
    rng = np.random.default_rng(3)
    names = sorted(catalog.ENTRIES)
    for _ in range(100):
        name = names[rng.integers(len(names))]
        imm, grid, _ = entry_grid(name)
        geo = GeometryBatch(imm, grid)
        lam = rng.uniform(-3.0, 3.0)
        gv, Av = geo.g, geo.A
        h = gv @ Av
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
        ric = ricci_gauss(Av, gv, geo.epsilon, corrected=True)
        rho = geo.rho[:, None, None]
        scale = np.maximum(1.0, np.max(np.abs(gv), axis=(1, 2)))
        res_sol = np.max(np.abs((gv + geo.epsilon * rho * h) + ric - lam * gv),
                         axis=(1, 2)) / scale
        res_ric = np.max(np.abs(ric - (lam - 1.0) * gv
                                + geo.epsilon * rho * h), axis=(1, 2)) / scale
        assert np.max(np.abs(res_sol - res_ric)) < 1e-9

