"""Soliton machinery: Lie-derivative routes, lambda fitting, verdicts,
and the universal position-field identities."""

from collections import namedtuple

import numpy as np
import pytest

from minksoliton import catalog, jets
from minksoliton.hypersurface import (GeometryBatch, Immersion,
                                      geometry_block, grid_points,
                                      ricci_gauss)
from minksoliton.soliton import (TAU, Verdict, fit_lambda_pointwise,
                                 identity_residuals, lie_closed_form_batch)

ENTRY_GRIDS = {}


Fit = namedtuple("Fit", "lambda_fit lambda_spread residual_sup verdict")


def fit(geo, mode="corrected", tau=TAU[False][1]):
    """The lambda fit in one Ricci mode."""
    ric = ricci_gauss(geo.A, geo.g)
    if mode == "corrected":
        ric = geo.epsilon * ric
    return Fit(*fit_lambda_pointwise(geo, ric, tau)[0])


def residual(geo, lam):
    """sup over the batch of |L/2 + Ric - lam*g| / |g|, component max-norms."""
    ric = geo.epsilon * ricci_gauss(geo.A, geo.g)
    lhs = 0.5 * lie_closed_form_batch(geo) + ric
    res = np.max(np.abs(lhs - lam * geo.g), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(geo.g), axis=(1, 2)))
    return float(np.max(res / scale))


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
    lie = geometry_block(imm, grid[4:5]).lie_coordinate[0]
    assert np.max(np.abs(lie)) < 1e-12


def test_lie_derivative_ruling_component():
    # x_T = w * d/dw on the Lorentzian cylinder: (L g)(dw, dw)/2 = 1
    imm, grid, _ = entry_grid("pseudospherical_cylinder")
    geo = geometry_block(imm, np.array([[0.3, 1.0, 0.7]]))
    lie = geo.lie_coordinate[0]
    assert lie[2, 2] / 2.0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lie, lie_closed_form_batch(geo)[0], atol=1e-11)


def test_lie_derivative_flat_plane_euler_field():
    def chart(u, v, w):
        return [u, v, w, jets.constant(1.0, u.shape)]
    imm = Immersion("plane", chart)
    geo = geometry_block(imm, np.array([[0.4, -0.2, 0.7]]))
    lie = geo.lie_coordinate[0]
    assert np.allclose(lie / 2.0, geo.g[0], atol=1e-13)


def test_closed_form_zero_operator():
    geo = GeometryBatch(Immersion(
        "plane", lambda u, v, w: [u, v, w, jets.constant(0.5, u.shape)]),
        [0.1, 0.2, 0.3])
    geo.h[:] = 0.0  # the second fundamental form of a zero shape operator
    assert np.allclose(lie_closed_form_batch(geo)[0], 2.0 * geo.g[0])


def test_route_agreement_all_entries():
    for name in catalog.ENTRIES:
        imm, grid, _ = entry_grid(name)
        route = GeometryBatch(imm, grid).identities["route_agreement"]
        assert np.max(route) < 1e-7, name


def test_soliton_residual_cylinder_lambda_one():
    imm, grid, _ = entry_grid("pseudospherical_cylinder")
    assert residual(GeometryBatch(imm, grid), 1.0) < 1e-7


def test_soliton_residual_graph_no_lambda_works():
    imm, grid, _ = entry_grid("graph_lorentzian")
    geo = GeometryBatch(imm, grid)
    best = min(residual(geo, lam) for lam in np.linspace(-5.0, 5.0, 101))
    assert best > 1e-2


def test_fit_lambda_de_sitter():
    imm, grid, entry = entry_grid("de_sitter")
    rep = fit(GeometryBatch(imm, grid), tau=TAU[entry.is_ode][1])
    assert rep.lambda_fit == pytest.approx(2.0, abs=1e-9)
    assert rep.lambda_spread < 1e-9
    assert rep.verdict is Verdict.SHRINKING


def test_fit_lambda_generalized_cylinder():
    imm, grid, entry = entry_grid("generalized_cylinder_I")
    geo = GeometryBatch(imm, grid)
    rep = fit(geo, tau=TAU[entry.is_ode][1])
    assert rep.lambda_fit == pytest.approx(1.0, abs=1e-9)
    assert rep.lambda_spread < 1e-9
    assert np.max(np.abs(geo.epsilon * ricci_gauss(geo.A, geo.g))) < 1e-9


def test_fit_lambda_hyperbolic_cylinder_c2_not_a_soliton():
    imm, grid, entry = entry_grid("hyperbolic_cylinder", c=2.0)
    geo = GeometryBatch(imm, grid)
    for mode in ("corrected", "paper_form"):
        rep = fit(geo, mode, tau=TAU[entry.is_ode][1])
        assert rep.verdict is Verdict.NOT_A_SOLITON
        assert rep.lambda_spread > TAU[entry.is_ode][1]


def test_fit_lambda_hyperbolic_cylinder_c1_paper_form():
    imm, grid, entry = entry_grid("hyperbolic_cylinder")
    geo = GeometryBatch(imm, grid)
    rep = fit(geo, "paper_form", tau=TAU[entry.is_ode][1])
    assert rep.lambda_fit == pytest.approx(1.0, abs=1e-9)
    assert rep.verdict is Verdict.SHRINKING
    rep_c = fit(geo, "corrected", tau=TAU[entry.is_ode][1])
    assert rep_c.verdict is Verdict.NOT_A_SOLITON


def test_generalized_umbilical_soliton_holds_on_central_slice():
    """At a = 1 the soliton equation with lambda = a^2 + 1 is exact on the
    s = 0 slice (where the support function equals -a) and fails off it."""
    imm, _, entry = entry_grid("generalized_umbilical")
    slice_grid = grid_points(((-1e-12, 1e-12), (-0.8, 0.8), (-0.6, 0.6)),
                             (2, 4, 4))
    assert residual(GeometryBatch(imm, slice_grid), 2.0) < 1e-9
    full_grid = grid_points(entry.safe_box(entry.defaults), (5, 4, 4))
    assert residual(GeometryBatch(imm, full_grid), 2.0) > 1e-2


def test_position_field_identities_universal():
    for name in catalog.ENTRIES:
        imm, grid, entry = entry_grid(name)
        first, second = np.max(
            GeometryBatch(imm, grid).identities["lemma1"], axis=1)
        assert first < TAU[entry.is_ode][0], name
        assert second < TAU[entry.is_ode][0], name


def test_position_identity_pieces_vanish_on_de_sitter():
    imm, grid, _ = entry_grid("de_sitter")
    geo = geometry_block(imm, grid)
    assert np.max(np.abs(geo.drho)) < 1e-11
    AxT = np.einsum('nkl,nl->nk', geo.A, geo.xT)
    assert np.max(np.abs(AxT)) < 1e-11


def test_position_identity_plane_exact():
    def chart(u, v, w):
        return [u, v, w, jets.constant(1.0, u.shape)]
    imm = Immersion("plane", chart)
    geo = GeometryBatch(imm, grid_points(((-1, 1),) * 3, (3, 3, 3)))
    first, second = np.max(geo.identities["lemma1"], axis=1)
    assert first < 1e-13 and second < 1e-13


def test_identity_rows_keep_a_nan_component():
    # a NaN in any component at one point is that point's residual
    imm, grid, _ = entry_grid("de_sitter")
    geo = geometry_block(imm, grid)
    geo.gA[-1, 0, 1] = np.nan
    geo.nabla_A[-1, 2, 2, 2] = np.nan
    rows = identity_residuals(geo)
    for key in ("shape_self_adjoint", "codazzi_residual"):
        assert np.isnan(rows[key][-1]), key
        assert np.all(np.isfinite(rows[key][:-1])), key


def test_gradient_check_universal():
    for name in catalog.ENTRIES:
        imm, grid, _ = entry_grid(name)
        rows = GeometryBatch(imm, grid).identities
        assert np.max(rows["gradient_check"]) < 1e-7, name


def test_gradient_check_cylinder_field_is_ruling():
    imm, grid, _ = entry_grid("hyperbolic_cylinder")
    geo = GeometryBatch(imm, grid)
    xT = geo.xT
    # chart components (0, 0, w)
    assert np.max(np.abs(xT[:, 0])) < 1e-11
    assert np.max(np.abs(xT[:, 1])) < 1e-11
    assert np.allclose(xT[:, 2], grid[:, 2], atol=1e-11)
    f = 0.5 * (-1.0 + grid[:, 2] ** 2)  # <x,x>/2 on the unit-c chart
    assert np.allclose(geometry_block(imm, grid).f, f, atol=1e-11)


def test_hyperbolic_space_gradient_constant_potential():
    imm, grid, _ = entry_grid("hyperbolic_space")
    geo = geometry_block(imm, grid)
    assert np.allclose(geo.f, -0.5, atol=1e-12)
    assert np.max(geo.identities["gradient_check"]) < 1e-11


def test_negative_controls_fail_soliton_pass_identities():
    for name in ("graph_lorentzian", "graph_spacelike"):
        imm, grid, entry = entry_grid(name)
        geo = GeometryBatch(imm, grid)
        rep = fit(geo, tau=TAU[entry.is_ode][1])
        assert rep.verdict is Verdict.NOT_A_SOLITON
        assert rep.lambda_spread > 1e-2
        rows = geo.identities
        first, second = np.max(rows["lemma1"], axis=1)
        assert max(first, second, np.max(rows["gradient_check"]),
                   np.max(rows["route_agreement"])) < 1e-7


def test_grid_refinement_stability_of_lambda():
    for name in ("de_sitter", "pseudospherical_cylinder"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        box = entry.safe_box(merged)
        lam5 = fit(GeometryBatch(imm, grid_points(box, (5, 5, 5)))).lambda_fit
        lam9 = fit(GeometryBatch(imm, grid_points(box, (9, 9, 9)))).lambda_fit
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
        ric = geo.epsilon * ricci_gauss(geo.A, geo.g)
        ric_f = geo_f.epsilon * ricci_gauss(geo_f.A, geo_f.g)
        assert np.max(np.abs(ric - ric_f)) < 1e-9
        rep = fit(geo, tau=TAU[entry.is_ode][1])
        rep_f = fit(geo_f, tau=TAU[entry.is_ode][1])
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
        ric = geo.epsilon * ricci_gauss(Av, gv)
        rho = geo.rho[:, None, None]
        scale = np.maximum(1.0, np.max(np.abs(gv), axis=(1, 2)))
        res_sol = np.max(np.abs((gv + geo.epsilon * rho * h) + ric - lam * gv),
                         axis=(1, 2)) / scale
        res_ric = np.max(np.abs(ric - (lam - 1.0) * gv
                                + geo.epsilon * rho * h), axis=(1, 2)) / scale
        assert np.max(np.abs(res_sol - res_ric)) < 1e-9

