"""Hypersurface geometry: samples, Ricci routes, Codazzi, frames, and
structural classification on known charts."""

import numpy as np
import pytest

from minksoliton import catalog, jets
from minksoliton import hypersurface as hs
from minksoliton.catalog import (de_sitter_immersion,
                                 hyperbolic_cylinder_immersion,
                                 hyperbolic_space_immersion,
                                 pseudospherical_cylinder_immersion)
from minksoliton.hypersurface import (DegenerateMetric, EmptyGrid,
                                      GeometryBatch, Immersion, InvalidFrame,
                                      classify_structure, codazzi_residual,
                                      connection_forms, grid_points,
                                      identity_diagnostics, ricci_gauss,
                                      ricci_intrinsic, sample, shape_operator)


def plane_immersion(height=1.0, sign=1.0):
    def chart(u, v, w):
        return [u, v, w, jets.constant(height, u.shape)]
    return Immersion("plane", chart, ((-2, 2), (-2, 2), (-2, 2)), sign)


def test_plane_sample():
    # orientation chosen so the normal is +e4
    s = sample(plane_immersion(sign=-1.0), [0.3, -0.2, 0.9])
    assert np.allclose(s.normal, [0, 0, 0, 1], atol=1e-14)
    assert s.epsilon == 1.0
    assert np.max(np.abs(s.shape)) == 0.0
    assert s.support == pytest.approx(1.0)
    assert np.allclose(s.tangent_position, [0.3, -0.2, 0.9])
    assert np.max(np.abs(s.ricci_intrinsic)) < 1e-14
    assert codazzi_residual(plane_immersion(), [0.1, 0.2, 0.3]) < 1e-14


def test_de_sitter_sample():
    imm = de_sitter_immersion(1.0)
    s = sample(imm, [0.4, 1.2, 0.5])
    assert s.epsilon == 1.0
    assert np.allclose(s.shape, np.eye(3), atol=1e-12)
    assert s.mean_curvature == pytest.approx(1.0, abs=1e-12)
    assert s.support == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(s.tangent_position)) < 1e-12


def test_hyperbolic_space_weingarten():
    imm = hyperbolic_space_immersion(2.0)
    A = shape_operator(imm, [0.6, 1.0, 0.7])
    assert np.allclose(A, 2.0 * np.eye(3), atol=1e-11)


def test_hyperbolic_cylinder_principal_curvatures():
    imm = hyperbolic_cylinder_immersion(1.0)
    s = sample(imm, [0.8, 0.5, 0.2])
    eigs = np.sort(np.linalg.eigvals(s.shape).real)
    assert np.allclose(eigs, [0.0, 1.0, 1.0], atol=1e-10)
    assert s.epsilon == -1.0


def test_ricci_gauss_zero_operator():
    g = np.diag([-1.0, 1.0, 1.0])
    assert np.max(np.abs(ricci_gauss(np.zeros((3, 3)), g, 1.0, True))) == 0.0
    assert np.max(np.abs(ricci_gauss(np.zeros((3, 3)), g, 1.0, False))) == 0.0


def test_ricci_gauss_orthonormal_components():
    # diagonal operator in an orthonormal frame: the verbatim form gives
    # Ric(e1,e1) = -eps*a1*(a2+a3)
    for eps in (1.0, -1.0):
        g = np.diag([-eps, 1.0, 1.0])
        a = np.array([0.7, -0.4, 1.2])
        A = np.diag(a)
        ric = ricci_gauss(A, g, eps, corrected=False)
        assert ric[0, 0] == pytest.approx(-eps * a[0] * (a[1] + a[2]))
        assert ric[1, 1] == pytest.approx(a[1] * (a[0] + a[2]))
        assert ric[2, 2] == pytest.approx(a[2] * (a[0] + a[1]))
        assert abs(ric[0, 1]) + abs(ric[0, 2]) + abs(ric[1, 2]) < 1e-14


def test_de_sitter_constant_curvature_ricci():
    imm = de_sitter_immersion(1.0)
    p = [0.2, 1.3, 0.8]
    s = sample(imm, p)
    assert np.allclose(s.ricci_intrinsic, 2.0 * s.metric, atol=1e-12)
    assert np.allclose(s.ricci_extrinsic, s.ricci_intrinsic, atol=1e-12)
    # epsilon = +1: verbatim and corrected forms coincide
    assert np.allclose(s.ricci_paper_form, s.ricci_extrinsic, atol=1e-14)


def test_hyperbolic_space_ricci_sign():
    # spacelike case: corrected = intrinsic = -2c^2 g, verbatim differs by -1
    imm = hyperbolic_space_immersion(1.0)
    s = sample(imm, [0.5, 1.1, 0.9])
    assert np.allclose(s.ricci_intrinsic, -2.0 * s.metric, atol=1e-11)
    assert np.allclose(s.ricci_extrinsic, s.ricci_intrinsic, atol=1e-11)
    assert np.allclose(s.ricci_paper_form, -s.ricci_intrinsic, atol=1e-11)


def test_product_metric_ricci_blocks():
    # H^2(-c^2) x E: Ric = -c^2 g on the plane block, 0 along the line
    for c in (1.0, 2.0):
        imm = hyperbolic_cylinder_immersion(c)
        p = [0.7, 0.6, 0.4]
        s = sample(imm, p)
        ric = s.ricci_intrinsic
        g = s.metric
        assert ric[0, 0] == pytest.approx(-c * c * g[0, 0], abs=1e-10)
        assert ric[1, 1] == pytest.approx(-c * c * g[1, 1], abs=1e-10)
        assert abs(ric[2, 2]) < 1e-10
        assert abs(ric[0, 2]) + abs(ric[1, 2]) < 1e-10


def test_degenerate_metric_raises():
    def chart(u, v, w):
        # second direction collapses onto the first
        return [u, u, w, jets.constant(0.0, u.shape)]
    imm = Immersion("bad", chart, ((-1, 1),) * 3)
    with pytest.raises(DegenerateMetric):
        sample(imm, [0.1, 0.2, 0.3])


def test_null_normal_raises():
    # graph over the Lorentzian plane: the normal crosses the light cone
    # along u^2 - v^2 - w^2 = 1/4
    def chart(u, v, w):
        return [u, v, w, u * u + v * v + w * w]
    imm = Immersion("signature_crossing", chart, ((-1, 1),) * 3)
    with pytest.raises(hs.NullNormalDirection):
        # det g sits between the singular-metric and null-normal thresholds
        sample(imm, [0.5 + 2.5e-12, 0.0, 0.0])
    with pytest.raises(hs.NullNormalDirection):
        GeometryBatch(imm, np.array([[0.6, 0.1, 0.1], [0.1, 0.1, 0.1]]))
    with pytest.raises(DegenerateMetric):
        sample(imm, [0.5 + 1e-14, 0.0, 0.0])


def test_codazzi_universal_and_perturbation():
    imm = de_sitter_immersion(1.0)
    grid = grid_points(((-0.5, 0.5), (0.6, 2.2), (0.3, 5.0)), (3, 3, 3))
    geo = GeometryBatch(imm, grid)
    assert np.max(hs.codazzi_residual_batch(geo)) < 1e-12

    # inject an asymmetric constant perturbation into the shape operator and
    # recompute the covariant antisymmetry by hand: residual ~ noise scale
    noise = 1e-3
    delta = np.zeros((3, 3))
    delta[0, 1] = noise
    Gv = geo.Gamma
    nab = np.zeros((grid.shape[0], 3, 3, 3))
    for i in range(3):
        for k in range(3):
            for j in range(3):
                d = geo.dA[:, i, k, j]
                corr = np.zeros(grid.shape[0])
                Apert = geo.A + delta
                for l in range(3):
                    corr += (Gv[:, k, i, l] * Apert[:, l, j]
                             - Gv[:, l, i, j] * Apert[:, k, l])
                nab[:, i, k, j] = d + corr
    res = np.max(np.abs(nab - np.transpose(nab, (0, 3, 2, 1))))
    assert 1e-5 < res < 1e-1


# -- connection forms -----------------------------------------------------------

def test_connection_forms_flat_plane_zero():
    imm = plane_immersion()

    def frame_field(u, v, w):
        one = jets.constant(1.0, u.shape)
        zero = jets.constant(0.0, u.shape)
        return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]

    omega = connection_forms(imm, [0.1, -0.3, 0.2], frame_field, "orthonormal")
    assert np.max(np.abs(omega)) < 1e-13


def test_connection_forms_invalid_frame():
    imm = plane_immersion()

    def bad_frame(u, v, w):
        one = jets.constant(1.0, u.shape)
        zero = jets.constant(0.0, u.shape)
        two = jets.constant(2.0, u.shape)
        return [[two, zero, zero], [zero, one, zero], [zero, zero, one]]

    with pytest.raises(InvalidFrame):
        connection_forms(imm, [0.0, 0.0, 0.0], bad_frame, "orthonormal")


def _cylinder_adapted_frame():
    def frame_field(u, v, w):
        one = jets.constant(1.0, u.shape)
        zero = jets.constant(0.0, u.shape)
        return [[one, zero, zero],
                [zero, one / jets.sinh(u), zero],
                [zero, zero, one]]
    return frame_field


def test_connection_forms_cylinder_adapted_frame():
    # adapted orthonormal frame on the hyperbolic cylinder: principal frame
    # with curvatures (c, c, 0); the line direction is parallel
    imm = hyperbolic_cylinder_immersion(1.0)
    frame_field = _cylinder_adapted_frame()
    for p in ([0.7, 0.5, 0.3], [1.0, 1.2, -0.4]):
        omega = connection_forms(imm, p, frame_field, "orthonormal")
        assert abs(omega[0, 2, 2]) < 1e-10   # omega_13(e3)
        assert abs(omega[1, 2, 2]) < 1e-10   # omega_23(e3)
        # antisymmetry from metric compatibility (all-plus Gram here)
        assert np.max(np.abs(omega + np.transpose(omega, (1, 0, 2)))) < 1e-10


def test_codazzi_component_identity_on_cylinder():
    """Principal-curvature Codazzi relations in an adapted orthonormal frame.

    With constant curvatures a = (c, c, 0) the derivative sides vanish, so
    omega_ij(e_j) (a_i - a_j) = 0 and the mixed relation
    omega_ij(e_k)(a_i - a_j) = omega_ik(e_j)(a_i - a_k) must hold.
    """
    imm = hyperbolic_cylinder_immersion(1.0)
    frame_field = _cylinder_adapted_frame()
    a = np.array([1.0, 1.0, 0.0])
    gsign = np.array([1.0, 1.0, 1.0])  # all-plus Gram for eps = -1
    for p in ([0.7, 0.5, 0.3], [0.9, 1.4, 0.8]):
        omega = connection_forms(imm, p, frame_field, "orthonormal")
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                lhs = 0.0  # e_i(a_j): curvatures are constant
                rhs = gsign[j] * omega[i, j, j] * (a[i] - a[j])
                assert abs(lhs - rhs) < 1e-7
                for k in range(3):
                    if k in (i, j):
                        continue
                    assert abs(omega[i, j, k] * (a[i] - a[j])
                               - omega[i, k, j] * (a[i] - a[k])) < 1e-7


def test_connection_forms_pseudo_orthonormal_cylinder_frame():
    """The chart frame of the nilpotent cylinder is pseudo-orthonormal and
    parallel (the induced metric is constant in these coordinates)."""
    from minksoliton import frame_ode as fo
    spec = fo.FrameODESpec(a=0.0, b=fo.BFunction.constant(1.0))
    imm = fo.build_generalized_cylinder_I(spec)

    def frame_field(u, v, w):
        one = jets.constant(1.0, u.shape)
        zero = jets.constant(0.0, u.shape)
        return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]

    fr = hs.frame_at_point(imm, [0.3, 0.2, -0.4], frame_field,
                           "pseudo_orthonormal")
    assert fr.kind == "pseudo_orthonormal"
    assert np.allclose(fr.vectors, np.eye(3))
    assert np.max(np.abs(fr.connection_forms)) < 1e-10
    # the shape operator in this frame is the canonical nilpotent block
    A = hs.shape_operator(imm, [0.3, 0.2, -0.4])
    assert abs(A[1, 0]) == pytest.approx(1.0, abs=1e-10)
    A[1, 0] = 0.0
    assert np.max(np.abs(A)) < 1e-10


# -- structural classification ----------------------------------------------------

def test_classify_structure_hyperbolic_space():
    imm = hyperbolic_space_immersion(1.0)
    grid = grid_points(((0.3, 1.2), (0.4, 2.7), (0.2, 6.0)), (3, 3, 3))
    v = classify_structure(imm, grid)
    assert v.totally_umbilical and v.isoparametric and v.constant_mean_curvature
    assert v.generalized_constant_ratio  # vacuous: x_T = 0 everywhere


def test_classify_structure_cylinders():
    imm = pseudospherical_cylinder_immersion(1.0)
    grid = grid_points(((-0.8, 0.8), (0.2, 6.0), (0.15, 1.1)), (3, 3, 3))
    v = classify_structure(imm, grid)
    assert not v.totally_umbilical
    assert v.isoparametric
    assert v.generalized_constant_ratio
    assert v.constant_mean_curvature


def test_classify_structure_graph_is_nothing():
    from minksoliton.catalog import graph_lorentzian_immersion
    imm = graph_lorentzian_immersion()
    grid = grid_points(((-0.4, 0.45), (-0.38, 0.42), (-0.45, 0.4)), (3, 3, 3))
    v = classify_structure(imm, grid)
    assert not v.totally_umbilical
    assert not v.isoparametric
    assert not v.constant_mean_curvature


def test_empty_grid_raises():
    imm = de_sitter_immersion(1.0)
    with pytest.raises(EmptyGrid):
        classify_structure(imm, np.zeros((0, 3)))


def test_identity_suite_batches():
    imm = pseudospherical_cylinder_immersion(2.0)
    grid = grid_points(((-0.8, 0.8), (0.2, 6.0), (0.15, 1.1)), (4, 4, 4))
    geo = GeometryBatch(imm, grid)
    ids = identity_diagnostics(geo)
    assert max(ids.values()) < 1e-9


def test_geometry_batch_holds_values_and_first_partials():
    # d* arrays carry the chart derivative on axis 1: d*[:, m] = d_m value
    partials = {"dg": "g", "dN": "N", "dA": "A", "dGamma": "Gamma",
                "drho": "rho", "dxT": "xT", "df": "f"}
    step = 1e-5
    for name in ("hyperbolic_space", "generalized_umbilical"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        box = [(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
               for lo, hi in entry.safe_box(merged)]
        grid = grid_points(box, (2, 2, 2))
        geo = GeometryBatch(imm, grid)
        for attr, val in vars(geo).items():
            assert not isinstance(val, (jets.Jet, list, tuple)), attr
            if isinstance(val, np.ndarray):
                assert val.dtype == np.float64, attr
                assert val.flags.c_contiguous, attr
                assert val.shape[0] == len(grid), attr
        assert set(partials) | set(partials.values()) <= set(vars(geo))
        for m in range(3):
            shift = np.zeros(3)
            shift[m] = step
            up = GeometryBatch(imm, grid + shift)
            down = GeometryBatch(imm, grid - shift)
            for d, value in partials.items():
                fd = (getattr(up, value) - getattr(down, value)) / (2 * step)
                assert np.max(np.abs(getattr(geo, d)[:, m] - fd)) < 1e-6, \
                    (name, d, m)


def test_grid_points_validation():
    with pytest.raises(ValueError):
        grid_points(((-1, 1), (-1, 1), (-1, 1)), (1, 2, 2))


def test_mean_curvature_is_exactly_trace_over_three():
    imm = hyperbolic_cylinder_immersion(1.3)
    s = sample(imm, [0.7, 0.6, 0.4])
    assert s.mean_curvature == (s.shape[0, 0] + s.shape[1, 1]
                                + s.shape[2, 2]) / 3.0
