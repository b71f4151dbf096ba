"""Null-curve frame integration and the ruled hypersurfaces built on it."""

import numpy as np
import pytest

from minksoliton import frame_ode as fo
from minksoliton import hypersurface as hs
from minksoliton import jets
from minksoliton.lorentz import minimal_polynomial, mink_inner


def spec_umbilical(a=1.0, b=None, alpha0=None):
    return fo.FrameODESpec(
        a=a, b=b or fo.BFunction.constant(1.0),
        alpha0=np.array([0.0, 0.0, -1.0 / a, 0.0]) if alpha0 is None else alpha0)


def test_initial_frame_gram_exact():
    state = fo.FrameODESpec(a=1.0, b=fo.BFunction.constant(1.0)).initial_state()
    assert state.gram_residual() == 0.0


def test_system_matrix_preserves_gram_algebraically():
    # d/ds (F eta F^T) = M G + G M^T must vanish identically on the target Gram
    rng = np.random.default_rng(1)
    for _ in range(50):
        spec = fo.FrameODESpec(a=rng.uniform(-3, 3),
                               b=fo.BFunction.constant(rng.uniform(-3, 3)))
        s = rng.uniform(-1, 1)
        M = spec.coefficient_matrix(s)[1:, 1:]
        G = fo.GRAM_TARGET
        assert np.max(np.abs(M @ G + G @ M.T)) == 0.0


def test_degenerate_zero_system_keeps_frame_constant():
    spec = fo.FrameODESpec(a=0.0, b=fo.BFunction.constant(0.0))
    state, drift = fo.integrate_frame(spec, 0.9, 1e-2)
    assert drift < 1e-15
    assert np.allclose(state.frame_matrix(), fo.DEFAULT_INITIAL_FRAME)
    # alpha still moves along the constant X
    assert np.allclose(state.alpha, 0.9 * fo.DEFAULT_INITIAL_FRAME[0])


def test_integrate_zero_gives_initial_state():
    spec = spec_umbilical()
    state, drift = fo.integrate_frame(spec, 0.0)
    assert drift == 0.0
    assert np.allclose(state.alpha, spec.alpha0)
    assert np.allclose(state.frame_matrix(), fo.DEFAULT_INITIAL_FRAME)


def test_drift_small_at_default_step():
    spec = spec_umbilical()
    _, drift = fo.integrate_frame(spec, 1.0, 1e-3)
    assert drift < 1e-9


def test_x_minus_y_constant_when_a_equals_b():
    spec = spec_umbilical(a=1.0, b=fo.BFunction.constant(1.0))
    state, _ = fo.integrate_frame(spec, 1.0, 1e-3)
    diff0 = fo.DEFAULT_INITIAL_FRAME[0] - fo.DEFAULT_INITIAL_FRAME[1]
    assert np.max(np.abs((state.X - state.Y) - diff0)) < 1e-12


def test_rk4_convergence_order():
    """Solution error halves by 16x per step halving (classical order 4).

    The Gram drift itself superconverges at order 5: for this linear system
    the leading one-step error term is an odd power of the system matrix,
    which stays inside the Gram-preserving Lie algebra.
    """
    spec = fo.FrameODESpec(a=1.0, b=fo.BFunction.offset_sin(), tau_frame=1.0)
    ref = np.vstack([fo.integrate_frame(spec, 1.0, 1e-4)[0].alpha[None, :],
                     fo.integrate_frame(spec, 1.0, 1e-4)[0].frame_matrix()])

    def sol_err(h):
        st, _ = fo.integrate_frame(spec, 1.0, h)
        cur = np.vstack([st.alpha[None, :], st.frame_matrix()])
        return np.max(np.abs(cur - ref))

    e1, e2 = sol_err(0.1), sol_err(0.05)
    order = np.log2(e1 / e2)
    assert abs(order - 4.0) < 0.3

    d1 = fo.integrate_frame(spec, 1.0, 0.1)[1]
    d2 = fo.integrate_frame(spec, 1.0, 0.05)[1]
    drift_order = np.log2(d1 / d2)
    assert drift_order > 3.7  # at least the classical rate; here it is ~5


def test_step_too_large_raises():
    spec = fo.FrameODESpec(a=2.0, b=fo.BFunction.constant(3.0), tau_frame=1e-9)
    with pytest.raises(fo.StepTooLarge):
        fo.integrate_frame(spec, 1.0, 0.25)


def test_window_exceeded_raises():
    spec = spec_umbilical()
    with pytest.raises(fo.WindowExceeded):
        fo.integrate_frame(spec, 1.5)


def test_table_interpolation_matches_direct_integration():
    spec = spec_umbilical(b=fo.BFunction.offset_sin())
    table = fo.FrameTable(spec)
    for s in (0.0, 0.3137, -0.777, 1.0, -1.0, 0.5):
        direct, _ = fo.integrate_frame(spec, s, 1e-3)
        interp = table.values_at(np.array([s]))[0]
        stacked = np.vstack([direct.alpha[None, :], direct.frame_matrix()])
        assert np.max(np.abs(interp - stacked)) < 1e-10


def test_taylor_derivatives_match_finite_differences():
    spec = spec_umbilical(b=fo.BFunction.offset_sin())
    table = fo.FrameTable(spec)
    s0 = 0.41
    tay = table.taylor_at(np.array([s0]))[0]
    h = 1e-2
    offs = np.array([-2, -1, 0, 1, 2]) * h + s0
    vals = table.values_at(offs)
    d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) \
        / (12 * h * h)
    assert np.max(np.abs(tay[1] - d1)) < 1e-7
    assert np.max(np.abs(tay[2] - d2)) < 1e-6


# -- generalized umbilical hypersurface ------------------------------------------

def test_umbilical_requires_nonzero_a():
    with pytest.raises(ValueError):
        fo.build_generalized_umbilical(
            fo.FrameODESpec(a=0.0, b=fo.BFunction.constant(1.0)))


def test_builders_require_nonzero_b():
    with pytest.raises(ValueError):
        fo.build_generalized_umbilical(
            fo.FrameODESpec(a=1.0, b=fo.BFunction.constant(0.0)))
    with pytest.raises(ValueError):
        fo.build_generalized_cylinder_I(
            fo.FrameODESpec(a=0.0, b=fo.BFunction.offset_sin(0.5, 1.0)))


def test_umbilical_unit_lorentzian_normal():
    imm = fo.build_generalized_umbilical(spec_umbilical())
    s = hs.sample(imm, [0.2, 0.5, 0.3])
    assert s.epsilon == 1.0
    assert abs(mink_inner(s.normal, s.normal) - 1.0) < 1e-12


def test_umbilical_normal_matches_closed_form():
    a = 1.0
    spec = spec_umbilical(a=a)
    imm = fo.build_generalized_umbilical(spec)
    table = fo.FrameTable(spec)
    for p in ([0.3, 0.4, 0.25], [-0.6, -0.7, 0.1], [0.0, 0.2, -0.5]):
        smp = hs.sample(imm, p)
        F = table.values_at(np.array([p[0]]))[0]
        _, X, Y, Z, W = F
        u, v = p[1], p[2]
        closed = -a * u * Y - np.sqrt(1 - a * a * v * v) * Z - a * v * W
        diff = min(np.max(np.abs(smp.normal - closed)),
                   np.max(np.abs(smp.normal + closed)))
        assert diff < 1e-10


@pytest.mark.parametrize("b", [fo.BFunction.constant(1.0),
                               fo.BFunction.offset_sin()])
def test_umbilical_minimal_polynomial(b):
    a = 1.0
    imm = fo.build_generalized_umbilical(spec_umbilical(a=a, b=b))
    imm = imm.with_orientation(-1.0)  # stated curvature sign is +a
    for p in ([0.3, 0.4, 0.25], [-0.5, 0.6, -0.3]):
        A = hs.shape_operator(imm, p)
        mp = minimal_polynomial(A, tol=1e-5)
        assert np.allclose(mp, [1.0, -2 * a, a * a], atol=1e-6)
        # the nilpotent coefficient is B(s) in the chart basis
        bval = b.value(p[0])
        assert A[1, 0] == pytest.approx(-(-1.0) * bval, abs=1e-9)


def test_umbilical_domain_error_near_v_boundary():
    imm = fo.build_generalized_umbilical(spec_umbilical())
    with pytest.raises(jets.DomainError):
        hs.sample(imm, [0.1, 0.1, 1.01])


def test_umbilical_identities_within_ode_budget():
    imm = fo.build_generalized_umbilical(
        spec_umbilical(b=fo.BFunction.offset_sin()))
    grid = hs.grid_points(((-0.8, 0.8), (-0.7, 0.7), (-0.6, 0.6)), (3, 3, 3))
    geo = hs.GeometryBatch(imm, grid)
    ids = hs.identity_diagnostics(geo)
    assert max(ids.values()) < 1e-5
    assert np.max(hs.codazzi_residual_batch(geo)) < 1e-5
    ric_i = hs.ricci_intrinsic_batch(geo)
    ric_g = hs.ricci_gauss(geo.A, geo.g, geo.epsilon)
    assert np.max(np.abs(ric_i - ric_g)) < 1e-5


# -- generalized cylinder of type I ----------------------------------------------

def test_cylinder_requires_zero_a():
    with pytest.raises(ValueError):
        fo.build_generalized_cylinder_I(spec_umbilical())


def test_cylinder_normal_is_Z_and_nilpotent_operator():
    spec = fo.FrameODESpec(a=0.0, b=fo.BFunction.constant(1.0))
    imm = fo.build_generalized_cylinder_I(spec)
    table = fo.FrameTable(spec)
    p = [0.4, 0.3, -0.5]
    s = hs.sample(imm, p)
    Z = table.values_at(np.array([p[0]]))[0][3]
    assert min(np.max(np.abs(s.normal - Z)), np.max(np.abs(s.normal + Z))) < 1e-11
    assert np.allclose(minimal_polynomial(s.shape, tol=1e-5), [1, 0, 0],
                       atol=1e-8)
    assert s.mean_curvature == pytest.approx(0.0, abs=1e-12)


def test_cylinder_flat_metric_and_ricci_zero():
    spec = fo.FrameODESpec(a=0.0, b=fo.BFunction.offset_sin())
    imm = fo.build_generalized_cylinder_I(spec)
    grid = hs.grid_points(((-0.85, 0.85), (-1, 1), (-1, 1)), (4, 3, 3))
    geo = hs.GeometryBatch(imm, grid)
    assert np.max(np.abs(hs.ricci_intrinsic_batch(geo))) < 1e-10
    assert np.max(np.abs(hs.ricci_gauss(
        geo.A, geo.g, geo.epsilon))) < 1e-10
    # det g = -1 identically in this chart
    assert np.allclose(geo.det, -1.0, atol=1e-11)


def test_cylinder_half_lie_equals_metric_on_central_slice():
    # the support function vanishes at s = 0, where x_T acts conformally
    spec = fo.FrameODESpec(a=0.0, b=fo.BFunction.constant(1.0))
    imm = fo.build_generalized_cylinder_I(spec)
    from minksoliton.soliton import lie_coordinate_batch
    slice_grid = hs.grid_points(((-1e-12, 1e-12), (-1, 1), (-1, 1)), (2, 3, 3))
    geo = hs.GeometryBatch(imm, slice_grid)
    lie = lie_coordinate_batch(geo)
    assert np.max(np.abs(0.5 * lie - geo.g)) < 1e-9
    # off the slice the support function grows like the accumulated moment
    geo2 = hs.GeometryBatch(imm, np.array([[0.5, 0.0, 0.0], [0.85, 0.2, 0.1]]))
    assert np.allclose(np.abs(geo2.rho), [0.125, 0.36125], atol=1e-9)
