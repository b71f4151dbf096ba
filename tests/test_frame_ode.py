"""Null-curve frame integration, and the ruled hypersurfaces that chart
text builds on it by declaring B(s)."""

import csv
import dataclasses
import functools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from scalar_reference import (b_text, build_generalized_cylinder_I,
                              constant_b, frame_route_entry)

from minksoliton import catalog, exprs
from minksoliton import frame_ode as fo
from minksoliton import hypersurface as hs
from minksoliton import jets
from minksoliton.cli import main
from minksoliton.lorentz import classify_batch, mink_inner


def spec_umbilical(a=1.0, b=None):
    return fo.FrameODESpec(a=a, b=b or constant_b(1.0))


VARB = catalog.CHARTS["generalized_umbilical_varB"]
CYLINDER = """
    B = 2 + sin(s)
    x1 = alpha1 + v*Y1 + w*W1
    x2 = alpha2 + v*Y2 + w*W2
    x3 = alpha3 + v*Y3 + w*W3
    x4 = alpha4 + v*Y4 + w*W4
"""


def frame_chart(text=VARB, b="2 + sin(s)", **params):
    """The chart ``text`` with its B(s) = 2 + sin s replaced by ``b``, at
    a = 1 unless ``params`` set it."""
    chart = exprs.parse_chart_file(text.replace("2 + sin(s)", b))
    return exprs.chart_immersion("frame chart", chart, {"a": 1.0, **params})


def end_state(spec, s, step=None):
    """The table's state at s, integrated over the window from 0 to s."""
    window = (min(s, 0.0), max(s, 0.0))
    step = spec.step if step is None else step
    table = fo.FrameTable(dataclasses.replace(spec, window=window, step=step))
    return table.states[0 if s < 0 else -1], table.max_drift


def test_initial_frame_gram_exact():
    F = fo.DEFAULT_INITIAL_FRAME
    assert np.max(np.abs(F @ fo.MINK @ F.T - fo.GRAM_TARGET)) == 0.0


def test_system_matrix_preserves_gram_algebraically():
    # d/ds (F eta F^T) = M G + G M^T must vanish identically on the target Gram
    rng = np.random.default_rng(1)
    for _ in range(50):
        spec = fo.FrameODESpec(a=rng.uniform(-3, 3),
                               b=constant_b(rng.uniform(-3, 3)))
        s = rng.uniform(-1, 1)
        M = spec.coefficient_matrix(spec.b(s))[1:, 1:]
        G = fo.GRAM_TARGET
        assert np.max(np.abs(M @ G + G @ M.T)) == 0.0


def test_degenerate_zero_system_keeps_frame_constant():
    spec = fo.FrameODESpec(a=0.0, b=constant_b(0.0))
    state, drift = end_state(spec, 0.9, 1e-2)
    assert drift < 1e-15
    assert np.allclose(state[1:], fo.DEFAULT_INITIAL_FRAME)
    # alpha still moves along the constant X
    assert np.allclose(state[0], 0.9 * fo.DEFAULT_INITIAL_FRAME[0])


def test_integrate_zero_gives_initial_state():
    spec = spec_umbilical()
    state, drift = end_state(spec, 0.0)
    assert drift == 0.0
    assert np.all(state[0] == 0.0)
    assert np.allclose(state[1:], fo.DEFAULT_INITIAL_FRAME)


def test_drift_small_at_default_step():
    spec = spec_umbilical()
    for s in (1.0, -1.0):
        _, drift = end_state(spec, s, 1e-3)
        assert drift < 1e-9


def test_x_minus_y_constant_when_a_equals_b():
    spec = spec_umbilical(a=1.0, b=constant_b(1.0))
    state, _ = end_state(spec, 1.0, 1e-3)
    diff0 = fo.DEFAULT_INITIAL_FRAME[0] - fo.DEFAULT_INITIAL_FRAME[1]
    assert np.max(np.abs((state[1] - state[2]) - diff0)) < 1e-12


def test_rk4_convergence_order():
    """Solution error halves by 16x per step halving (classical order 4).

    The Gram drift itself superconverges at order 5: for this linear system
    the leading one-step error term is an odd power of the system matrix,
    which stays inside the Gram-preserving Lie algebra.
    """
    spec = fo.FrameODESpec(a=1.0, b=b_text("2 + sin(s)"), tau_frame=1.0)
    ref, _ = end_state(spec, 1.0, 1e-4)

    def sol_err(h):
        return np.max(np.abs(end_state(spec, 1.0, h)[0] - ref))

    e1, e2 = sol_err(0.1), sol_err(0.05)
    order = np.log2(e1 / e2)
    assert abs(order - 4.0) < 0.3

    d1 = end_state(spec, 1.0, 0.1)[1]
    d2 = end_state(spec, 1.0, 0.05)[1]
    drift_order = np.log2(d1 / d2)
    assert drift_order > 3.7  # at least the classical rate; here it is ~5


def test_step_too_large_raises():
    spec = fo.FrameODESpec(a=2.0, b=constant_b(3.0), tau_frame=1e-9)
    with pytest.raises(fo.StepTooLarge):
        end_state(spec, 1.0, 0.25)
    with pytest.raises(fo.StepTooLarge):
        fo.FrameTable(dataclasses.replace(spec, step=0.25))
    with pytest.raises(fo.StepTooLarge):  # a NaN drift fails closed
        fo.FrameTable(dataclasses.replace(spec, b=constant_b(np.nan)))
    # a table is held to its own tolerance
    fo.FrameTable(dataclasses.replace(spec, step=0.25, tau_frame=1.0))


def test_window_exceeded_raises():
    table = fo.FrameTable(spec_umbilical())
    for s in (1.5, -1.5, np.nan, np.inf, -np.inf, [0.1, np.nan]):
        with pytest.raises(fo.WindowExceeded, match=re.escape("[-1, 1]")):
            table.values_at(s)


# -- reference: the scalar per-step RK4 loop -----------------------------------
#
# The table composes each chain's RK4 step maps as 5x5 matrices in doubling
# passes.  Below is the scalar loop it replaced, which applies the four
# stages to the state one step at a time and takes one Gram residual per
# step.  The two share the grid and the state at s = 0 bit for bit; past
# s = 0 their orders of operations agree to round-off, so the tests bound
# the distance between them, and from the exact frame.
# ``ref_integrate`` runs the loop from 0 to any s, ending on a partial step.

def ref_coefficient_matrix(spec, s):
    b = spec.b(s)
    K = np.zeros((5, 5))
    K[0, 1] = 1.0
    K[1, 3] = -b
    K[2, 3] = -spec.a
    K[3, 1] = -spec.a
    K[3, 2] = -b
    return K


def ref_rk4_step(spec, s, state, h):
    k1 = ref_coefficient_matrix(spec, s) @ state
    k2 = ref_coefficient_matrix(spec, s + 0.5 * h) @ (state + 0.5 * h * k1)
    k3 = ref_coefficient_matrix(spec, s + 0.5 * h) @ (state + 0.5 * h * k2)
    k4 = ref_coefficient_matrix(spec, s + h) @ (state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_gram_residual(state):
    F = state[1:]
    return float(np.max(np.abs(F @ fo.MINK @ F.T - fo.GRAM_TARGET)))


def ref_initial_state(spec):
    return np.vstack([np.zeros((1, 4)), fo.DEFAULT_INITIAL_FRAME])


def ref_table(spec):
    lo, hi = spec.window
    step = spec.step
    n_fwd = int(round(hi / step)) if hi > 0 else 0
    n_bwd = int(round(-lo / step)) if lo < 0 else 0
    states = {0: ref_initial_state(spec)}
    drift = ref_gram_residual(states[0])
    cur = states[0]
    for k in range(n_fwd):
        cur = ref_rk4_step(spec, k * step, cur, step)
        states[k + 1] = cur
        drift = max(drift, ref_gram_residual(cur))
    cur = states[0]
    for k in range(n_bwd):
        cur = ref_rk4_step(spec, -k * step, cur, -step)
        states[-(k + 1)] = cur
        drift = max(drift, ref_gram_residual(cur))
    s_grid = np.array([k * step for k in range(-n_bwd, n_fwd + 1)])
    return s_grid, np.stack([states[k] for k in range(-n_bwd, n_fwd + 1)]), drift


def ref_integrate(spec, s, step):
    state = ref_initial_state(spec)
    n = max(int(math.ceil(abs(s) / step - 1e-12)), 0)
    h = math.copysign(step, s) if s != 0.0 else step
    cur = 0.0
    drift = ref_gram_residual(state)
    for k in range(n):
        hk = h if (k < n - 1) else (s - cur)
        state = ref_rk4_step(spec, cur, state, hk)
        cur += hk
        drift = max(drift, ref_gram_residual(state))
    return state, drift


REFERENCE_B = {"constant": constant_b(1.3),
               "offset_sin": b_text("0.5 + 0.3*sin(s)")}


REFERENCE_GRID = pytest.mark.parametrize("b_kind, a, window", [
    pytest.param(b_kind, a, window, id=f"{b_kind}-{a}-window{k}")
    for b_kind in sorted(REFERENCE_B) for a in [0.0, -1.7]
    for k, window in enumerate([(-1.0, 1.0), (-0.3, 1.0), (0.0, 0.7),
                                (-0.9, 0.0)])])


@functools.lru_cache(maxsize=None)
def reference_case(b_kind, a, window):
    """The shipped table and ``ref_table`` for one case of the grid."""
    spec = fo.FrameODESpec(a=a, b=REFERENCE_B[b_kind], window=window)
    return fo.FrameTable(spec), ref_table(spec)


@REFERENCE_GRID
def test_table_matches_scalar_loop_bit_for_bit(b_kind, a, window):
    # what stays exact: the grid, and the initial state at s = 0
    table, (s_grid, states, _) = reference_case(b_kind, a, window)
    assert table.s_grid.tobytes() == s_grid.tobytes()
    origin = int(np.flatnonzero(s_grid == 0.0)[0])
    assert table.states[origin].tobytes() == states[origin].tobytes()


@REFERENCE_GRID
def test_table_matches_scalar_loop_within_bounds(b_kind, a, window):
    table, (_, states, drift) = reference_case(b_kind, a, window)
    assert np.max(np.abs(table.states - states)) <= 5e-14
    assert table.max_drift <= drift


def exact_states(spec, s_grid, terms=40):
    """exp(s K) applied to the initial state, for constant B, by the Taylor
    series of the exponential summed in Horner form."""
    K = spec.coefficient_matrix(spec.b(0.0))
    powers = [ref_initial_state(spec)]
    for j in range(1, terms):
        powers.append(K @ powers[-1] / j)
    out = np.zeros((len(s_grid), 5, 4))
    for term in reversed(powers):
        out = s_grid[:, None, None] * out + term
    return out


@pytest.mark.parametrize("a", [0.0, 1.0, -1.7, 2.0])
def test_table_within_scalar_loop_error_of_exact_frame(a):
    # the system matrix is constant, so the frame is exp(s K) of the start;
    # at a = 0, K is nilpotent and the series ends after five terms
    spec = fo.FrameODESpec(a=a, b=REFERENCE_B["constant"])
    table = fo.FrameTable(spec)
    s_grid, states, _ = ref_table(spec)
    exact = exact_states(spec, s_grid)
    assert np.max(np.abs(table.states - exact)) <= \
        np.max(np.abs(states - exact)) + 1e-14


def test_table_build_temporaries_bounded():
    spec = spec_umbilical()
    fo.FrameTable(spec)
    tracemalloc.start()
    try:
        fo.FrameTable(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * 2 ** 20


def assert_close(ref, new, where="report"):
    """Same keys, strings, bools, ints and None; floats within
    1e-11 * max(1, |ref|)."""
    if isinstance(ref, dict):
        assert isinstance(new, dict) and list(new) == list(ref), where
        for key in ref:
            assert_close(ref[key], new[key], f"{where}.{key}")
    elif isinstance(ref, list):
        assert isinstance(new, list) and len(new) == len(ref), where
        for k, (r, n) in enumerate(zip(ref, new)):
            assert_close(r, n, f"{where}[{k}]")
    elif isinstance(ref, float) and isinstance(new, float):
        assert math.isnan(ref) == math.isnan(new), where
        assert math.isnan(ref) or \
            abs(new - ref) <= 1e-11 * max(1.0, abs(ref)), (where, ref, new)
    else:
        assert type(new) is type(ref) and new == ref, (where, ref, new)


def csv_cells(text):
    """CSV cells, numbers as floats and other cells as text."""
    def cell(c):
        try:
            return float(c)
        except ValueError:
            return c
    return [[cell(c) for c in row] for row in csv.reader(text.splitlines())]


# the constant-B entries are closed-form text; these run their frame-ODE
# route, the reference test_catalog.py holds the text to
FRAME_ENTRIES = ["generalized_umbilical", "generalized_umbilical_varB",
                 "generalized_cylinder_I"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", FRAME_ENTRIES)
def test_frame_entry_reports_track_scalar_loop(tmp_path, monkeypatch, name,
                                               fmt):
    # the table agrees with the scalar loop to round-off, so the reports
    # built on it (and pinned by the goldens) must agree to round-off too
    if not catalog.get(name).is_ode:
        monkeypatch.setitem(catalog.ENTRIES, name, frame_route_entry(name))

    def report():
        out = tmp_path / f"report.{fmt}"
        assert main(["analyze", "--entry", name, "--grid", "5,5,5",
                     "--format", fmt, "--out", str(out)]) == 0
        return (json.loads if fmt == "json" else csv_cells)(out.read_text())

    shipped = report()

    def reference_table(table, spec):
        table.spec = spec
        table.s_grid, table.states, table.max_drift = ref_table(spec)
        b = spec.b(np.linspace(*spec.window, 2 * len(table.s_grid) - 1))
        table.b_range = (float(np.min(b)), float(np.max(b)))

    monkeypatch.setattr(fo.FrameTable, "__init__", reference_table)
    assert_close(report(), shipped)


def test_frame_builds_hold_no_tables():
    entry = catalog.get("generalized_umbilical_varB")
    entry.build()
    tracemalloc.start()
    try:
        for k in range(40):
            entry.build(a=1.0 + 0.01 * k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 ** 20


def test_table_interpolation_matches_direct_integration():
    spec = spec_umbilical(b=b_text("2 + sin(s)"))
    table = fo.FrameTable(spec)
    for s in (0.0, 0.3137, -0.777, 1.0, -1.0, 0.5):
        direct, _ = ref_integrate(spec, s, 1e-3)
        interp = table.values_at(np.array([s]))[0]
        assert np.max(np.abs(interp - direct)) < 1e-10


def test_taylor_derivatives_match_finite_differences():
    spec = spec_umbilical(b=b_text("2 + sin(s)"))
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


@pytest.mark.parametrize("amplitude, offset", [(1.0, 2.0), (0.3, 0.5)])
def test_b_derivatives_from_its_jet_are_exact(amplitude, offset):
    # the jet's order-k coefficient is B^(k)/k!, so scaling back is exact:
    # B' and B'' are those of the closed forms, bit for bit
    s = np.linspace(-1.0, 1.0, 101)
    b = b_text(f"{offset!r} + {amplitude!r}*sin(s)")(jets.variable(1, s))
    assert np.array_equal(b.value, offset + amplitude * np.sin(s))
    assert np.array_equal(b.coeffs[jets.INDEX_OF[(1, 0, 0)]],
                          amplitude * np.cos(s))
    assert np.array_equal(2.0 * b.coeffs[jets.INDEX_OF[(2, 0, 0)]],
                          -amplitude * np.sin(s))


def test_b_is_gated_at_every_node_and_stage():
    # (s - 0.0105)^2 vanishes at the stage s = 0.0105 between two nodes and
    # stays above 9e-5 at the 101 samples of linspace(-1, 1, 101)
    samples = (np.linspace(-1.0, 1.0, 101) - 0.0105) ** 2
    assert samples.min() > 9e-5
    table = fo.FrameTable(spec_umbilical(b=b_text("(s - 0.0105)*(s - 0.0105)")))
    assert table.b_range[0] < 1e-9
    with pytest.raises(ValueError, match="bounded away from zero"):
        frame_chart(b="(s - 0.0105)*(s - 0.0105)")


# -- generalized umbilical hypersurface ------------------------------------------

def test_umbilical_requires_nonzero_a():
    with pytest.raises(ValueError, match="a must be nonzero"):
        catalog.get("generalized_umbilical_varB").build(a=0.0)
    # the text divides by a
    with pytest.raises(jets.DomainError, match="division by 'a' = 0"):
        hs.geometry_block(frame_chart(a=0.0), np.array([[0.2, 0.5, 0.3]]))


def test_builders_require_nonzero_b():
    for text, b in ((VARB, "0"), (VARB, "0.5 + sin(s)"), (CYLINDER, "1 - s"),
                    (CYLINDER, "0.5 + sin(s)")):
        with pytest.raises(ValueError, match="bounded away from zero"):
            frame_chart(text, b, a=0.0 if text == CYLINDER else 1.0)
    frame_chart(CYLINDER, "-2 + s", a=0.0)  # one sign, away from zero
    with pytest.raises(fo.StepTooLarge):  # a NaN B fails the drift gate first
        frame_chart(b="b0", b0=np.nan)


def test_umbilical_unit_lorentzian_normal():
    imm = frame_chart(b="1")
    geo = hs.geometry_block(imm, np.array([[0.2, 0.5, 0.3]]))
    assert geo.epsilon == 1.0
    assert abs(mink_inner(geo.N[0], geo.N[0]) - 1.0) < 1e-12


def test_umbilical_normal_matches_closed_form():
    a = 1.0
    spec = spec_umbilical(a=a)
    imm = frame_chart(b="1", a=a)
    table = fo.FrameTable(spec)
    pts = np.array([[0.3, 0.4, 0.25], [-0.6, -0.7, 0.1], [0.0, 0.2, -0.5]])
    geo = hs.geometry_block(imm, pts)
    for p, normal in zip(pts, geo.N):
        F = table.values_at(np.array([p[0]]))[0]
        _, X, Y, Z, W = F
        u, v = p[1], p[2]
        closed = -a * u * Y - np.sqrt(1 - a * a * v * v) * Z - a * v * W
        diff = min(np.max(np.abs(normal - closed)),
                   np.max(np.abs(normal + closed)))
        assert diff < 1e-10


@pytest.mark.parametrize("b", [pytest.param("1", id="b0"),
                               pytest.param("2 + sin(s)", id="b1")])
def test_umbilical_minimal_polynomial(b):
    a = 1.0
    imm = frame_chart(b=b, a=a)
    imm = imm.with_orientation(-1.0)  # stated curvature sign is +a
    pts = np.array([[0.3, 0.4, 0.25], [-0.5, 0.6, -0.3]])
    geo = hs.GeometryBatch(imm, pts)
    min_polys = classify_batch(geo.A, tol=1e-5).min_poly
    for p, A, mp in zip(pts, geo.A, min_polys):
        # degree 2: the t^3 coefficient is zero
        assert np.allclose(mp, [0.0, 1.0, -2 * a, a * a], atol=1e-6)
        # the nilpotent coefficient is B(s) in the chart basis
        bval = b_text(b)(p[0])
        assert A[1, 0] == pytest.approx(-(-1.0) * bval, abs=1e-9)


def test_umbilical_domain_error_near_v_boundary():
    imm = frame_chart(b="1")
    with pytest.raises(jets.DomainError):
        hs.GeometryBatch(imm, np.array([[0.1, 0.1, 1.01]]))


def test_umbilical_identities_within_ode_budget():
    imm = frame_chart()
    grid = hs.grid_points(((-0.8, 0.8), (-0.7, 0.7), (-0.6, 0.6)), (3, 3, 3))
    geo = hs.GeometryBatch(imm, grid)
    rows = geo.identities
    assert max(np.max(row) for row in rows.values()) < 1e-5
    assert np.max(rows["codazzi_residual"]) < 1e-5
    ric_i = geo.ric_intrinsic
    ric_g = geo.epsilon * hs.ricci_gauss(geo.A, geo.g)
    assert np.max(np.abs(ric_i - ric_g)) < 1e-5


# -- generalized cylinder of type I ----------------------------------------------

def test_cylinder_requires_zero_a():
    with pytest.raises(ValueError):
        build_generalized_cylinder_I(spec_umbilical())


def test_cylinder_normal_is_Z_and_nilpotent_operator():
    spec = fo.FrameODESpec(a=0.0, b=constant_b(1.0))
    imm = build_generalized_cylinder_I(spec)
    table = fo.FrameTable(spec)
    p = [0.4, 0.3, -0.5]
    geo = hs.geometry_block(imm, np.array([p]))
    Z = table.values_at(np.array([p[0]]))[0][3]
    N = geo.N[0]
    assert min(np.max(np.abs(N - Z)), np.max(np.abs(N + Z))) < 1e-11
    assert np.allclose(classify_batch(geo.A, tol=1e-5).min_poly[0],
                       [0, 1, 0, 0], atol=1e-8)
    assert geo.H[0] == pytest.approx(0.0, abs=1e-12)


def test_cylinder_flat_metric_and_ricci_zero():
    # the chart text with a = 0 over B(s) = 2 + sin s
    imm = frame_chart(CYLINDER, a=0.0)
    grid = hs.grid_points(((-0.85, 0.85), (-1, 1), (-1, 1)), (4, 3, 3))
    geo = hs.GeometryBatch(imm, grid)
    assert np.max(np.abs(geo.ric_intrinsic)) < 1e-10
    assert np.max(np.abs(geo.epsilon * hs.ricci_gauss(geo.A, geo.g))) < 1e-10
    # det g = -1 identically in this chart
    assert np.allclose(geo.det, -1.0, atol=1e-11)


def test_cylinder_half_lie_equals_metric_on_central_slice():
    # the support function vanishes at s = 0, where x_T acts conformally
    spec = fo.FrameODESpec(a=0.0, b=constant_b(1.0))
    imm = build_generalized_cylinder_I(spec)
    slice_grid = hs.grid_points(((-1e-12, 1e-12), (-1, 1), (-1, 1)), (2, 3, 3))
    geo = hs.geometry_block(imm, slice_grid)
    lie = geo.lie_coordinate
    assert np.max(np.abs(0.5 * lie - geo.g)) < 1e-9
    # off the slice the support function grows like the accumulated moment
    geo2 = hs.GeometryBatch(imm, np.array([[0.5, 0.0, 0.0], [0.85, 0.2, 0.1]]))
    assert np.allclose(np.abs(geo2.rho), [0.125, 0.36125], atol=1e-9)
