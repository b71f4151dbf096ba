"""Hypersurface geometry: one-point batches, Ricci routes, Codazzi,
connection forms of frames, structural verdicts on known charts, and
batches built in blocks of points."""

import numpy as np
import pytest
from scalar_reference import (PSEUDO_ORTHONORMAL_GRAM,
                              build_generalized_cylinder_I, constant_b,
                              lie_coordinate, nabla_A, ricci_intrinsic)

from minksoliton import catalog, jets
from minksoliton import hypersurface as hs
from minksoliton.hypersurface import (DegenerateMetric, EmptyGrid,
                                      GeometryBatch, Immersion, grid_points,
                                      ricci_gauss, structure_verdicts)
from minksoliton.lorentz import classify_batch
from minksoliton.soliton import identity_residuals, lie_closed_form_batch


def at_point(imm, p):
    """The geometry batch of the single chart point p."""
    return GeometryBatch(imm, np.array(p, dtype=float)[None])


def block_at(imm, p):
    """Every per-point array of the single chart point p."""
    return hs.geometry_block(imm, np.array(p, dtype=float)[None])


def plane_immersion(height=1.0, sign=1.0):
    def chart(u, v, w):
        return [u, v, w, jets.constant(height, u.shape)]
    return Immersion("plane", chart, sign)


def test_plane_sample():
    # orientation chosen so the normal is +e4
    geo = block_at(plane_immersion(sign=-1.0), [0.3, -0.2, 0.9])
    assert np.allclose(geo.N[0], [0, 0, 0, 1], atol=1e-14)
    assert geo.epsilon == 1.0
    assert np.max(np.abs(geo.A[0])) == 0.0
    assert geo.rho[0] == pytest.approx(1.0)
    assert np.allclose(geo.xT[0], [0.3, -0.2, 0.9])
    assert np.max(np.abs(geo.ric_intrinsic[0])) < 1e-14
    geo = at_point(plane_immersion(), [0.1, 0.2, 0.3])
    assert geo.identities["codazzi_residual"][0] < 1e-14


def test_de_sitter_sample():
    imm = catalog.get("de_sitter").build(c=1.0)[0]
    geo = at_point(imm, [0.4, 1.2, 0.5])
    assert geo.epsilon == 1.0
    assert np.allclose(geo.A[0], np.eye(3), atol=1e-12)
    assert geo.H[0] == pytest.approx(1.0, abs=1e-12)
    assert geo.rho[0] == pytest.approx(-1.0, abs=1e-12)
    assert np.max(np.abs(geo.xT[0])) < 1e-12


def test_hyperbolic_space_weingarten():
    imm = catalog.get("hyperbolic_space").build(c=2.0)[0]
    A = at_point(imm, [0.6, 1.0, 0.7]).A[0]
    assert np.allclose(A, 2.0 * np.eye(3), atol=1e-11)


def test_hyperbolic_cylinder_principal_curvatures():
    imm = catalog.get("hyperbolic_cylinder").build(c=1.0)[0]
    geo = at_point(imm, [0.8, 0.5, 0.2])
    eigs = np.sort(np.linalg.eigvals(geo.A[0]).real)
    assert np.allclose(eigs, [0.0, 1.0, 1.0], atol=1e-10)
    assert geo.epsilon == -1.0


def test_ricci_gauss_zero_operator():
    g, eps = np.diag([-1.0, 1.0, 1.0]), 1.0
    assert np.max(np.abs(eps * ricci_gauss(np.zeros((3, 3)), g))) == 0.0
    assert np.max(np.abs(ricci_gauss(np.zeros((3, 3)), g))) == 0.0


def test_ricci_gauss_orthonormal_components():
    # diagonal operator in an orthonormal frame: the verbatim form gives
    # Ric(e1,e1) = -eps*a1*(a2+a3)
    for eps in (1.0, -1.0):
        g = np.diag([-eps, 1.0, 1.0])
        a = np.array([0.7, -0.4, 1.2])
        A = np.diag(a)
        ric = ricci_gauss(A, g)
        assert ric[0, 0] == pytest.approx(-eps * a[0] * (a[1] + a[2]))
        assert ric[1, 1] == pytest.approx(a[1] * (a[0] + a[2]))
        assert ric[2, 2] == pytest.approx(a[2] * (a[0] + a[1]))
        assert abs(ric[0, 1]) + abs(ric[0, 2]) + abs(ric[1, 2]) < 1e-14


def test_de_sitter_constant_curvature_ricci():
    imm = catalog.get("de_sitter").build(c=1.0)[0]
    p = [0.2, 1.3, 0.8]
    geo = at_point(imm, p)
    ric_int = geo.ric_intrinsic[0]
    ric_ext = (geo.epsilon * ricci_gauss(geo.A, geo.g))[0]
    ric_paper = ricci_gauss(geo.A, geo.g)[0]
    assert np.allclose(ric_int, 2.0 * geo.g[0], atol=1e-12)
    assert np.allclose(ric_ext, ric_int, atol=1e-12)
    # epsilon = +1: verbatim and corrected forms coincide
    assert np.allclose(ric_paper, ric_ext, atol=1e-14)


def test_hyperbolic_space_ricci_sign():
    # spacelike case: corrected = intrinsic = -2c^2 g, verbatim differs by -1
    imm = catalog.get("hyperbolic_space").build(c=1.0)[0]
    geo = at_point(imm, [0.5, 1.1, 0.9])
    ric_int = geo.ric_intrinsic[0]
    ric_ext = (geo.epsilon * ricci_gauss(geo.A, geo.g))[0]
    ric_paper = ricci_gauss(geo.A, geo.g)[0]
    assert np.allclose(ric_int, -2.0 * geo.g[0], atol=1e-11)
    assert np.allclose(ric_ext, ric_int, atol=1e-11)
    assert np.allclose(ric_paper, -ric_int, atol=1e-11)


def test_product_metric_ricci_blocks():
    # H^2(-c^2) x E: Ric = -c^2 g on the plane block, 0 along the line
    for c in (1.0, 2.0):
        imm = catalog.get("hyperbolic_cylinder").build(c=c)[0]
        p = [0.7, 0.6, 0.4]
        geo = at_point(imm, p)
        ric = geo.ric_intrinsic[0]
        g = geo.g[0]
        assert ric[0, 0] == pytest.approx(-c * c * g[0, 0], abs=1e-10)
        assert ric[1, 1] == pytest.approx(-c * c * g[1, 1], abs=1e-10)
        assert abs(ric[2, 2]) < 1e-10
        assert abs(ric[0, 2]) + abs(ric[1, 2]) < 1e-10


def test_degenerate_metric_raises():
    def chart(u, v, w):
        # second direction collapses onto the first
        return [u, u, w, jets.constant(0.0, u.shape)]
    imm = Immersion("bad", chart)
    with pytest.raises(DegenerateMetric):
        at_point(imm, [0.1, 0.2, 0.3])


def signature_crossing():
    # graph over the Lorentzian plane: the normal crosses the light cone
    # along u^2 - v^2 - w^2 = 1/4, where g degenerates
    def chart(u, v, w):
        return [u, v, w, u * u + v * v + w * w]
    return Immersion("signature_crossing", chart)


def test_null_normal_raises():
    imm = signature_crossing()
    with pytest.raises(hs.NullNormalDirection):
        # det g sits between the singular-metric and null-normal thresholds
        at_point(imm, [0.5 + 2.5e-12, 0.0, 0.0])
    with pytest.raises(hs.NullNormalDirection):
        GeometryBatch(imm, np.array([[0.6, 0.1, 0.1], [0.1, 0.1, 0.1]]))
    with pytest.raises(DegenerateMetric):
        at_point(imm, [0.5 + 1e-14, 0.0, 0.0])


def test_codazzi_universal_and_perturbation():
    imm = catalog.get("de_sitter").build(c=1.0)[0]
    grid = grid_points(((-0.5, 0.5), (0.6, 2.2), (0.3, 5.0)), (3, 3, 3))
    geo = hs.geometry_block(imm, grid)
    assert np.max(geo.identities["codazzi_residual"]) < 1e-12

    # inject an asymmetric constant perturbation into the shape operator and
    # recompute the covariant antisymmetry by hand: nabla is linear in A, so
    # nabla(A + delta) adds Gamma's commutator with delta to nabla_A, and the
    # residual is of the noise scale
    noise = 1e-3
    delta = np.zeros((3, 3))
    delta[0, 1] = noise
    Gv = geo.Gamma
    nab = geo.nabla_A.copy()
    for i in range(3):
        for k in range(3):
            for j in range(3):
                for l in range(3):
                    nab[:, i, k, j] += (Gv[:, k, i, l] * delta[l, j]
                                        - Gv[:, l, i, j] * delta[k, l])
    res = np.max(np.abs(nab - np.transpose(nab, (0, 3, 2, 1))))
    assert 1e-5 < res < 1e-1


# -- connection forms -----------------------------------------------------------

def connection_forms(imm, p, frame_field, kind):
    """omega_ij(e_k): coefficient of e_j in nabla_{e_k} e_i, at the point p.

    ``frame_field`` maps the three chart jets to a 3x3 matrix of jets whose
    rows are the frame vectors in chart components; ``kind`` is
    "orthonormal" (Gram diag(-eps, 1, 1)) or "pseudo_orthonormal".  The
    covariant derivative reads the Christoffel symbols of the geometry batch,
    and the pairing runs through the inverse Gram matrix.
    """
    geo = block_at(imm, p)
    chart = [jets.variable(m + 1, np.array([p[m]], dtype=float))
             for m in range(3)]
    E = frame_field(*chart)
    Ev = np.array([[E[i][l].value[0] for l in range(3)] for i in range(3)])
    # dE[i, m, l] = d_m e_i^l
    dE = np.array([[[E[i][l].deriv(m + 1).value[0] for l in range(3)]
                    for m in range(3)] for i in range(3)])
    gv = geo.g[0]
    if kind == "orthonormal":
        target = np.diag([-geo.epsilon, 1.0, 1.0])
    else:
        target = PSEUDO_ORTHONORMAL_GRAM
    assert np.max(np.abs(Ev @ gv @ Ev.T - target)) <= 1e-6, "not a frame"

    # (nabla_m e_i)^l, then contract with e_k^m
    nab = dE + np.einsum('lmj,ij->iml', geo.Gamma[0], Ev)
    gram_inv = np.linalg.inv(target)
    omega = np.empty((3, 3, 3))
    for i in range(3):
        for k in range(3):
            vec = Ev[k, :] @ nab[i, :, :]          # chart components
            omega[i, :, k] = gram_inv @ (Ev @ gv @ vec)
    return omega


def test_connection_forms_flat_plane_zero():
    imm = plane_immersion()

    def frame_field(u, v, w):
        one = jets.constant(1.0, u.shape)
        zero = jets.constant(0.0, u.shape)
        return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]

    omega = connection_forms(imm, [0.1, -0.3, 0.2], frame_field, "orthonormal")
    assert np.max(np.abs(omega)) < 1e-13


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
    imm = catalog.get("hyperbolic_cylinder").build(c=1.0)[0]
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
    imm = catalog.get("hyperbolic_cylinder").build(c=1.0)[0]
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
    spec = fo.FrameODESpec(a=0.0, b=constant_b(1.0))
    imm = build_generalized_cylinder_I(spec)

    def frame_field(u, v, w):
        one = jets.constant(1.0, u.shape)
        zero = jets.constant(0.0, u.shape)
        return [[one, zero, zero], [zero, one, zero], [zero, zero, one]]

    p = [0.3, 0.2, -0.4]
    E = frame_field(*[jets.variable(m + 1, p[m]) for m in range(3)])
    assert np.allclose([[e.value for e in row] for row in E], np.eye(3))
    omega = connection_forms(imm, p, frame_field, "pseudo_orthonormal")
    assert np.max(np.abs(omega)) < 1e-10
    # the shape operator in this frame is the canonical nilpotent block
    A = at_point(imm, p).A[0]
    assert abs(A[1, 0]) == pytest.approx(1.0, abs=1e-10)
    A[1, 0] = 0.0
    assert np.max(np.abs(A)) < 1e-10


# -- structural verdicts ------------------------------------------------------------

def verdicts(imm, grid):
    geo = GeometryBatch(imm, grid)
    return structure_verdicts(geo, classify_batch(geo.A))


def test_classify_structure_hyperbolic_space():
    imm = catalog.get("hyperbolic_space").build(c=1.0)[0]
    grid = grid_points(((0.3, 1.2), (0.4, 2.7), (0.2, 6.0)), (3, 3, 3))
    v = verdicts(imm, grid)
    assert v["totally_umbilical"] and v["isoparametric"]
    assert v["constant_mean_curvature"]
    assert v["generalized_constant_ratio"]  # vacuous: x_T = 0 everywhere


def test_classify_structure_cylinders():
    imm = catalog.get("pseudospherical_cylinder").build(c=1.0)[0]
    grid = grid_points(((-0.8, 0.8), (0.2, 6.0), (0.15, 1.1)), (3, 3, 3))
    v = verdicts(imm, grid)
    assert not v["totally_umbilical"]
    assert v["isoparametric"]
    assert v["generalized_constant_ratio"]
    assert v["constant_mean_curvature"]


def test_classify_structure_graph_is_nothing():
    imm = catalog.get("graph_lorentzian").build()[0]
    grid = grid_points(((-0.4, 0.45), (-0.38, 0.42), (-0.45, 0.4)), (3, 3, 3))
    v = verdicts(imm, grid)
    assert not v["totally_umbilical"]
    assert not v["isoparametric"]
    assert not v["constant_mean_curvature"]


def test_empty_grid_raises():
    imm = catalog.get("de_sitter").build(c=1.0)[0]
    with pytest.raises(EmptyGrid):
        GeometryBatch(imm, np.zeros((0, 3)))


def test_identity_suite_batches():
    imm = catalog.get("pseudospherical_cylinder").build(c=2.0)[0]
    grid = grid_points(((-0.8, 0.8), (0.2, 6.0), (0.15, 1.1)), (4, 4, 4))
    geo = GeometryBatch(imm, grid)
    assert max(np.max(row) for row in geo.identities.values()) < 1e-9


def test_geometry_batch_holds_values_and_first_partials():
    # d* arrays carry the chart derivative on axis 1: d*[:, m] = d_m value
    partials = {"dN": "N", "drho": "rho", "dxT": "xT", "df": "f"}
    # arrays formed from the block's partials of g, A and Gamma: each equals
    # its formula applied to central differences of those values
    formed = {"ric_intrinsic": lambda geo, fd: ricci_intrinsic(
                  geo.Gamma, fd["Gamma"]),
              "nabla_A": lambda geo, fd: nabla_A(geo.A, geo.Gamma, fd["A"]),
              "lie_coordinate": lambda geo, fd: lie_coordinate(
                  geo.xT, geo.dxT, geo.g, fd["g"])}
    step = 1e-5
    for name in ("hyperbolic_space", "generalized_umbilical"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        box = [(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo))
               for lo, hi in entry.safe_box(merged)]
        grid = grid_points(box, (2, 2, 2))
        # the kept arrays, and every array of the block they come from
        geo = hs.geometry_block(imm, grid)
        for held in (GeometryBatch(imm, grid), geo):
            for attr, val in vars(held).items():
                assert not isinstance(val, (jets.Jet, list, tuple)), attr
                if isinstance(val, np.ndarray):
                    assert val.dtype == np.float64, attr
                    assert val.flags.c_contiguous, attr
                    assert val.shape[0] == len(grid), attr
            for key, row in held.identities.items():
                assert row.dtype == np.float64, key
                assert row.flags.c_contiguous, key
                assert row.shape[-1] == len(grid), key
        assert set(partials) | set(partials.values()) | set(formed) \
            <= set(vars(geo))
        fd = {"g": [], "A": [], "Gamma": []}
        for m in range(3):
            shift = np.zeros(3)
            shift[m] = step
            up = hs.geometry_block(imm, grid + shift)
            down = hs.geometry_block(imm, grid - shift)
            for d, value in partials.items():
                diff = (getattr(up, value) - getattr(down, value)) / (2 * step)
                assert np.max(np.abs(getattr(geo, d)[:, m] - diff)) < 1e-6, \
                    (name, d, m)
            for value, diffs in fd.items():
                diffs.append((getattr(up, value) - getattr(down, value))
                             / (2 * step))
        fd = {value: np.stack(diffs, axis=1) for value, diffs in fd.items()}
        for attr, formula in formed.items():
            assert np.max(np.abs(getattr(geo, attr) - formula(geo, fd))) \
                < 1e-6, (name, attr)


def test_grid_points_validation():
    with pytest.raises(ValueError):
        grid_points(((-1, 1), (-1, 1), (-1, 1)), (1, 2, 2))


def test_mean_curvature_is_exactly_trace_over_three():
    imm = catalog.get("hyperbolic_cylinder").build(c=1.3)[0]
    geo = at_point(imm, [0.7, 0.6, 0.4])
    A = geo.A[0]
    assert geo.H[0] == (A[0, 0] + A[1, 1] + A[2, 2]) / 3.0


# -- blocks of points ------------------------------------------------------------

GEOMETRY_ARRAYS = ("points", "x", "g", "det", "A", "H", "h", "rho", "xT",
                   "metric_scale", "ric_intrinsic", "ric_gauss",
                   "lie_closed_form")
# per-point arrays that live one block at a time, in geometry_block only
BLOCK_ONLY_ARRAYS = ("tangents", "ginv", "N", "dN", "gA", "Gamma", "nabla_A",
                     "drho", "dxT", "f", "df", "lie_coordinate")

CHART_FILE = """\
x1 = sqrt(1 + u^2 + v^2 + w^2) + 0.05 * sin(3 * u) * cos(2 * w)
x2 = u
x3 = v * cosh(0.3 * w)
x4 = w + 0.1 * u * v / (2 + sinh(v))
"""


def _block_immersions(tmp_path):
    from minksoliton import exprs
    from minksoliton.cli import CHART_BOX
    out = []
    for name in ("hyperbolic_space", "generalized_umbilical_varB"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        out.append((imm, entry.safe_box(merged)))
    path = tmp_path / "chart.txt"
    path.write_text(CHART_FILE)
    out.append((exprs.immersion_from_file(str(path), {}), CHART_BOX))
    return out


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3 * 1024 + 5])
def test_blocked_build_equals_one_block_bit_for_bit(n, tmp_path, monkeypatch):
    assert hs._BLOCK == 1024
    rng = np.random.default_rng(n)
    for imm, box in _block_immersions(tmp_path):
        lo, hi = np.array(box, dtype=float).T
        pts = lo + (hi - lo) * rng.random((n, 3))
        blocked = GeometryBatch(imm, pts)
        with monkeypatch.context() as m:
            m.setattr(hs, "_BLOCK", n)
            whole = GeometryBatch(imm, pts)
        assert set(vars(blocked)) == \
            set(GEOMETRY_ARRAYS) | {"epsilon", "identities"}
        for attr in BLOCK_ONLY_ARRAYS:
            assert not hasattr(blocked, attr), attr
        assert blocked.epsilon == whole.epsilon
        for attr in GEOMETRY_ARRAYS:
            got, want = getattr(blocked, attr), getattr(whole, attr)
            assert got.flags.c_contiguous, (imm.name, attr)
            assert got.shape == want.shape, (imm.name, attr)
            assert got.tobytes() == want.tobytes(), (imm.name, attr, n)
        assert list(blocked.identities) == list(whole.identities)
        for key, got in blocked.identities.items():
            want = whole.identities[key]
            assert got.flags.c_contiguous, (imm.name, key)
            assert got.shape == want.shape == \
                ((2, n) if key == "lemma1" else (n,)), (imm.name, key)
            assert got.tobytes() == want.tobytes(), (imm.name, key, n)


def test_kept_tables_equal_the_functions_that_form_them(tmp_path):
    # what the analysis once formed from the whole batch, the blocks keep
    rng = np.random.default_rng(11)
    for imm, box in _block_immersions(tmp_path):
        lo, hi = np.array(box, dtype=float).T
        pts = lo + (hi - lo) * rng.random((1500, 3))
        geo = GeometryBatch(imm, pts)
        assert geo.ric_gauss.tobytes() == \
            ricci_gauss(geo.A, geo.g).tobytes(), imm.name
        assert geo.lie_closed_form.tobytes() == \
            lie_closed_form_batch(geo).tobytes(), imm.name
        table = identity_residuals(hs.geometry_block(imm, pts[1024:]))
        for key, row in table.items():
            assert row.tobytes() == \
                geo.identities[key][..., 1024:].tobytes(), (imm.name, key)


def test_christoffel_symbols_are_mirrored_bit_for_bit(tmp_path):
    rng = np.random.default_rng(5)
    for imm, box in _block_immersions(tmp_path):
        lo, hi = np.array(box, dtype=float).T
        geo = hs.geometry_block(imm, lo + (hi - lo) * rng.random((300, 3)))
        swapped = np.ascontiguousarray(np.swapaxes(geo.Gamma, -1, -2))
        assert geo.Gamma.tobytes() == swapped.tobytes(), imm.name


def test_one_block_build_runs_few_jet_products(monkeypatch):
    # one product per tensor component slice, not per scalar component:
    # scalar jets ran 271 products here
    calls = []
    pair_sum = jets._pair_sum

    def counted(*args):
        calls.append(args)
        return pair_sum(*args)

    monkeypatch.setattr(jets, "_pair_sum", counted)
    entry = catalog.get("graph_lorentzian")
    imm, merged = entry.build()
    GeometryBatch(imm, grid_points(entry.safe_box(merged), (5, 5, 5)))
    assert 0 < len(calls) <= 80


LIGHTLIKE_POINT = [0.5 + 2.5e-12, 0.0, 0.0]
DEGENERATE_POINT = [0.5 + 1e-14, 0.0, 0.0]


def _build_error(imm, pts):
    with pytest.raises(ArithmeticError) as err:
        GeometryBatch(imm, pts)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("case, expected", [
    ("degenerate_in_block_3", DegenerateMetric),
    ("lightlike_in_block_1_degenerate_in_block_3", DegenerateMetric),
    ("lightlike_in_block_2", hs.NullNormalDirection),
    ("causal_type_per_block", hs.NullNormalDirection),
    ("metric_scale_from_block_2", DegenerateMetric),
])
def test_gates_judge_the_whole_batch_across_blocks(case, expected, monkeypatch):
    imm = signature_crossing()
    n = 3 * 1024 + 5
    pts = np.random.default_rng(7).uniform(-0.05, 0.05, (n, 3))
    if case == "degenerate_in_block_3":
        pts[2050] = DEGENERATE_POINT
    elif case == "lightlike_in_block_1_degenerate_in_block_3":
        pts[3] = LIGHTLIKE_POINT
        pts[3000] = DEGENERATE_POINT
    elif case == "lightlike_in_block_2":
        pts[1500] = LIGHTLIKE_POINT
    elif case == "causal_type_per_block":
        pts[1024:2048, 0] += 0.7  # past the light cone: the other causal type
    else:
        # det g = -2e-6 at this point passes the gates on block 1's scale,
        # but not on the scale g_vv = 401 of block 2
        pts[7] = [0.5 - 2.5e-7, 0.0, 0.0]
        pts[1024:2048, 1] += 10.0
    error = _build_error(imm, pts)
    with monkeypatch.context() as m:
        m.setattr(hs, "_BLOCK", n)
        assert _build_error(imm, pts) == error
    assert error[0] is expected
    if case == "lightlike_in_block_2":
        assert "lightlike" in error[1]
    if case == "causal_type_per_block":
        assert "changes across the batch" in error[1]
    if case in ("causal_type_per_block", "metric_scale_from_block_2"):
        # each block alone passes the gates
        for lo in range(0, n, 1024):
            GeometryBatch(imm, pts[lo:lo + 1024])


def test_blocked_build_raises_the_one_block_error(monkeypatch):
    # block 1 fails a sqrt; block 2 fails a division, which comes first
    def chart(u, v, w):
        return [2.0 + 0.0 / (u - 0.5) + jets.sqrt(v + 1.0), u, v, w]
    imm = Immersion("two_faults", chart)
    n = 2000
    pts = np.random.default_rng(0).uniform(0.0, 0.1, (n, 3))
    pts[5, 1] = -2.0
    pts[1500, 0] = 0.5
    error = _build_error(imm, pts)
    assert error == (jets.DomainError, "division by a jet with zero constant term")
    with monkeypatch.context() as m:
        m.setattr(hs, "_BLOCK", n)
        assert _build_error(imm, pts) == error


def nan_slope(threshold=-np.inf):
    """Hyperbolic space as a graph, with x4 = w + nan * u where u > threshold."""
    def chart(u, v, w):
        slope = np.where(u.value > threshold, np.nan, 0.0)
        return [jets.sqrt(1.0 + u * u + v * v + w * w), u, v, w + u * slope]
    return Immersion("nan_slope", chart)


NOT_FINITE = (DegenerateMetric,
              "induced metric of 'nan_slope' is not finite on the batch")


@pytest.mark.parametrize("counts", [(5, 5, 5), (11, 11, 11)])
def test_metric_gate_fails_closed_on_nan(counts, monkeypatch):
    imm = nan_slope()
    grid = grid_points(((-0.5, 0.5),) * 3, counts)
    assert _build_error(imm, grid) == NOT_FINITE
    with monkeypatch.context() as m:
        m.setattr(hs, "_BLOCK", len(grid))
        assert _build_error(imm, grid) == NOT_FINITE


def test_metric_gate_fails_closed_on_nan_in_a_late_block(monkeypatch):
    imm = nan_slope(threshold=0.9)
    n = 3 * 1024 + 5
    pts = np.random.default_rng(3).uniform(-0.5, 0.5, (n, 3))
    pts[2500, 0] = 0.95  # block 3
    assert _build_error(imm, pts) == NOT_FINITE
    for lo in (0, 1024):
        GeometryBatch(imm, pts[lo:lo + 1024])  # blocks 1 and 2 pass alone
    with monkeypatch.context() as m:
        m.setattr(hs, "_BLOCK", n)
        assert _build_error(imm, pts) == NOT_FINITE


def test_normal_gate_rejects_a_non_finite_normal():
    raw_n = np.array([[0.0, 1.0, 0.0, 0.0], [np.nan, 1.0, 0.0, 0.0]])
    nn = np.array([1.0, np.nan])
    with pytest.raises(hs.NullNormalDirection,
                       match="normal direction of 'x' is not finite"):
        hs._check_normal("x", raw_n, nn)


def test_cli_exits_1_on_a_nan_metric(tmp_path, capsys):
    from minksoliton.cli import main
    chart = tmp_path / "nan_slope.chart"
    # 0 * 1e999 is 0 * inf: a NaN slope the grammar can spell
    chart.write_text("x1 = sqrt(1 + u^2 + v^2 + w^2)\nx2 = u\nx3 = v\n"
                     "x4 = w + (0 * 1e999) * u\n")
    assert main(["analyze", "--entry", str(chart), "--format", "json"]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: DegenerateMetric: induced metric of "
                   f"{str(chart)!r} is not finite on the batch\n")
