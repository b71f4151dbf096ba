"""Jet arithmetic: ring axioms, analytic compositions, and a
finite-difference oracle over randomly generated expression trees."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksoliton import jets
from minksoliton.exprs import Expr

# -- basic construction -------------------------------------------------------

def test_variable_layout():
    j = jets.variable(1, 2.0)
    assert j.value == 2.0
    assert jets.extract_derivative(j, (1, 0, 0)) == 1.0
    assert np.count_nonzero(j.coeffs) == 2


def test_variable_sum_value():
    a, b = 1.7, -0.4
    s = jets.variable(1, a) + jets.variable(2, b)
    assert s.value == a + b
    assert jets.extract_derivative(s, (1, 0, 0)) == 1.0
    assert jets.extract_derivative(s, (0, 1, 0)) == 1.0


def test_product_mixed_coefficient_is_one():
    u = jets.variable(1, 0.3)
    v = jets.variable(2, -1.2)
    p = u * v
    assert jets.extract_derivative(p, (1, 1, 0)) == 1.0
    assert p.value == pytest.approx(0.3 * -1.2)


def test_degree0_extraction_is_value():
    u = jets.variable(1, 0.5)
    f = jets.sin(u * u + 1.0)
    assert jets.extract_derivative(f, (0, 0, 0)) == f.value


def test_second_derivative_of_square():
    u = jets.variable(1, 1.3)
    assert jets.extract_derivative(u * u, (2, 0, 0)) == pytest.approx(2.0)


def test_extract_beyond_degree_raises():
    u = jets.variable(1, 0.0)
    with pytest.raises(jets.IndexOutOfRange):
        jets.extract_derivative(u, (2, 2, 0))


def test_derivative_lowers_valid_order():
    u = jets.variable(1, 0.7)
    f = (u * u) * u
    d = f.deriv(1)
    assert d.order == 2
    with pytest.raises(jets.IndexOutOfRange):
        jets.extract_derivative(d, (3, 0, 0))


# -- analytic functions --------------------------------------------------------

def test_sin_maclaurin_coefficients():
    # sin(t) = t - t^3/6 at the origin
    t = jets.variable(1, 0.0)
    f = jets.sin(t)
    assert jets.extract_derivative(f, (0, 0, 0)) == 0.0
    assert jets.extract_derivative(f, (1, 0, 0)) == pytest.approx(1.0)
    assert jets.extract_derivative(f, (2, 0, 0)) == pytest.approx(0.0)
    assert jets.extract_derivative(f, (3, 0, 0)) == pytest.approx(-1.0)
    assert f.coeffs[jets.INDEX_OF[(3, 0, 0)]] == pytest.approx(-1.0 / 6.0)


def test_sqrt_at_four():
    u = jets.variable(1, 4.0)
    r = jets.sqrt(u)
    assert r.value == pytest.approx(2.0)
    assert jets.extract_derivative(r, (1, 0, 0)) == pytest.approx(0.25)


def test_sqrt_of_nonpositive_raises():
    with pytest.raises(jets.DomainError):
        jets.sqrt(jets.variable(1, 0.0))
    with pytest.raises(jets.DomainError):
        jets.sqrt(jets.variable(1, -2.0))


def test_division_by_zero_constant_raises():
    with pytest.raises(jets.DomainError):
        jets.constant(1.0) / jets.variable(1, 0.0)


@given(st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_hyperbolic_identity(x):
    u = jets.variable(1, x)
    diff = jets.cosh(u) * jets.cosh(u) - jets.sinh(u) * jets.sinh(u)
    target = jets.constant(1.0).coeffs
    assert np.max(np.abs(diff.coeffs - target)) < 1e-11 * max(1.0, np.cosh(x) ** 2)


def test_division_inverts_multiplication():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = jets.Jet(rng.uniform(-2, 2, size=20))
        b = jets.Jet(rng.uniform(-2, 2, size=20))
        b.coeffs[0] = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
        q = a / b
        back = q * b
        assert np.max(np.abs(back.coeffs - a.coeffs)) < 1e-12


def test_sqrt_squares_back():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = jets.Jet(rng.uniform(-1, 1, size=20))
        a.coeffs[0] = rng.uniform(0.5, 3.0)
        r = jets.sqrt(a)
        assert np.max(np.abs((r * r).coeffs - a.coeffs)) < 1e-12


def test_truncation_above_degree_three():
    u = jets.variable(1, 0.0)
    v = jets.variable(2, 0.0)
    prod = (u * u) * (v * v)  # pure degree 4: vanishes after truncation
    assert np.max(np.abs(prod.coeffs)) == 0.0
    cube = (u + v) ** 3
    assert jets.extract_derivative(cube, (2, 1, 0)) == pytest.approx(6.0)


def test_scalar_division_is_exact():
    j = jets.Jet(np.linspace(-1.0, 1.0, 20))
    assert np.array_equal((j / 3.0).coeffs, j.coeffs / 3.0)


def test_integer_and_real_powers_agree():
    u = jets.variable(1, 1.7) + jets.variable(2, 0.0) * 0.5
    assert np.max(np.abs((u ** 3).coeffs - jets.pow_real(u, 3.0).coeffs)) < 1e-12
    assert np.max(np.abs((u ** -2).coeffs - jets.pow_real(u, -2.0).coeffs)) < 1e-12


# -- ring axioms via hypothesis -------------------------------------------------

coeff_arrays = st.lists(st.floats(-3, 3), min_size=20, max_size=20).map(
    lambda c: jets.Jet(np.array(c)))


@given(coeff_arrays, coeff_arrays, coeff_arrays)
@settings(max_examples=80, deadline=None)
def test_distributivity(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12


@given(coeff_arrays, coeff_arrays, coeff_arrays)
@settings(max_examples=80, deadline=None)
def test_associativity(a, b, c):
    lhs = (a * b) * c
    rhs = a * (b * c)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 5e-12


@given(coeff_arrays, coeff_arrays)
@settings(max_examples=80, deadline=None)
def test_commutativity(a, b):
    # identical term multisets, summation order may differ
    assert np.max(np.abs((a * b).coeffs - (b * a).coeffs)) < 1e-12


# -- finite-difference oracle ----------------------------------------------------

_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
}


def _fd_raw(fn, point, mi, h):
    offsets = [_STENCILS[k][0] for k in mi]
    weights = [_STENCILS[k][1] for k in mi]
    total = 0.0
    for off, wgt in zip(itertools.product(*offsets),
                        itertools.product(*weights)):
        shifted = [point[i] + off[i] * h for i in range(3)]
        total += np.prod(wgt) * fn(*shifted)
    return total / h ** sum(mi)


def fd_derivative(fn, point, mi, h):
    """Richardson-extrapolated central differences (truncation ~ h^4)."""
    return (4.0 * _fd_raw(fn, point, mi, h / 2) - _fd_raw(fn, point, mi, h)) / 3.0


def _random_expression(rng, depth=0):
    """Random AST over u, v, w with guarded sqrt and division."""
    if depth >= 3 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.6:
            return Expr("var", rng.choice(["u", "v", "w"]))
        return Expr("num", float(rng.uniform(-2, 2)))
    roll = rng.random()
    a = _random_expression(rng, depth + 1)
    if roll < 0.15:
        return Expr("call", rng.choice(["sin", "cos"]), (a,))
    if roll < 0.25:
        return Expr("call", rng.choice(["sinh", "cosh"]), (a,))
    if roll < 0.35:
        guarded = Expr("+", None, (Expr("*", None, (a, a)), Expr("num", 1.5)))
        return Expr("call", "sqrt", (guarded,))
    b = _random_expression(rng, depth + 1)
    if roll < 0.55:
        return Expr("+", None, (a, b))
    if roll < 0.7:
        return Expr("-", None, (a, b))
    if roll < 0.9:
        return Expr("*", None, (a, b))
    den = Expr("+", None, (Expr("*", None, (b, b)), Expr("num", 1.2)))
    return Expr("/", None, (a, den))


def test_jets_match_finite_differences_on_random_expressions():
    rng = np.random.default_rng(2024)
    n_cases = 1000
    multi_indices = [mi for mi in jets.MULTI_INDICES if sum(mi) >= 1]
    failures = []
    for case in range(n_cases):
        expr = _random_expression(rng)
        point = rng.uniform(-0.8, 0.8, size=3)

        def fn(u, v, w, _e=expr):
            return _e.eval({"u": u, "v": v, "w": w})

        ju = jets.variable(1, point[0])
        jv = jets.variable(2, point[1])
        jw = jets.variable(3, point[2])
        val = expr.eval({"u": ju, "v": jv, "w": jw})
        if not isinstance(val, jets.Jet):
            continue
        for mi in multi_indices:
            order = sum(mi)
            h = 2e-3 if order <= 2 else 8e-3
            tol = 1e-5 if order <= 2 else 1e-3
            fd = fd_derivative(fn, point, mi, h)
            jd = jets.extract_derivative(val, mi)
            rel = abs(jd - fd) / max(1.0, abs(fd))
            if rel > tol:
                failures.append((case, mi, jd, fd, rel))
    assert not failures, f"{len(failures)} mismatches, first: {failures[0]}"


# -- fixed-order products against the BLAS formulas they replace -----------------
#
# The references below are the point-major products the engine used before
# coefficient-major jets: a selection matrix summing each output coefficient's
# pair products in one BLAS product.  For batches of two or more points the
# BLAS kernel sums each output in pair-table order from +0.0, so the fixed-order
# sums must reproduce it bit for bit.

def _ref_pair_table():
    ia, ib, iout = [], [], []
    for na, a in enumerate(jets.MULTI_INDICES):
        for nb, b in enumerate(jets.MULTI_INDICES):
            if sum(a) + sum(b) <= jets.DEGREE:
                ia.append(na)
                ib.append(nb)
                iout.append(jets.INDEX_OF[tuple(x + y for x, y in zip(a, b))])
    sel = np.zeros((len(ia), jets.N_COEFFS))
    sel[np.arange(len(ia)), iout] = 1.0
    return np.array(ia), np.array(ib), np.array(iout), sel


REF_A, REF_B, REF_OUT, REF_SEL = _ref_pair_table()
REF_DEG = np.array([sum(mi) for mi in jets.MULTI_INDICES])


def _ref_groups(require_both_nonzero):
    groups = []
    for d in range(1, jets.DEGREE + 1):
        keep = (REF_DEG[REF_OUT] == d) & (REF_DEG[REF_A] > 0)
        if require_both_nonzero:
            keep &= REF_DEG[REF_B] > 0
        slots = np.flatnonzero(REF_DEG == d)
        groups.append((REF_A[keep], REF_B[keep], REF_SEL[keep][:, slots], slots))
    return groups


REF_DIV_GROUPS = _ref_groups(require_both_nonzero=False)
REF_SQRT_GROUPS = _ref_groups(require_both_nonzero=True)


def ref_mul(a, b):
    """Product of point-major coefficient arrays of shape (n, 20)."""
    return (a[:, REF_A] * b[:, REF_B]) @ REF_SEL


def ref_div(a, b):
    b0 = b[:, 0]
    out = np.zeros(a.shape)
    out[:, 0] = a[:, 0] / b0
    for ia, ib, sel, slots in REF_DIV_GROUPS:
        acc = (b[:, ia] * out[:, ib]) @ sel
        out[:, slots] = (a[:, slots] - acc) / b0[:, None]
    return out


def ref_sqrt(a):
    out = np.zeros(a.shape)
    out[:, 0] = np.sqrt(a[:, 0])
    twice = 2.0 * out[:, 0]
    for ia, ib, sel, slots in REF_SQRT_GROUPS:
        acc = (out[:, ia] * out[:, ib]) @ sel
        out[:, slots] = (a[:, slots] - acc) / twice[:, None]
    return out


def _draw_coeffs(rng, n):
    """Point-major (n, 20) coefficients of mixed magnitude with signed zeros;
    the constant term is positive."""
    c = rng.standard_normal((n, 20)) * 10.0 ** rng.integers(-6, 7, size=(n, 20))
    c[rng.random((n, 20)) < 0.1] = -0.0
    c[rng.random((n, 20)) < 0.05] = 0.0
    c[:, 0] = np.abs(c[:, 0]) + 0.25
    return c


def _same_bits(jet, ref):
    got = np.ascontiguousarray(jet.coeffs.T)
    return got.shape == ref.shape and np.array_equal(got.view(np.int64),
                                                     ref.view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 125, 1331, 9261])
def test_products_match_blas_reference_bitwise(n):
    rng = np.random.default_rng(n)
    a, b = _draw_coeffs(rng, n), _draw_coeffs(rng, n)
    a[:, 0] *= rng.choice([-1.0, 1.0], size=n)
    a[::5, 0] = -0.0     # sums whose every product is -0.0
    ja, jb = jets.Jet(a.T.copy()), jets.Jet(b.T.copy())
    assert _same_bits(ja * jb, ref_mul(a, b))
    assert _same_bits(ja / jb, ref_div(a, b))
    assert _same_bits(jets.sqrt(jb), ref_sqrt(b))


@pytest.mark.parametrize("n", [2, 125])
def test_scalar_lifted_operands_match_blas_reference(n):
    rng = np.random.default_rng(100 + n)
    b = _draw_coeffs(rng, n)
    jb = jets.Jet(b.T.copy())
    one = np.zeros((n, 20))
    one[:, 0] = 1.0
    assert _same_bits(1.0 / jb, ref_div(one, b))
    assert _same_bits(1.0 - jb, one - b)
    single = _draw_coeffs(rng, 1)[0]
    tiled = np.tile(single, (n, 1))
    assert _same_bits(jets.Jet(single) * jb, ref_mul(tiled, b))
    assert _same_bits(jb * jets.Jet(single), ref_mul(b, tiled))
    assert _same_bits(jets.Jet(single) / jb, ref_div(tiled, b))
    assert _same_bits(jb / jets.Jet(single), ref_div(b, tiled))
    scale = rng.uniform(-2.0, 2.0, size=n)
    assert _same_bits(jets.Jet(single) * scale, tiled * scale[:, None])


def test_one_point_batch_matches_same_row_of_larger_batches():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = _draw_coeffs(rng, 7), _draw_coeffs(rng, 7)
        for size in (2, 7):
            ja, jb = jets.Jet(a[:size].T.copy()), jets.Jet(b[:size].T.copy())
            ra, rb = jets.Jet(a[:1].T.copy()), jets.Jet(b[:1].T.copy())
            for one, many in ((ra * rb, ja * jb), (ra / rb, ja / jb),
                              (jets.sqrt(rb), jets.sqrt(jb))):
                assert np.array_equal(one.coeffs[:, 0].view(np.int64),
                                      many.coeffs[:, 0].view(np.int64))
