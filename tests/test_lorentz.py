"""Minkowski linear algebra, cubic eigenstructure, minimal polynomials,
and canonical-form classification round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scalar_reference import canonical_matrix, form

from minksoliton import lorentz
from minksoliton.lorentz import (FormVariant, char_poly, classify_batch,
                                 mink_inner, poly_apply, spectral_norm)


def minimal_polynomial(A):
    """Minimal polynomial of one operator, from a one-row batch."""
    return np.trim_zeros(classify_batch(A[None]).min_poly[0], "f")


def classify_one(A, g):
    """Canonical form of one operator, from a one-row batch."""
    forms = classify_batch(A[None], g[None])
    assert not forms.ambiguous[0]
    return form(forms, 0)


def test_inner_signature_examples():
    assert mink_inner([1, 0, 0, 0], [1, 0, 0, 0]) == -1.0
    assert mink_inner([0, 1, 0, 0], [0, 1, 0, 0]) == 1.0
    assert mink_inner([1, 1, 0, 0], [0.5, -0.5, 0, 0]) == -1.0


@given(st.lists(st.floats(-10, 10), min_size=8, max_size=8),
       st.floats(-3, 3), st.floats(-3, 3))
@settings(max_examples=60, deadline=None)
def test_inner_bilinear_symmetric(vals, s, t):
    u = np.array(vals[:4])
    v = np.array(vals[4:])
    assert mink_inner(u, v) == pytest.approx(mink_inner(v, u), abs=1e-9)
    lhs = mink_inner(s * u + t * v, v)
    rhs = s * mink_inner(u, v) + t * mink_inner(v, v)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# -- minimal polynomial ----------------------------------------------------------

def test_minimal_polynomial_zero_matrix():
    assert np.allclose(minimal_polynomial(np.zeros((3, 3))), [1.0, 0.0])


def test_minimal_polynomial_nilpotent_block():
    A = np.zeros((3, 3))
    A[1, 0] = 1.0
    assert np.allclose(minimal_polynomial(A), [1.0, 0.0, 0.0])


def test_minimal_polynomial_distinct_diagonal():
    # characteristic-polynomial oracle: (t-1)(t-2)(t-3)
    expected = np.array([1.0, -6.0, 11.0, -6.0])
    got = minimal_polynomial(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(got, expected, atol=1e-10)
    assert np.allclose(char_poly(np.diag([1.0, 2.0, 3.0])), expected)


def test_minimal_polynomial_divides_characteristic():
    rng = np.random.default_rng(13)
    for k in range(200):
        if k % 3 == 0:
            A, _ = canonical_matrix(FormVariant.JORDAN_2,
                                    (rng.uniform(-2, 2), rng.uniform(-2, 2)))
        elif k % 3 == 1:
            A = np.diag(rng.uniform(-2, 2, size=3))
        else:
            A = rng.normal(size=(3, 3))
        S = np.eye(3) + 0.2 * rng.normal(size=(3, 3))
        A = np.linalg.solve(S, A @ S)
        mp = minimal_polynomial(A)
        _, rem = np.polydiv(char_poly(A), mp)
        assert np.max(np.abs(rem)) < 1e-8 * max(1.0, np.abs(A).max()) ** 3


# -- classification ---------------------------------------------------------------

def test_classify_identity_matrix():
    form = classify_one(np.eye(3), np.eye(3))
    assert form.variant is FormVariant.DIAGONALIZABLE
    assert form.parameters == (1.0, 1.0, 1.0)
    assert np.allclose(form.minimal_polynomial, [1.0, -1.0])


def test_classify_jordan2_equal_eigenvalue():
    for a in (1.0, -0.6, 2.5):
        A, g = canonical_matrix(FormVariant.JORDAN_2, (a, a))
        form = classify_one(A, g)
        assert form.variant is FormVariant.JORDAN_2
        assert form.parameters == pytest.approx((a, a), abs=1e-12)
        # (t - a)^2
        assert np.allclose(form.minimal_polynomial, [1.0, -2 * a, a * a])


def test_classify_complex_pair_recovers_parameters():
    A, g = canonical_matrix(FormVariant.COMPLEX_PAIR, (0.0, 1.0, 2.0))
    form = classify_one(A, g)
    assert form.variant is FormVariant.COMPLEX_PAIR
    assert form.parameters == pytest.approx((0.0, 1.0, 2.0), abs=1e-10)


def test_classify_jordan3():
    A, g = canonical_matrix(FormVariant.JORDAN_3, (0.7,))
    form = classify_one(A, g)
    assert form.variant is FormVariant.JORDAN_3
    assert form.parameters == pytest.approx((0.7,), abs=1e-9)


def test_classify_rejects_non_self_adjoint():
    A = np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        classify_batch(A[None], np.eye(3)[None])


def test_ambiguous_gap_raises():
    A = np.diag([0.5, 0.5 + 3e-4, 2.0])
    assert classify_batch(A[None], np.eye(3)[None]).ambiguous[0]


def _random_conjugation(rng):
    S = np.eye(3) + 0.25 * rng.normal(size=(3, 3))
    while abs(np.linalg.det(S)) < 0.3:
        S = np.eye(3) + 0.25 * rng.normal(size=(3, 3))
    return S


def _draw_parameters(rng, variant):
    def sep(vals, gap=0.05):
        vals = sorted(vals)
        return all(b - a >= gap for a, b in zip(vals, vals[1:]))

    if variant is FormVariant.DIAGONALIZABLE:
        while True:
            mode = rng.integers(3)
            if mode == 0:
                c = rng.uniform(0.2, 2) * rng.choice([-1, 1])
                return (c, c, c)
            if mode == 1:
                d = rng.uniform(-2, 2)
                s = rng.uniform(-2, 2)
                if abs(d - s) > 0.1:
                    return (d, d, s)
                continue
            vals = rng.uniform(-2, 2, size=3)
            if sep(vals):
                return tuple(np.sort(vals))
    if variant is FormVariant.COMPLEX_PAIR:
        return (rng.uniform(-2, 2), rng.uniform(0.2, 2) * rng.choice([-1, 1]),
                rng.uniform(-2, 2))
    if variant is FormVariant.JORDAN_2:
        a1 = rng.uniform(-2, 2)
        if rng.random() < 0.5:
            return (a1, a1)
        a2 = a1
        while abs(a2 - a1) < 0.1:
            a2 = rng.uniform(-2, 2)
        return (a1, a2)
    return (rng.uniform(-2, 2),)


def _canonical_multiset(variant, params):
    if variant is FormVariant.DIAGONALIZABLE:
        return tuple(sorted(params))
    if variant is FormVariant.COMPLEX_PAIR:
        a1, b1, a2 = params
        return (a1, abs(b1), a2)
    return tuple(params)


@pytest.mark.parametrize("variant", list(FormVariant))
def test_classify_materialize_roundtrip_1000(variant):
    """Materialize a canonical form, conjugate randomly, classify, recover."""
    rng = np.random.default_rng(hash(variant.value) % 2 ** 31)
    for _ in range(1000):
        params = _draw_parameters(rng, variant)
        eps = int(rng.choice([1, -1])) if variant is FormVariant.DIAGONALIZABLE else 1
        A, g = canonical_matrix(variant, params, epsilon=eps)
        S = _random_conjugation(rng)
        A2 = np.linalg.solve(S, A @ S)
        g2 = S.T @ g @ S
        form = classify_one(A2, g2)
        assert form.variant is variant
        want = np.array(_canonical_multiset(variant, params))
        got = np.array(_canonical_multiset(variant, form.parameters))
        if variant is FormVariant.DIAGONALIZABLE:
            got = np.sort(got)
        assert np.max(np.abs(np.sort(want) - np.sort(got))) < 1e-8


def test_batch_equals_one_row_calls():
    """Classifying n rows at once gives, bit for bit, the n one-row results."""
    rng = np.random.default_rng(23)
    As, gs = [], []
    for variant in FormVariant:
        for _ in range(25):
            A, g = canonical_matrix(variant, _draw_parameters(rng, variant))
            S = _random_conjugation(rng)
            As.append(np.linalg.solve(S, A @ S))
            gs.append(S.T @ g @ S)
    As.append(np.diag([0.5, 0.5 + 3e-4, 2.0]))  # in the ambiguous band
    gs.append(np.eye(3))
    forms = lorentz.classify_batch(np.array(As), np.array(gs))
    assert forms.ambiguous[-1] and not forms.ambiguous[:-1].any()
    for i, (A, g) in enumerate(zip(As, gs)):
        one = lorentz.classify_batch(A[None], g[None])
        for name in ("variant", "parameters", "min_poly", "ambiguous"):
            assert getattr(one, name)[0].tobytes() == \
                getattr(forms, name)[i].tobytes()
        assert (np.trim_zeros(one.min_poly[0], "f") + 0.0).tobytes() == \
            (np.trim_zeros(forms.min_poly[i], "f") + 0.0).tobytes()
        if forms.ambiguous[i]:
            assert one.ambiguous[0]
            continue
        got, want = form(one, 0), form(forms, i)
        assert got.variant is lorentz.VARIANTS[forms.variant[i]]
        assert got.parameters == want.parameters
        assert got.minimal_polynomial.tobytes() == \
            want.minimal_polynomial.tobytes()


def test_batch_rejects_any_non_self_adjoint_row():
    A = np.stack([np.eye(3), np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]])])
    with pytest.raises(ValueError, match="not self-adjoint"):
        lorentz.classify_batch(A, np.stack([np.eye(3)] * 2))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_classify_rejects_non_finite_operators(bad):
    A = np.stack([np.eye(3), np.diag([1.0, bad, 2.0])])
    eye = np.stack([np.eye(3)] * 2)
    for args in ((A,), (A, eye), (eye, A)):
        with pytest.raises(ValueError, match="not finite"):
            classify_batch(*args)


# Worst case measured over 2e5 matrices of each family below: 1.4e-15.
NORM_ROUND_OFF = 1e-14


def test_spectral_norm_matches_svd():
    rng = np.random.default_rng(41)
    n = 100_000
    scales = 10.0 ** rng.uniform(-3, 4, size=(n, 1, 1))
    c = scales[:200]
    # equal top singular values, where arccos alone would lose digits
    U, V = (np.linalg.qr(rng.normal(size=(200, 3, 3)))[0] for _ in range(2))
    sv = rng.uniform(0.0, 1.0, size=(200, 3))
    sv[:, 1] = sv[:, 0]
    x, y = rng.normal(size=(2, 200, 3))
    A = np.concatenate([
        rng.normal(size=(n, 3, 3)) * scales,
        c * np.eye(3), c * np.diag([1.0, -1.0, 1.0]),
        c * x[:, :, None] * y[:, None, :],  # rank 1
        c * U @ (sv[:, :, None] * V), np.zeros((1, 3, 3))])
    ref = np.linalg.norm(A, 2, axis=(1, 2))
    assert np.all(np.abs(spectral_norm(A) - ref) <= NORM_ROUND_OFF * ref)


def test_min_poly_norm_bound():
    rng = np.random.default_rng(17)
    for _ in range(100):
        A = rng.normal(size=(3, 3)) * rng.uniform(0.1, 5)
        mp = minimal_polynomial(A)
        nrm = max(1.0, np.linalg.norm(A, 2))
        assert np.max(np.abs(poly_apply(mp, A))) <= 1e-7 * nrm ** (len(mp) - 1)
