"""The batched classifier against a one-matrix-at-a-time reference.

The reference below is the scalar algorithm that lorentz.classify_batch
vectorizes: closed-form cubic roots with a Newton polish, chain clustering
of the real roots, trace refinement of a repeated root, and candidate
polynomials tried by increasing degree.  It runs on Python floats and the C
library (``**``, ``math.acos``, ``math.cos``) and takes |A| from one SVD per
matrix, np.linalg.norm(A, 2).

The batch uses numpy's vectorized power, arccos and cos, whose SIMD kernels
may differ from the C library in the last bit, and a closed-form spectral
norm.  Its contract with the reference is therefore:

* the variant code, the ambiguity flag and the degree of the minimal
  polynomial are equal on every row;
* the characteristic polynomial is equal bit for bit (the same LAPACK
  determinant);
* each parameter, and each minimal-polynomial coefficient of degree k in A,
  agrees to ROUND_OFF * max(1, max|A|)^k.

Where numpy's arccos and power run the C library's code, as they do with
its AVX-512 dispatch off, ROUND_OFF is 0: the batch then reproduces the
reference exactly.
"""

import math
import sys

import numpy as np
import pytest
from scalar_reference import canonical_matrix, form
from test_lorentz import _draw_parameters, _random_conjugation

from minksoliton import catalog, lorentz
from minksoliton.hypersurface import GeometryBatch, grid_points
from minksoliton.lorentz import TAU_CLUSTER, TAU_RANK, FormVariant


def ref_char_poly(A):
    tr = np.trace(A)
    minors = (A[1, 1] * A[2, 2] - A[1, 2] * A[2, 1]
              + A[0, 0] * A[2, 2] - A[0, 2] * A[2, 0]
              + A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])
    return np.array([1.0, -tr, minors, -np.linalg.det(A)])


def ref_cubic_roots(coeffs):
    _, b, c, d = coeffs
    p = c - b * b / 3.0
    q = 2.0 * b ** 3 / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    scale = max(1.0, abs(b), math.sqrt(abs(c)), abs(d) ** (1.0 / 3.0))
    if abs(p) < 1e-14 * scale ** 2 and abs(q) < 1e-14 * scale ** 3:
        return [shift, shift, shift], None
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        t1 = -q / 2.0 - math.copysign(math.sqrt(disc), q)
        u = math.copysign(abs(t1) ** (1.0 / 3.0), t1)
        v = -p / (3.0 * u) if u != 0.0 else 0.0
        pair = (-(u + v) / 2.0 + shift, math.sqrt(3.0) / 2.0 * abs(u - v))
        return [u + v + shift], pair
    m = 2.0 * math.sqrt(max(-p, 0.0) / 3.0)
    if m == 0.0:
        return [shift, shift, shift], None
    phi = math.acos(min(1.0, max(-1.0, 3.0 * q / (p * m)))) / 3.0
    return sorted(m * math.cos(phi - 2.0 * math.pi * k / 3.0) + shift
                  for k in range(3)), None


def ref_polish(root, coeffs, scale):
    for _ in range(2):
        p = ((coeffs[0] * root + coeffs[1]) * root + coeffs[2]) * root + coeffs[3]
        dp = (3.0 * coeffs[0] * root + 2.0 * coeffs[1]) * root + coeffs[2]
        if abs(dp) < 1e-8 * scale ** 2:
            break
        root -= p / dp
    return root


def ref_roots(A):
    """(nrm, clustered means, cluster sizes, complex pair or None, real root)"""
    coeffs = ref_char_poly(A)
    nrm = max(1.0, float(np.linalg.norm(A, 2)))
    reals, pair = ref_cubic_roots(coeffs)
    scale = max(1.0, float(np.max(np.abs(A))))
    reals = sorted(ref_polish(r, coeffs, scale) for r in reals)
    if pair is not None and pair[1] < TAU_CLUSTER * nrm:
        reals, pair = sorted([reals[0], pair[0], pair[0]]), None
    if pair is not None:
        return nrm, None, None, pair, reals[0]
    groups = [[reals[0]]]
    for v in reals[1:]:
        if v - groups[-1][-1] <= TAU_CLUSTER * nrm:
            groups[-1].append(v)
        else:
            groups.append([v])
    return (nrm, [float(np.mean(g)) for g in groups],
            [len(g) for g in groups], None, None)


def ref_refined(means, counts, trace):
    if len(means) == 1:
        return [trace / 3.0]
    if len(means) == 2:
        if counts[0] == 2:
            return [(trace - means[1]) / 2.0, means[1]]
        return [means[0], (trace - means[0]) / 2.0]
    return means


def ref_poly(roots):
    coeffs = np.array([1.0])
    for r in roots:
        coeffs = np.convolve(coeffs, [1.0, -r])
    return coeffs


def ref_apply(coeffs, A):
    out = np.zeros_like(A)
    for c in coeffs:
        out = out @ A + c * np.eye(3)
    return out


def ref_minimal_polynomial(A, tol=TAU_RANK):
    nrm, means, counts, pair, real = ref_roots(A)
    if pair is not None:
        re, im = pair
        return np.convolve([1.0, -2.0 * re, re * re + im * im], [1.0, -real])
    means = ref_refined(means, counts, float(np.trace(A)))
    if len(means) == 1:
        candidates = [[means[0]] * k for k in (1, 2, 3)]
    elif len(means) == 2:
        d, s = (means[0], means[1]) if counts[0] == 2 else (means[1], means[0])
        candidates = [[d, s], [d, d, s]]
    else:
        candidates = [means]
    for roots in candidates:
        coeffs = ref_poly(roots)
        if np.max(np.abs(ref_apply(coeffs, A))) <= tol * nrm ** len(roots):
            return coeffs
    return ref_char_poly(A)


def ref_classify(A):
    """(variant, parameters, minimal polynomial), or None when ambiguous."""
    nrm, means, counts, pair, real = ref_roots(A)
    wide = 10.0 * TAU_CLUSTER * nrm
    if pair is not None:
        if pair[1] < wide:
            return None
        re, im = pair
        mp = np.convolve([1.0, -2.0 * re, re * re + im * im], [1.0, -real])
        return FormVariant.COMPLEX_PAIR, (re, im, real), mp
    if any(hi - lo < wide for lo, hi in zip(means[:-1], means[1:])):
        return None
    means = ref_refined(means, counts, float(np.trace(A)))
    if len(means) == 3:
        return FormVariant.DIAGONALIZABLE, tuple(means), ref_poly(means)
    if len(means) == 1:
        lam = means[0]
        if np.max(np.abs(A - lam * np.eye(3))) <= TAU_RANK * nrm:
            return (FormVariant.DIAGONALIZABLE, (lam, lam, lam),
                    np.array([1.0, -lam]))
        sq = np.array([1.0, -2.0 * lam, lam * lam])
        if np.max(np.abs(ref_apply(sq, A))) <= TAU_RANK * nrm ** 2:
            return FormVariant.JORDAN_2, (lam, lam), sq
        return FormVariant.JORDAN_3, (lam,), ref_poly([lam, lam, lam])
    d, s = (means[0], means[1]) if counts[0] == 2 else (means[1], means[0])
    if np.max(np.abs(ref_apply(ref_poly([d, s]), A))) <= TAU_RANK * nrm ** 2:
        return FormVariant.DIAGONALIZABLE, (d, d, s), ref_poly([d, s])
    return FormVariant.JORDAN_2, (d, s), ref_poly([d, d, s])


def _self_adjoint_operators():
    rng = np.random.default_rng(29)
    As, gs = [], []
    for variant in FormVariant:
        for _ in range(200):
            eps = int(rng.choice([1, -1])) \
                if variant is FormVariant.DIAGONALIZABLE else 1
            A, g = canonical_matrix(variant, _draw_parameters(rng, variant),
                                    epsilon=eps)
            S = _random_conjugation(rng)
            As.append(np.linalg.solve(S, A @ S))
            gs.append(S.T @ g @ S)
    for name in catalog.ENTRIES:
        entry = catalog.get(name)
        imm, merged = entry.build()
        geo = GeometryBatch(imm, grid_points(entry.safe_box(merged), (4, 4, 4)))
        for sign in (1.0, -1.0):
            As.extend(sign * geo.A)
            gs.extend(geo.g)
    for A in (np.zeros((3, 3)), np.eye(3), np.diag([0.0, 0.0, 1.0]),
              np.diag([-0.0, 0.0, -1.0]), np.diag([0.5, 0.5 + 3e-4, 2.0]),
              np.diag([0.5, 0.5 + 5e-5, 2.0]), np.diag([1.0, 2.0, 3.0])):
        As.append(A)
        gs.append(np.eye(3))
    for a in (0.0, 1.0, -0.6):
        for variant, params in ((FormVariant.JORDAN_2, (a, a)),
                                (FormVariant.JORDAN_3, (a,)),
                                (FormVariant.COMPLEX_PAIR, (a, 3e-4, 1.0))):
            A, g = canonical_matrix(variant, params)
            As.append(A)
            gs.append(g)
    return np.array(As), np.array(gs)


def _numpy_runs_libm():
    """Whether numpy's float64 arccos and power run their baseline loops,
    which call the C library, rather than a SIMD kernel of numpy's own."""
    introspect = getattr(np.lib, "introspect", None)
    if introspect is None:
        return False
    info = introspect.opt_func_info(func_name="^(arccos|power)$",
                                    signature="float64")
    return all(loop["current"].startswith("baseline")
               for loops in info.values() for loop in loops.values())


# Under numpy's AVX-512 kernels the worst case measured over the 1,968 rows
# of _self_adjoint_operators and the random matrices below was 12 ulps,
# 1.3e-15 relative; the bound has 7x headroom.  With the C library's loops
# the batch reproduces the reference exactly.
ROUND_OFF = 0.0 if _numpy_runs_libm() else 1e-14


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _agrees(got, ref, scale, degrees=None):
    """Same length, and entry k, of degree degrees[k] in A, within
    ROUND_OFF * scale^degrees[k]; by default the entries are polynomial
    coefficients, highest degree first, so entry k has degree k."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if degrees is None:
        degrees = np.arange(len(ref))
    return got.shape == ref.shape and bool(np.all(
        np.abs(got - ref) <= ROUND_OFF * scale ** np.asarray(degrees)))


def one_row_minimal_polynomial(A, tol=TAU_RANK):
    """Minimal polynomial of a one-row batch with its leading zeros trimmed;
    adding +0.0 writes a zero coefficient as +0.0, as the reference does."""
    mp = lorentz.classify_batch(A[None], tol=tol).min_poly[0]
    return np.trim_zeros(mp, "f") + 0.0


def test_batch_matches_scalar_reference_to_round_off():
    As, gs = _self_adjoint_operators()
    forms = lorentz.classify_batch(As, gs)
    assert forms.ambiguous.any() and not forms.ambiguous.all()
    for i, A in enumerate(As):
        ref = ref_classify(A)
        scale = max(1.0, float(np.max(np.abs(A))))
        assert forms.ambiguous[i] == (ref is None), i
        assert _bits(forms.char_poly[i]) == _bits(ref_char_poly(A)), i
        if ref is not None:
            got = form(forms, i)
            assert got.variant is ref[0], i
            assert _agrees(got.parameters, ref[1], scale,
                           np.ones(len(ref[1]))), i
            assert _agrees(got.minimal_polynomial, ref[2], scale), i
        assert _agrees(one_row_minimal_polynomial(A),
                       ref_minimal_polynomial(A), scale), i


@pytest.mark.parametrize("tol", [TAU_RANK, 1e-5])
def test_minimal_polynomial_matches_reference_on_random_matrices(tol):
    rng = np.random.default_rng(31)
    for _ in range(300):
        A = rng.normal(size=(3, 3)) * rng.choice([1e-3, 1.0, 50.0])
        assert _agrees(one_row_minimal_polynomial(A, tol=tol),
                       ref_minimal_polynomial(A, tol=tol),
                       max(1.0, float(np.max(np.abs(A)))))


def _python_calls(fn, *args):
    """Python function and builtin calls made while fn(*args) runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def test_classify_python_work_does_not_grow_with_rows():
    """The batch is array code: classifying 4,096 rows makes the same Python
    calls as classifying 64."""
    As, gs = _self_adjoint_operators()
    pick = np.linspace(0, len(As) - 1, 64).astype(int)
    block = As[pick], gs[pick]
    tiled = [np.tile(x, (64, 1, 1)) for x in block]
    lorentz.classify_batch(*block)
    assert _python_calls(lorentz.classify_batch, *block) == \
        _python_calls(lorentz.classify_batch, *tiled)
