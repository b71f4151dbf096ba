"""Linear algebra over the Minkowski inner product of index 1.

Covers the 4-dimensional ambient product -u1*v1 + u2*v2 + u3*v3 + u4*v4,
3x3 indefinite tangent metrics, and the eigenstructure machinery that sorts
a self-adjoint tangent endomorphism into one of the four Lorentzian
canonical forms (diagonalizable, complex pair, 2-step or 3-step Jordan
block) via its minimal polynomial.

One batched classifier, classify_batch, sorts a whole stack of operators at
once, in array operations only.  Eigenvalues of 3x3 matrices come from the
closed-form cubic with a Newton polish, and the spectral norm that scales
its thresholds from a closed form too, so no row needs an eigensolver or an
SVD.  The result of a row does not depend on the batch around it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Decision thresholds.  Jet-based inputs are machine accurate, so two
# decades separate input noise from every decision boundary.
TAU_ALG = 1e-9
TAU_RANK = 1e-7
TAU_CLUSTER = 1e-4
TAU_DEGENERATE = 1e-12

METRIC_SIGNS = np.array([-1.0, 1.0, 1.0, 1.0])


def mink_inner(u, v):
    """Index-1 inner product; accepts arrays with a trailing axis of length 4."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return (u * v * METRIC_SIGNS).sum(axis=-1)


# -- cubic eigenstructure, row by row on stacks of 3x3 matrices -------------
# Every step is an array operation, so the Python work per call does not grow
# with the number of rows.  numpy's vectorized power and arccos may differ from
# the C library's in the last bit; tests/test_classify_reference.py states the
# resulting bound against the scalar reference.

def char_poly(A):
    """Monic characteristic polynomial coefficients, highest degree first;
    A is one matrix or a stack of them."""
    A = np.asarray(A, dtype=float)
    tr = np.trace(A, axis1=-2, axis2=-1)
    minors = (A[..., 1, 1] * A[..., 2, 2] - A[..., 1, 2] * A[..., 2, 1]
              + A[..., 0, 0] * A[..., 2, 2] - A[..., 0, 2] * A[..., 2, 0]
              + A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0])
    det = np.linalg.det(A)
    return np.stack([np.ones_like(tr), -tr, minors, -det], axis=-1)


_TURNS = np.array([2.0 * math.pi * k / 3.0 for k in range(3)])


def _cubic_roots(cp):
    """Closed-form roots of the monic cubics in the rows of cp: sorted reals
    (n, 3), with NaN after the real root of a row with a complex pair
    re +/- i*im, and re, im (NaN on rows without a pair)."""
    _, b, c, d = cp.T
    p = c - b * b / 3.0
    q = 2.0 * np.power(b, 3.0) / 27.0 - b * c / 3.0 + d
    shift = -b / 3.0
    scale = np.maximum.reduce([np.ones_like(b), np.abs(b), np.sqrt(np.abs(c)),
                               np.power(np.abs(d), 1.0 / 3.0)])
    flat = ((np.abs(p) < 1e-14 * np.power(scale, 2.0))
            & (np.abs(q) < 1e-14 * np.power(scale, 3.0)))
    disc = np.power(q / 2.0, 2.0) + np.power(p / 3.0, 3.0)
    pair = ~flat & (disc > 0.0)
    reals = np.repeat(shift[:, None], 3, axis=1)
    re, im = np.full((2, len(cp)), np.nan)

    t1 = -q[pair] / 2.0 - np.copysign(np.sqrt(disc[pair]), q[pair])
    u = np.copysign(np.power(np.abs(t1), 1.0 / 3.0), t1)
    v = np.where(u != 0.0, -p[pair] / (3.0 * u), 0.0)
    reals[pair] = np.nan
    reals[pair, 0] = u + v + shift[pair]
    re[pair] = -(u + v) / 2.0 + shift[pair]
    im[pair] = math.sqrt(3.0) / 2.0 * np.abs(u - v)

    # three real roots, unless the depressed cubic is t^3
    rows = np.flatnonzero(~flat & ~pair)
    m = 2.0 * np.sqrt(np.maximum(-p[rows], 0.0) / 3.0)
    rows, m = rows[m != 0.0], m[m != 0.0]
    arg = np.clip(3.0 * q[rows] / (p[rows] * m), -1.0, 1.0)
    phi = np.arccos(arg) / 3.0
    ys = m[:, None] * np.cos(phi[:, None] - _TURNS)
    reals[rows] = np.sort(ys + shift[rows, None], axis=1)
    return reals, re, im


def _polish(roots, cp, scale):
    """Two guarded Newton steps on every root; NaN entries stay NaN."""
    c0, c1, c2, c3 = (cp[:, k, None] for k in range(4))
    flat_slope = 1e-8 * np.power(scale, 2.0)[:, None]
    live = np.ones(roots.shape, dtype=bool)
    for _ in range(2):
        p = ((c0 * roots + c1) * roots + c2) * roots + c3
        dp = (3.0 * c0 * roots + 2.0 * c1) * roots + c2
        live &= ~(np.abs(dp) < flat_slope)
        roots = np.where(live, roots - p / dp, roots)
    return roots


def _poly_from_roots(roots):
    """Coefficients of t^3 .. t^0 of the monic polynomial with each row's roots."""
    coeffs = np.zeros((len(roots), 4))
    coeffs[:, 3] = 1.0
    for r in roots.T:
        coeffs = _times_linear(coeffs, r)
    return coeffs


def _times_linear(coeffs, r):
    """coeffs * (t - r) per row, each sum from +0.0 as in np.convolve."""
    out = coeffs * -r[:, None] + 0.0
    out[:, :-1] += coeffs[:, 1:]
    return out


def poly_apply(coeffs, A):
    """Evaluate polynomials (highest-first coefficients) at (stacked) matrices
    by Horner's rule, adding each coefficient to the diagonal in place."""
    A = np.asarray(A, dtype=float)
    coeffs = np.moveaxis(np.asarray(coeffs, dtype=float), -1, 0)
    diag = np.arange(3)
    out = np.zeros_like(A)
    out[..., diag, diag] = coeffs[0][..., None]
    for c in coeffs[1:]:
        out = out @ A
        out[..., diag, diag] += c[..., None]
    return out


def spectral_norm(A):
    """Largest singular value of each matrix of a stack (n, 3, 3).

    It is the square root of the top eigenvalue of B = A^T A, from Smith's
    trigonometric formula (Comm. ACM 4, 1961, 168) for the eigenvalues of a
    symmetric 3x3 matrix.  A is first scaled by a power of two, which is exact
    and keeps B clear of overflow and underflow.
    """
    _, e = np.frexp(np.max(np.abs(A), axis=(1, 2)))
    A = np.ldexp(A, -e[:, None, None])
    B = np.swapaxes(A, 1, 2).copy() @ A  # a strided operand makes @ 3x slower
    diag = np.arange(3)
    q = np.trace(B, axis1=1, axis2=2) / 3.0
    D = B.copy()
    D[:, diag, diag] -= q[:, None]
    p = np.sqrt(np.sum(D * D, axis=(1, 2)) / 6.0)
    D /= np.where(p > 0.0, p, 1.0)[:, None, None]
    det = (D[:, 0, 0] * (D[:, 1, 1] * D[:, 2, 2] - D[:, 1, 2] * D[:, 2, 1])
           - D[:, 0, 1] * (D[:, 1, 0] * D[:, 2, 2] - D[:, 1, 2] * D[:, 2, 0])
           + D[:, 0, 2] * (D[:, 1, 0] * D[:, 2, 1] - D[:, 1, 1] * D[:, 2, 0]))
    r = np.clip(det / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    top = q + 2.0 * p * np.cos(phi)

    # Near r = -1 the top eigenvalue is nearly double, and arccos there
    # loses up to half the digits.  On those rows the lowest eigenvalue, low,
    # is well separated and accurate, and so is its eigenvector v: the row of
    # adj(B - low I), which has rank 1, with the largest diagonal entry.  The
    # top pair then has mean mid and half-gap |K|_F / sqrt(2), where
    # K = B - mid I + (mid - low) v v^T.  If B is scalar up to rounding, adj
    # may vanish; v = 0 then leaves |K|_F at the rounding level, as it should.
    near = np.flatnonzero(r < -0.9)
    B = B[near]
    low = (q + 2.0 * p * np.cos(phi + _TURNS[1]))[near]
    M = B.copy()
    M[:, diag, diag] -= low[:, None]
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = np.moveaxis(M, 0, -1)
    adj = np.stack([m11 * m22 - m12 * m12, m02 * m12 - m01 * m22,
                    m01 * m12 - m02 * m11, m00 * m22 - m02 * m02,
                    m01 * m02 - m00 * m12, m00 * m11 - m01 * m01], axis=1)
    adj = adj[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(-1, 3, 3)
    v = adj[np.arange(len(near)), np.argmax(adj[:, diag, diag], axis=1)]
    v /= np.maximum(np.linalg.norm(v, axis=1), np.finfo(float).tiny)[:, None]
    mid = (np.trace(B, axis1=1, axis2=2) - low) / 2.0
    K = B + (mid - low)[:, None, None] * v[:, :, None] * v[:, None, :]
    K[:, diag, diag] -= mid[:, None]
    top[near] = mid + np.sqrt(np.sum(K * K, axis=(1, 2)) / 2.0)
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), e)


class FormVariant(enum.Enum):
    DIAGONALIZABLE = "diagonalizable"
    COMPLEX_PAIR = "complex_pair"
    JORDAN_2 = "jordan2"
    JORDAN_3 = "jordan3"


VARIANTS = tuple(FormVariant)
DIAG, CPLX, JORDAN2, JORDAN3 = range(4)
N_PARAMETERS = (3, 3, 2, 1)


@dataclass(frozen=True)
class FormBatch:
    """Canonical forms of n operators: variant codes into VARIANTS,
    parameters (n, 3) of which the first N_PARAMETERS[code] count, minimal
    and characteristic polynomials (n, 4) as coefficients of t^3 .. t^0,
    and ambiguity flags.

    parameters:
      diagonalizable -> (a1, a2, a3), repeated eigenvalue listed first
      complex_pair   -> (a1, b1, a2) for eigenvalues a1 +/- i b1 and a2
      jordan2        -> (a1, a2), double root a1 (a2 may equal a1)
      jordan3        -> (a1,), triple defective root
    """

    variant: np.ndarray
    parameters: np.ndarray
    min_poly: np.ndarray
    ambiguous: np.ndarray
    char_poly: np.ndarray


def is_self_adjoint(A, g, tol=TAU_ALG):
    """Whether g A is symmetric, per matrix of a stack."""
    m = np.asarray(g, dtype=float) @ np.asarray(A, dtype=float)
    scale = np.maximum(1.0, np.max(np.abs(m), axis=(-2, -1)))
    asym = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-2, -1))
    return asym <= tol * scale * 10.0


def classify_batch(A, g=None, tol=TAU_RANK):
    """Lorentzian canonical forms of a stack of operators A (n, 3, 3).

    Roots of the characteristic cubic closer than TAU_CLUSTER * |A| merge,
    a repeated one is recomputed from the exact trace, and the first
    candidate polynomial, by degree, that annihilates A to tol * |A|^degree
    is the minimal polynomial.  A row is ambiguous when a separation lies
    within ten times the cluster threshold.  With g, A must be g-self-adjoint.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all() or (g is not None
                                    and not np.isfinite(g).all()):
        raise ValueError("operator or metric is not finite")
    if g is not None and not np.all(is_self_adjoint(A, g)):
        raise ValueError("operator is not self-adjoint for the supplied metric")
    n = len(A)
    nrm = np.maximum(1.0, spectral_norm(A))
    gap, wide = TAU_CLUSTER * nrm, 10.0 * TAU_CLUSTER * nrm
    trace = np.trace(A, axis1=1, axis2=2)
    cp = char_poly(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        reals, re, im = _cubic_roots(cp)
        scale = np.maximum(1.0, np.max(np.abs(A), axis=(1, 2)))
        reals = np.sort(_polish(reals, cp, scale), axis=1)
    cplx = im >= gap
    small = ~np.isnan(re) & ~cplx  # a double real root at re
    reals[small] = np.sort(np.stack(
        [reals[small, 0], re[small], re[small]], axis=1), axis=1)

    # chain clustering of the sorted roots, group means as np.mean forms them
    join1 = reals[:, 1] - reals[:, 0] <= gap
    join2 = reals[:, 2] - reals[:, 1] <= gap
    one, two = join1 & join2, join1 ^ join2
    s0, s1, s2 = (reals[:, k:k + 1].mean(axis=1) for k in range(3))
    low, high = reals[:, :2].mean(axis=1), reals[:, 1:].mean(axis=1)
    sep = np.select([one, join1, join2], [np.inf, s2 - low, high - s0],
                    np.minimum(s1 - s0, s2 - s1))
    ambiguous = np.where(cplx, im < wide, sep < wide)
    # the repeated root from the trace: lam (triple) or d (double, beside s)
    lam = trace / 3.0
    s = np.where(join1, s2, s0)
    d = (trace - s) / 2.0

    # Candidates by degree.  The one-cluster ones of degree 1 and 2 are
    # written out in lam, so a zero coefficient keeps the sign of -lam.
    zero, unit = np.zeros(n), np.ones(n)
    cand = [np.stack([zero, zero, unit, -lam], axis=1),
            np.where(two[:, None], _poly_from_roots(np.stack([d, s], axis=1)),
                     np.stack([zero, unit, -2.0 * lam, lam * lam], axis=1)),
            _poly_from_roots(np.select(
                [one[:, None], two[:, None]],
                [lam[:, None], np.stack([d, d, s], axis=1)],
                np.stack([s0, s1, s2], axis=1)))]

    def kills(degree, rows):
        """Whether candidate `degree` annihilates A, on the rows that read it;
        its 3 - degree leading coefficients are zero."""
        out = np.zeros(n, dtype=bool)
        value = poly_apply(cand[degree - 1][rows, 3 - degree:], A[rows])
        out[rows] = (np.max(np.abs(value), axis=(1, 2))
                     <= tol * np.power(nrm[rows], float(degree)))
        return out

    k1 = kills(1, one)
    k2 = kills(2, (one | two) & ~k1)
    k3 = kills(3, ~(k1 | k2 | cplx))
    quad = np.stack([zero, unit, -2.0 * re, re * re + im * im], axis=1)
    min_poly = np.select([cplx[:, None], k1[:, None], k2[:, None], k3[:, None]],
                         [_times_linear(quad, reals[:, 0])] + cand, cp)
    # diagonalizable wherever the first candidate tried kills A
    variant = np.select([cplx, one & k2, one & ~k1, two & ~k2],
                        [CPLX, JORDAN2, JORDAN3, JORDAN2], DIAG)
    parameters = np.select(
        [cplx[:, None], one[:, None], two[:, None]],
        [np.stack([re, im, reals[:, 0]], axis=1), lam[:, None],
         np.stack([d, np.where(k2, d, s), s], axis=1)],
        np.stack([s0, s1, s2], axis=1))
    return FormBatch(variant, parameters, min_poly, ambiguous, cp)

