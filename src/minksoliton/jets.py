"""Truncated multivariate Taylor arithmetic in three chart variables.

A ``Jet`` stores the Taylor coefficients (derivative / factorial
normalization) of one scalar quantity at an evaluation point, indexed by
multi-indices (i, j, k) with i + j + k <= 3.  Arithmetic on jets propagates
exact derivatives through composite expressions, which is how immersion
charts deliver the first, second and third partials that the curvature
pipeline consumes.

Coefficient arrays carry an arbitrary leading batch shape, so a single jet
expression evaluates a whole sample grid at once.
"""

from __future__ import annotations

import ctypes
import math
import sys

import numpy as np

# A 21^3 analysis frees about 150 MB of jet arrays at its end.  Keep up to
# 512 MiB of freed heap in the process (a process-wide setting) rather than
# fault every page in again in the next analysis, and take arrays under
# 32 MiB from the heap.
if sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt"):
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 512 << 20)  # M_TRIM_THRESHOLD

N_VARS = 3
DEGREE = 3


class DomainError(ArithmeticError):
    """Raised for division by a zero constant term or sqrt of a nonpositive one."""


class IndexOutOfRange(LookupError):
    """Raised when a derivative beyond the stored (or valid) order is requested."""


def _build_multi_indices():
    out = []
    for d in range(DEGREE + 1):
        for i in range(d, -1, -1):
            for j in range(d - i, -1, -1):
                out.append((i, j, d - i - j))
    return tuple(out)


MULTI_INDICES = _build_multi_indices()
N_COEFFS = len(MULTI_INDICES)  # 20
INDEX_OF = {mi: n for n, mi in enumerate(MULTI_INDICES)}
_DEGREES = np.array([sum(mi) for mi in MULTI_INDICES])


def _build_pair_table():
    ia, ib, iout = [], [], []
    for na, a in enumerate(MULTI_INDICES):
        for nb, b in enumerate(MULTI_INDICES):
            if sum(a) + sum(b) <= DEGREE:
                c = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                ia.append(na)
                ib.append(nb)
                iout.append(INDEX_OF[c])
    sel = np.zeros((len(ia), N_COEFFS))
    sel[np.arange(len(ia)), iout] = 1.0
    return np.array(ia), np.array(ib), np.array(iout), sel


_MUL_A, _MUL_B, _MUL_OUT, _MUL_SEL = _build_pair_table()

# Per-variable derivative maps: coefficient at alpha of d/dx_v comes from
# alpha + e_v, scaled by alpha_v + 1.
_DERIV_SRC = []
_DERIV_DST = []
_DERIV_FAC = []
for v in range(N_VARS):
    src, dst, fac = [], [], []
    for n, mi in enumerate(MULTI_INDICES):
        if mi[v] >= 1:
            lower = list(mi)
            lower[v] -= 1
            src.append(n)
            dst.append(INDEX_OF[tuple(lower)])
            fac.append(mi[v])
    _DERIV_SRC.append(np.array(src))
    _DERIV_DST.append(np.array(dst))
    _DERIV_FAC.append(np.array(fac, dtype=float))


def _recurrence_groups(require_both_nonzero):
    """Pair lists per output degree for the division / sqrt recurrences."""
    groups = []
    for d in range(1, DEGREE + 1):
        keep = (_DEGREES[_MUL_OUT] == d) & (_DEGREES[_MUL_A] > 0)
        if require_both_nonzero:
            keep &= _DEGREES[_MUL_B] > 0
        slots = np.flatnonzero(_DEGREES == d)
        groups.append((_MUL_A[keep], _MUL_B[keep], _MUL_SEL[keep][:, slots], slots))
    return groups


_DIV_GROUPS = _recurrence_groups(require_both_nonzero=False)
_SQRT_GROUPS = _recurrence_groups(require_both_nonzero=True)


class Jet:
    """Taylor expansion of one scalar to total degree 3 in three variables.

    ``coeffs`` has shape ``batch_shape + (20,)``.  ``order`` is the highest
    total degree whose coefficients are trustworthy; differentiation lowers
    it by one.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=DEGREE):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.order = order

    @property
    def value(self):
        return self.coeffs[..., 0]

    @property
    def shape(self):
        return self.coeffs.shape[:-1]

    def copy(self):
        return Jet(self.coeffs.copy(), self.order)

    # -- ring operations ---------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        c = np.zeros(np.shape(other) + (N_COEFFS,))
        c[..., 0] = other
        return Jet(c)

    def __add__(self, other):
        other = self._lift(other)
        return Jet(self.coeffs + other.coeffs, min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.order)

    def __sub__(self, other):
        other = self._lift(other)
        return Jet(self.coeffs - other.coeffs, min(self.order, other.order))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs * np.asarray(other, dtype=float)[..., None],
                       self.order)
        prod = self.coeffs[..., _MUL_A] * other.coeffs[..., _MUL_B]
        return Jet(prod @ _MUL_SEL, min(self.order, other.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.coeffs / np.asarray(other, dtype=float)[..., None],
                       self.order)
        return _divide(self, other)

    def __rtruediv__(self, other):
        return _divide(self._lift(other), self)

    def __pow__(self, exponent):
        if isinstance(exponent, (int, np.integer)):
            return _int_pow(self, int(exponent))
        return pow_real(self, float(exponent))

    # -- calculus ----------------------------------------------------------

    def deriv(self, index):
        """Partial derivative with respect to variable ``index`` (1..3)."""
        if index not in (1, 2, 3):
            raise IndexOutOfRange(f"variable index must be 1..3, got {index}")
        v = index - 1
        out = np.zeros_like(self.coeffs)
        out[..., _DERIV_DST[v]] = self.coeffs[..., _DERIV_SRC[v]] * _DERIV_FAC[v]
        return Jet(out, max(self.order - 1, 0))


def constant(value, shape=()):
    c = np.zeros(tuple(shape) + (N_COEFFS,))
    c[..., 0] = value
    return Jet(c)


def variable(index, value):
    """Jet of the chart variable ``index`` (1..3) at ``value`` (scalar or array)."""
    if index not in (1, 2, 3):
        raise IndexOutOfRange(f"variable index must be 1..3, got {index}")
    value = np.asarray(value, dtype=float)
    c = np.zeros(value.shape + (N_COEFFS,))
    c[..., 0] = value
    c[..., INDEX_OF[(1, 0, 0)] + (index - 1)] = 1.0
    return Jet(c)


def extract_derivative(jet, multi_index):
    """True partial derivative d^(i+j+k) f / du^i dv^j dw^k at the base point."""
    i, j, k = multi_index
    if min(i, j, k) < 0 or i + j + k > DEGREE:
        raise IndexOutOfRange(f"multi-index {multi_index} exceeds degree {DEGREE}")
    if i + j + k > jet.order:
        raise IndexOutOfRange(
            f"jet only carries valid coefficients to order {jet.order}")
    scale = math.factorial(i) * math.factorial(j) * math.factorial(k)
    return scale * jet.coeffs[..., INDEX_OF[(i, j, k)]]


def _divide(num, den):
    b0 = den.coeffs[..., 0]
    if np.any(b0 == 0.0):
        raise DomainError("division by a jet with zero constant term")
    out = np.zeros(np.broadcast_shapes(num.coeffs.shape, den.coeffs.shape),
                   dtype=float)
    a = np.broadcast_to(num.coeffs, out.shape)
    b = np.broadcast_to(den.coeffs, out.shape)
    out[..., 0] = a[..., 0] / b0
    for ia, ib, sel, slots in _DIV_GROUPS:
        acc = (b[..., ia] * out[..., ib]) @ sel
        out[..., slots] = (a[..., slots] - acc) / b0[..., None]
    return Jet(out, min(num.order, den.order))


def sqrt(jet):
    """Square root by the Taylor recurrence; constant term must be positive."""
    a0 = jet.coeffs[..., 0]
    if np.any(a0 <= 0.0):
        raise DomainError("sqrt of a jet with nonpositive constant term")
    out = np.zeros_like(jet.coeffs)
    out[..., 0] = np.sqrt(a0)
    twice = 2.0 * out[..., 0]
    for ia, ib, sel, slots in _SQRT_GROUPS:
        acc = (out[..., ia] * out[..., ib]) @ sel
        out[..., slots] = (jet.coeffs[..., slots] - acc) / twice[..., None]
    return Jet(out, jet.order)


def _compose(jet, d0, d1, d2, d3):
    """f(jet) from the values of f and its first three derivatives at jet.value."""
    p = jet.coeffs.copy()
    p[..., 0] = 0.0
    p = Jet(p, jet.order)
    res = p * (d3 / 6.0)
    res = p * (res + (d2 / 2.0))
    res = p * (res + d1)
    out = res.coeffs.copy()
    out[..., 0] += d0
    return Jet(out, jet.order)


def sin(jet):
    s, c = np.sin(jet.value), np.cos(jet.value)
    return _compose(jet, s, c, -s, -c)


def cos(jet):
    s, c = np.sin(jet.value), np.cos(jet.value)
    return _compose(jet, c, -s, -c, s)


def sinh(jet):
    s, c = np.sinh(jet.value), np.cosh(jet.value)
    return _compose(jet, s, c, s, c)


def cosh(jet):
    s, c = np.sinh(jet.value), np.cosh(jet.value)
    return _compose(jet, c, s, c, s)


def exp(jet):
    e = np.exp(jet.value)
    return _compose(jet, e, e, e, e)


def pow_real(jet, r):
    """jet ** r for real r; requires a positive constant term."""
    u0 = jet.value
    if np.any(u0 <= 0.0):
        raise DomainError("real power of a jet with nonpositive constant term")
    d0 = u0 ** r
    d1 = r * u0 ** (r - 1)
    d2 = r * (r - 1) * u0 ** (r - 2)
    d3 = r * (r - 1) * (r - 2) * u0 ** (r - 3)
    return _compose(jet, d0, d1, d2, d3)


def _int_pow(jet, n):
    if n < 0:
        return _divide(constant(1.0, jet.shape), _int_pow(jet, -n))
    result = constant(1.0, jet.shape)
    result.order = jet.order
    base = jet
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result
