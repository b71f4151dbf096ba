"""Truncated multivariate Taylor arithmetic in three chart variables.

A ``Jet`` stores the Taylor coefficients (derivative / factorial
normalization) of one scalar quantity at an evaluation point, indexed by
multi-indices (i, j, k) with i + j + k <= 3.  Arithmetic on jets propagates
exact derivatives through composite expressions, which is how immersion
charts deliver the first, second and third partials that the curvature
pipeline consumes.

Coefficients are stored coefficient-major, ``coeffs`` having shape
``(20,) + batch_shape``, so a single jet expression evaluates a whole sample
grid at once.  A product sums each output coefficient's pair terms from +0.0
in pair-table order with numpy adds, block by block; there is no BLAS call,
so a point gets the same bits in a batch of any size.  Division and sqrt run
the same sums degree by degree (Griewank & Walther, Evaluating Derivatives,
2nd ed., SIAM 2008, on truncated Taylor series).
"""

from __future__ import annotations

import ctypes
import itertools
import math
import sys

import numpy as np

# A 21^3 analysis frees about 180 MiB of jet arrays at its end.  Keep up to
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
    return np.array(ia), np.array(ib), np.array(iout)


_MUL_A, _MUL_B, _MUL_OUT = _build_pair_table()


def _plan(slots, keep):
    """Fixed summation order for the pairs ``keep`` into the output ``slots``.

    Slots go in order of falling pair count, so step k adds every slot's k-th
    pair (in pair-table order) into a prefix of the accumulator.  Either
    every slot has a pair or none has.
    """
    pairs = [np.flatnonzero(keep & (_MUL_OUT == s)) for s in slots]
    rank = sorted(range(len(slots)), key=lambda r: -len(pairs[r]))
    steps = [[pairs[r][k] for r in rank if len(pairs[r]) > k]
             for k in range(max(map(len, pairs)))]
    flat = np.array([p for step in steps for p in step], dtype=int)
    ends = list(itertools.accumulate(len(step) for step in steps))
    adds = [(slice(0, e - b), slice(b, e)) for b, e in zip(ends, ends[1:])]
    width = len(steps[0]) if steps else 0
    order = sorted(range(len(rank)), key=rank.__getitem__)
    return _MUL_A[flat], _MUL_B[flat], width, adds, np.array(order)


_BLOCK = 1024  # points per block: a block's 84 pair products stay in L2


def _pair_sum(x, y, plan):
    """Per slot of ``plan``: the sum from +0.0 of x[a] * y[b] over its pairs."""
    ia, ib, width, adds, order = plan
    if not width:
        return 0.0
    if x.shape == y.shape and x.ndim > 1 and x.shape[-1] > _BLOCK:
        return np.concatenate([_pair_sum(x[..., j:j + _BLOCK], y[..., j:j + _BLOCK], plan)
                               for j in range(0, x.shape[-1], _BLOCK)], axis=-1)
    prod = x.take(ia, axis=0)
    prod = np.multiply(prod, y.take(ib, axis=0), out=prod if x.shape == y.shape else None)
    acc = prod[:width] + 0.0
    for to, terms in adds:
        acc[to] += prod[terms]
    return acc.take(order, axis=0)


_MUL_PLAN = _plan(np.arange(N_COEFFS), np.ones(len(_MUL_OUT), dtype=bool))
# Division and sqrt recurrences, per output degree: the pairs whose first
# (division) or both (sqrt) factors are not the constant term.
_DIV_GROUPS = [(s, _plan(s, _DEGREES[_MUL_A] > 0))
               for s in (np.flatnonzero(_DEGREES == d) for d in range(1, DEGREE + 1))]
_SQRT_GROUPS = [(s, _plan(s, (_DEGREES[_MUL_A] > 0) & (_DEGREES[_MUL_B] > 0)))
                for s, _ in _DIV_GROUPS]

# Per-variable derivative maps: coefficient at alpha of d/dx_v comes from
# alpha + e_v, scaled by alpha_v + 1.  The product pairs (e_v, alpha) list
# both slots.
_DERIV = []
for v in range(N_VARS):
    pick = _MUL_A == INDEX_OF[(1, 0, 0)] + v
    src = _MUL_OUT[pick]
    _DERIV.append((src, _MUL_B[pick],
                   np.array([MULTI_INDICES[n][v] for n in src], dtype=float)))


def _align(a, b):
    """Coefficient arrays ``a`` and ``b``, padded to as many batch axes each."""
    if a.ndim != b.ndim:
        nd = max(a.ndim, b.ndim)
        a, b = (c.reshape(c.shape[:1] + (1,) * (nd - c.ndim) + c.shape[1:])
                for c in (a, b))
    return a, b


class Jet:
    """Taylor expansion of one scalar to total degree 3 in three variables.

    ``coeffs`` has shape ``(20,) + batch_shape``.  ``order`` is the highest
    total degree whose coefficients are trustworthy; differentiation lowers
    it by one.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=DEGREE):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.order = order

    value = property(lambda self: self.coeffs[0], doc="Constant term, per point.")
    shape = property(lambda self: self.coeffs.shape[1:], doc="Batch shape.")

    def copy(self):
        return Jet(self.coeffs.copy(), self.order)

    # -- ring operations ---------------------------------------------------

    def _lift(self, other):
        return other if isinstance(other, Jet) else constant(other, np.shape(other))

    def __add__(self, other):
        other = self._lift(other)
        a, b = _align(self.coeffs, other.coeffs)
        return Jet(a + b, min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.order)

    def __sub__(self, other):
        other = self._lift(other)
        a, b = _align(self.coeffs, other.coeffs)
        return Jet(a - b, min(self.order, other.order))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            a, b = _align(self.coeffs, np.asarray(other, dtype=float)[None])
            return Jet(a * b, self.order)
        a, b = _align(self.coeffs, other.coeffs)
        return Jet(_pair_sum(a, b, _MUL_PLAN), min(self.order, other.order))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet):
            a, b = _align(self.coeffs, np.asarray(other, dtype=float)[None])
            return Jet(a / b, self.order)
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
        src, dst, fac = _DERIV[index - 1]
        out = np.zeros_like(self.coeffs)
        out[dst] = self.coeffs[src] * fac.reshape(fac.shape + (1,) * len(self.shape))
        return Jet(out, max(self.order - 1, 0))


def constant(value, shape=()):
    c = np.zeros((N_COEFFS,) + tuple(shape))
    c[0] = value
    return Jet(c)


def variable(index, value):
    """Jet of the chart variable ``index`` (1..3) at ``value`` (scalar or array)."""
    if index not in (1, 2, 3):
        raise IndexOutOfRange(f"variable index must be 1..3, got {index}")
    value = np.asarray(value, dtype=float)
    c = np.zeros((N_COEFFS,) + value.shape)
    c[0] = value
    c[INDEX_OF[(1, 0, 0)] + (index - 1)] = 1.0
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
    return scale * jet.coeffs[INDEX_OF[(i, j, k)]]


def _divide(num, den):
    b0 = den.coeffs[0]
    if np.any(b0 == 0.0):
        raise DomainError("division by a jet with zero constant term")
    a, b = _align(num.coeffs, den.coeffs)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    a, b = np.broadcast_to(a, out.shape), np.broadcast_to(b, out.shape)
    out[0] = a[0] / b0
    for slots, plan in _DIV_GROUPS:
        out[slots] = (a[slots] - _pair_sum(b, out, plan)) / b0
    return Jet(out, min(num.order, den.order))


def sqrt(jet):
    """Square root by the Taylor recurrence; constant term must be positive."""
    a0 = jet.coeffs[0]
    if np.any(a0 <= 0.0):
        raise DomainError("sqrt of a jet with nonpositive constant term")
    out = np.zeros_like(jet.coeffs)
    out[0] = np.sqrt(a0)
    twice = 2.0 * out[0]
    for slots, plan in _SQRT_GROUPS:
        out[slots] = (jet.coeffs[slots] - _pair_sum(out, out, plan)) / twice
    return Jet(out, jet.order)


def _compose(jet, d0, d1, d2, d3):
    """f(jet) from the values of f and its first three derivatives at jet.value."""
    p = jet.coeffs.copy()
    p[0] = 0.0
    p = Jet(p, jet.order)
    res = p * (d3 / 6.0)
    res = p * (res + (d2 / 2.0))
    res = p * (res + d1)
    out = res.coeffs.copy()
    out[0] += d0
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
