"""Truncated multivariate Taylor arithmetic in three chart variables.

A ``Jet`` stores the Taylor coefficients (derivative / factorial
normalization) of one scalar quantity at an evaluation point, indexed by
multi-indices (i, j, k) with i + j + k <= 3.  Arithmetic on jets propagates
exact derivatives through composite expressions, which is how immersion
charts deliver the first, second and third partials that the curvature
pipeline consumes.

Coefficients are stored coefficient-major, ``coeffs`` having shape
``(ROWS[order],) + batch_shape``: 1, 4, 10 or 20 rows for order 0-3, and an
operation runs at the smaller order of its operands.  A product sums each
output coefficient's pair terms from +0.0 in pair-table order with numpy
adds and no BLAS call, so a point gets the same bits in a batch of any
size and at any order; ``hypersurface.GeometryBatch`` therefore runs its
jets over blocks of points that fit in cache.  A small product gathers its
pair rows; a large one, whose gathered rows spill L2, adds row slices.
Division and sqrt run the same sums degree by degree (Griewank & Walther,
Evaluating Derivatives, 2nd ed., SIAM 2008, on truncated Taylor series).

A jet indexes its batch axes as numpy does, and ``stack`` joins jets along
a new leading batch axis, so one jet holds a whole tensor.
``hypersurface.geometry_block`` puts the component axes before the point
axis, sums each contraction over a component axis in a fixed term order,
and mirrors the Christoffel symbols in their lower indices rather than
computing both halves: a product is not commutative bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

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
# Coefficients of a jet of order d: the multi-indices of degree <= d lead.
ROWS = tuple(math.comb(N_VARS + d, N_VARS) for d in range(DEGREE + 1))


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


# From this many pair products (pairs times batch elements) on, a product adds
# slice runs.  Inside 21^3 analyses they took 0.51-0.92 of the gather's time
# there, but 1.03-1.17 on scalar products of 9-36 pairs (2-vCPU Xeon, numpy 2.4.6).
_SLICE_RUNS_FROM = 2 ** 15


def _runs(pairs):
    """Slice runs ``(a, b, slots)``: the slots advance by 1, the rows of each
    factor by 0 or 1, and a run adds the next pair of each of its slots.
    Each pick is the run through the slot with the most pairs left, then the
    longest, then the first: 1/2/6/18 runs for products of order 0-3."""
    left = [[(int(a), int(b)) for a, b in zip(_MUL_A[p], _MUL_B[p])] for p in pairs]
    runs = []
    while any(left):
        best = (0, 0)
        for s, (a, b) in ((s, p[0]) for s, p in enumerate(left) if p):
            for da, db in ((0, 1), (1, 0), (1, 1)):
                n = 1
                while s + n < len(left) and left[s + n][:1] == [(a + n * da, b + n * db)]:
                    n += 1
                if (key := (max(map(len, left[s:s + n])), n)) > best[:2]:
                    best = key + (s, a, b, da, db)
        _, n, s, a, b, da, db = best
        for p in left[s:s + n]:
            del p[0]
        runs.append((slice(a, a + (n if da else 1)), slice(b, b + (n if db else 1)),
                     slice(s, s + n)))
    return runs


def _plan(slots, keep):
    """Fixed summation order for the pairs ``keep`` into the output
    ``slots``, as ``_runs`` and as a gather, whose slots go in order of
    falling pair count: step k adds every slot's k-th pair (in pair-table
    order) into a prefix of the accumulator.  Either every slot has a pair
    or none has."""
    pairs = [np.flatnonzero(keep & (_MUL_OUT == s)) for s in slots]
    rank = sorted(range(len(slots)), key=lambda r: -len(pairs[r]))
    steps = [[pairs[r][k] for r in rank if len(pairs[r]) > k]
             for k in range(max(map(len, pairs)))]
    flat = np.array([p for step in steps for p in step], dtype=int)
    ends = list(itertools.accumulate(len(step) for step in steps))
    adds = [(slice(0, e - b), slice(b, e)) for b, e in zip(ends, ends[1:])]
    width = len(steps[0]) if steps else 0
    order = sorted(range(len(rank)), key=rank.__getitem__)
    return _MUL_A[flat], _MUL_B[flat], width, adds, np.array(order), _runs(pairs)


def _pair_sum(x, y, plan):
    """Per slot of ``plan``: the sum from +0.0 of x[a] * y[b] over its pairs."""
    ia, ib, width, adds, order, runs = plan
    if not width:
        return 0.0
    # x and y come aligned to as many axes, so the max is the broadcast shape
    full = tuple(map(max, x.shape[1:], y.shape[1:]))
    if len(ia) * math.prod(full) >= _SLICE_RUNS_FROM:
        (a, b, to), *rest = runs
        if to.stop - to.start == len(order):  # a first run through every slot
            acc = x[a] * y[b]
            acc += 0.0
        else:
            acc, rest = np.zeros((len(order),) + full), runs
        for a, b, to in rest:
            acc[to] += x[a] * y[b]
        return acc
    px, py = x.take(ia, axis=0), y.take(ib, axis=0)
    # the product overwrites a factor of its own shape, if there is one
    prod = np.multiply(px, py, out=px if px.shape[1:] == full else
                       py if py.shape[1:] == full else None)
    acc = prod[:width] + 0.0
    for to, terms in adds:
        acc[to] += prod[terms]
    return acc.take(order, axis=0)


_MUL_PLANS = [_plan(np.arange(ROWS[d]), _DEGREES[_MUL_OUT] <= d)
              for d in range(DEGREE + 1)]
# Division and sqrt recurrences, per output degree: the pairs whose first
# (division) or both (sqrt) factors are not the constant term.
_DIV_GROUPS = [(s, _plan(s, _DEGREES[_MUL_A] > 0))
               for s in (np.flatnonzero(_DEGREES == d) for d in range(1, DEGREE + 1))]
_SQRT_GROUPS = [(s, _plan(s, (_DEGREES[_MUL_A] > 0) & (_DEGREES[_MUL_B] > 0)))
                for s, _ in _DIV_GROUPS]

# Per-variable derivative maps: coefficient at alpha of d/dx_v comes from
# alpha + e_v, scaled by alpha_v + 1.  The product pairs (e_v, alpha) list
# alpha in coefficient order, so the first ROWS[d] entries give order d.
_DERIV = []
for v in range(N_VARS):
    src = _MUL_OUT[_MUL_A == INDEX_OF[(1, 0, 0)] + v]
    _DERIV.append((src, np.array([MULTI_INDICES[n][v] for n in src], dtype=float)))


def _align(*arrays):
    """Coefficient arrays, padded to as many batch axes each."""
    nd = max(c.ndim for c in arrays)
    return [c if c.ndim == nd else
            c.reshape(c.shape[:1] + (1,) * (nd - c.ndim) + c.shape[1:]) for c in arrays]


class Jet:
    """Truncated Taylor expansion of one scalar in three variables.

    ``coeffs`` has shape ``(ROWS[order],) + batch_shape``: every coefficient
    up to total degree ``order``, and none beyond.  Differentiation lowers
    the order by one.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=DEGREE):
        self.coeffs = c = np.asarray(coeffs, dtype=float)
        self.order = order
        if order not in range(DEGREE + 1) or c.shape[:1] != (ROWS[order],):
            raise ValueError(f"jet of order {order}: {ROWS} rows by order, got {c.shape}")

    value = property(lambda self: self.coeffs[0], doc="Constant term, per point.")
    shape = property(lambda self: self.coeffs.shape[1:], doc="Batch shape.")

    def __getitem__(self, key):
        """The jet of the batch entries ``key`` picks, as numpy indexes an
        array of the batch shape (advanced indices must be adjacent)."""
        key = key if isinstance(key, tuple) else (key,)
        return Jet(self.coeffs[(slice(None),) + key], self.order)

    def truncate(self, order):
        """This jet to degree ``order`` (at most its own), a view of its rows."""
        order = min(order, self.order)
        return Jet(self.coeffs[:ROWS[order]], order)

    # -- ring operations ---------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Jet):
            return other
        return constant(other, np.shape(other), self.order)

    def _common(self, other):
        """Both coefficient arrays at the smaller order, batch-aligned, and that order."""
        d = min(self.order, other.order)
        return (*_align(self.coeffs[:ROWS[d]], other.coeffs[:ROWS[d]]), d)

    def __add__(self, other):
        a, b, d = self._common(self._lift(other))
        return Jet(a + b, d)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.coeffs, self.order)

    def __sub__(self, other):
        a, b, d = self._common(self._lift(other))
        return Jet(a - b, d)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Jet):
            a, b = _align(self.coeffs, np.asarray(other, dtype=float)[None])
            return Jet(a * b, self.order)
        a, b, d = self._common(other)
        return Jet(_pair_sum(a, b, _MUL_PLANS[d]), d)

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
        if not self.order:
            raise IndexOutOfRange("a jet of order 0 carries no derivative")
        src, fac = _DERIV[index - 1]
        rows = ROWS[self.order - 1]
        fac = fac[:rows].reshape((rows,) + (1,) * len(self.shape))
        return Jet(self.coeffs[src[:rows]] * fac, self.order - 1)


def constant(value, shape=(), order=DEGREE):
    c = np.zeros((ROWS[order],) + tuple(shape))
    c[0] = value
    return Jet(c, order)


def stack(seq):
    """One jet whose leading batch axis runs over the jets of ``seq``, at
    their smallest order; their batch shapes broadcast."""
    d = min(jet.order for jet in seq)
    coeffs = np.broadcast_arrays(*_align(*(jet.coeffs[:ROWS[d]] for jet in seq)))
    return Jet(np.stack(coeffs, axis=1), d)


def variable(index, value):
    """Jet of the chart variable ``index`` (1..3) at ``value`` (scalar or array)."""
    if index not in (1, 2, 3):
        raise IndexOutOfRange(f"variable index must be 1..3, got {index}")
    value = np.asarray(value, dtype=float)
    c = np.zeros((N_COEFFS,) + value.shape)
    c[0] = value
    c[INDEX_OF[(1, 0, 0)] + (index - 1)] = 1.0
    return Jet(c)


def _divide(num, den):
    b0 = den.coeffs[0]
    if np.any(b0 == 0.0):
        raise DomainError("division by a jet with zero constant term")
    a, b, order = num._common(den)
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    a, b = np.broadcast_to(a, out.shape), np.broadcast_to(b, out.shape)
    out[0] = a[0] / b0
    for slots, plan in _DIV_GROUPS[:order]:
        out[slots] = (a[slots] - _pair_sum(b, out, plan)) / b0
    return Jet(out, order)


def sqrt(jet):
    """Square root by the Taylor recurrence; constant term must be positive."""
    a0 = jet.coeffs[0]
    if np.any(a0 <= 0.0):
        raise DomainError("sqrt of a jet with nonpositive constant term")
    out = np.zeros_like(jet.coeffs)
    out[0] = np.sqrt(a0)
    twice = 2.0 * out[0]
    for slots, plan in _SQRT_GROUPS[:jet.order]:
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
        return _divide(constant(1.0, jet.shape, jet.order), _int_pow(jet, -n))
    result = constant(1.0, jet.shape, jet.order)
    base = jet
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result
