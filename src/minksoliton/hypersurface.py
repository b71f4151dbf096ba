"""Pointwise geometry of an immersed hypersurface of Minkowski 4-space.

From a chart map delivered as degree-3 jets this module assembles the first
fundamental form, unit normal and its sign, shape operator, mean curvature,
Christoffel symbols, the support function and tangential position field,
and the Ricci tensor by two independent routes:

* the extrinsic route through the shape operator (with and without the
  normal-sign factor epsilon), and
* an intrinsic oracle straight from the Christoffel symbols of the induced
  metric (sign convention: the round sphere has positive Ricci).

Everything is computed for one block of chart points at a time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import jets
from .lorentz import METRIC_SIGNS, TAU_DEGENERATE
from .soliton import identity_residuals, lie_closed_form_batch


class DegenerateMetric(ArithmeticError):
    """Induced metric numerically singular somewhere on the batch."""


class NullNormalDirection(ArithmeticError):
    """Normal direction is lightlike; the immersion is not pseudo-Riemannian there."""


class EmptyGrid(ValueError):
    """A grid operation received no sample points."""


@dataclass
class Immersion:
    """A chart into Minkowski 4-space, evaluated on jets.

    ``chart_map`` maps three Jets (the chart variables) to a sequence of four
    Jets (the rectangular components of the image point).
    ``orientation_sign`` flips the computed unit normal, so catalog entries
    can match stated curvature signs.  ``integrated`` says that the chart
    integrates the frame ODE, which picks its gate tolerances from
    soliton.TAU.
    """

    name: str
    chart_map: Callable
    orientation_sign: float = 1.0
    integrated: bool = False

    def with_orientation(self, sign):
        return dataclasses.replace(self, orientation_sign=float(sign))


_ETA = METRIC_SIGNS[:, None]  # Minkowski signature, over the component axis
_OTHER = np.array([[1, 2], [0, 2], [0, 1]])  # row i: the indices other than i
_COLS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])  # row k: all but k
_COL_PAIRS = np.array([[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
_MINOR_OF = np.array([[5, 4, 3], [5, 2, 1], [4, 2, 0], [3, 1, 0]])  # _COLS[k] but t
_RAISE = np.array([-1.0, -1.0, 1.0, -1.0])[:, None]  # (+,-,+,-), time slot flipped
_CHECKER = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])[..., None]
_UPPER = np.triu_indices(3)  # the pairs i <= j, row by row
_PAIR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])  # (i, j) -> its upper pair


def _contract(a, b):
    """Sum over the last component axis of a * b, from index 0."""
    acc = a[..., 0, :] * b[..., 0, :]
    for l in range(1, a.shape[-2]):
        acc = acc + a[..., l, :] * b[..., l, :]
    return acc


def _inner4(a, b):
    """Minkowski inner product over the last component axis of two jets:
    -a0 b0 + a1 b1 + a2 b2 + a3 b3."""
    return _contract(a * _ETA, b)


def _minors(m, r, c):
    """2x2 minors of the jet matrix m on rows r[..., :2] and columns
    c[..., :2], the index arrays broadcast."""
    return (m[r[..., 0], c[..., 0]] * m[r[..., 1], c[..., 1]]
            - m[r[..., 0], c[..., 1]] * m[r[..., 1], c[..., 0]])


def _expand(row, minors):
    """Expansion of determinants along their first row ``row``, given the
    matching 2x2 ``minors`` on the last component axis."""
    p0, p1, p2 = (row[..., k, :] * minors[..., k, :] for k in range(3))
    return p0 - p1 + p2


def _cross4(t):
    """Minkowski cross product of the three rows of the (3, 4) jet t: row
    0 expanded against the six 2x2 minors of rows 1 and 2, each formed once."""
    minors = _minors(t, np.array([1, 2]), _COL_PAIRS)[_MINOR_OF]
    return _expand(t[0, _COLS], minors) * _RAISE


def _adjugate(m):
    """Adjugate and determinant of a 3x3 jet matrix, by cofactors."""
    cof_t = _minors(m, _OTHER[None], _OTHER[:, None])  # [i, j]: cofactor (j, i)
    return cof_t * _CHECKER, _expand(m[0], cof_t[:, 0])


_BLOCK = 1024  # points per block, where most jet products add slice runs (see jets.py)


def _check_metric(name, g, det):
    if not (np.all(np.isfinite(g)) and np.all(np.isfinite(det))):
        raise DegenerateMetric(
            f"induced metric of {name!r} is not finite on the batch")
    g_scale = max(1.0, float(np.max(np.abs(g))))
    if np.min(np.abs(det)) < TAU_DEGENERATE * g_scale ** 3:
        raise DegenerateMetric(
            f"induced metric of {name!r} is singular on the batch")


def _check_normal(name, raw_n, nn):
    """The sign of the squares nn of normals raw_n (n, 4), one across the
    batch and away from zero on the scale of raw_n."""
    if not (np.all(np.isfinite(raw_n)) and np.all(np.isfinite(nn))):
        raise NullNormalDirection(
            f"normal direction of {name!r} is not finite on the batch")
    n_scale = max(float(np.max(np.abs(raw_n))), 1e-300) ** 2
    if np.min(np.abs(nn)) < 1e-10 * n_scale:
        raise NullNormalDirection(
            f"normal direction of {name!r} is lightlike on the batch")
    signs = np.sign(nn)
    if signs.max() != signs.min():
        raise NullNormalDirection(
            f"normal causal type of {name!r} changes across the batch")
    return float(signs.flat[0])


KEPT = ("x", "g", "det", "A", "H", "h", "rho", "xT", "metric_scale",
        "ric_intrinsic", "ric_gauss", "lie_closed_form")  # besides points


class GeometryBatch:
    """What an analysis reads of the geometry of n chart points: ``points``,
    the arrays of KEPT that ``geometry_block`` documents (C-contiguous
    float64, leading axis n), the identity table ``identities`` (rows (n,),
    (2, n) for ``lemma1``) and the normal sign ``epsilon``.

    Each block of _BLOCK points writes its rows of these arrays.  The gates
    run on each block, then on the whole batch.  A block that raises stops
    the loop and the batch is rerun as one block, so every input raises
    what a one-block build raises.
    """

    def __init__(self, imm, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 0:
            raise EmptyGrid("no sample points supplied")
        self.points = np.ascontiguousarray(pts)
        n = len(pts)
        normals = np.empty((n, 5))  # raw normal and its square, per point
        # non-finite values need no warning: every gate fails closed on them
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for rows in (slice(lo, lo + _BLOCK) for lo in range(0, n, _BLOCK)):
                    self._keep(rows, geometry_block(imm, self.points[rows]), normals)
            except Exception:
                if n <= _BLOCK:
                    raise
                # The first error over the whole batch may come from an
                # earlier step in a later block: raise what one block raises.
                self._keep(slice(0, n), geometry_block(imm, self.points), normals)
        # each block passed the gates on its own scales; so must the batch
        _check_metric(imm.name, self.g, self.det)
        self.epsilon = _check_normal(imm.name, normals[:, :4], normals[:, 4])

    def _keep(self, rows, block, normals):
        """Write the kept arrays of ``block`` and its normals at ``rows``,
        allocating the arrays for the whole batch on first use."""
        if "identities" not in vars(self):
            n = len(self.points)
            shapes = {**{k: (n,) + getattr(block, k).shape[1:] for k in KEPT},
                      **{k: r.shape[:-1] + (n,) for k, r in block.identities.items()}}
            # One allocation: freeing it lifts glibc's dynamic mmap and trim
            # thresholds past a block's heap, which later batches then reuse.
            sizes = [math.prod(shape) for shape in shapes.values()]
            parts = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
            arrays = {k: part.reshape(shapes[k]) for k, part in zip(shapes, parts)}
            vars(self).update((k, arrays[k]) for k in KEPT)
            self.identities = {k: arrays[k] for k in block.identities}
        for name in KEPT:
            getattr(self, name)[rows] = getattr(block, name)
        for key, row in block.identities.items():
            self.identities[key][..., rows] = row
        normals[rows] = block.normals


def _value(jet):
    """The values of ``jet`` with the point axis first, C-contiguous: an
    einsum's summation order may follow its strides."""
    return np.ascontiguousarray(np.moveaxis(jet.value, -1, 0))


def _partials(jet):
    """Its first chart partials, likewise, the derivative index on axis 1."""
    return np.ascontiguousarray(np.moveaxis(jet.coeffs[1:4], -1, 0))


def geometry_block(imm, pts):
    """Every per-point array of the chart points ``pts`` (m, 3), from their
    degree-3 jets, as attributes of a namespace.  Values: the point ``x``
    (m, 4), ``tangents`` (m, 3, 4) with rows dx/du^i, the metric ``g``, its
    inverse ``ginv`` and determinant ``det``, the unit normal ``N``, the
    shape operator ``A`` (A[:, i, j] = A^i_j), ``gA`` = g A, the second
    fundamental form ``h`` = g(A., .), the mean curvature ``H``, the
    Christoffel symbols ``Gamma`` (Gamma[:, k, i, j] = Gamma^k_ij), the
    support function ``rho``, the tangential position field ``xT`` and the
    potential ``f`` = <x, x>/2, with first partials ``dN``, ``drho``,
    ``dxT`` and ``df`` (dN[:, m, c] = d_m N^c).  From the partials of g, A
    and Gamma, which no array keeps: ``ric_intrinsic``, ``nabla_A``
    (nabla_A[:, i, k, j] = (nabla_i A)^k_j) and the chart-coordinate
    ``lie_coordinate`` = L_{xT} g.  ``metric_scale`` = max(1, max_ij |g_ij|)
    scales tensor residuals.  Then ``ric_gauss`` = ricci_gauss(A, g),
    ``lie_closed_form`` and the identity table ``identities``.  The gates
    judge the block: ``epsilon`` is its normal sign, and ``normals`` (m, 5)
    holds each raw normal and square.

    Each tensor is one jet whose component axes come before the point axis,
    e.g. Gamma's batch shape is (3, 3, 3, points).  Contractions sum over a
    component axis from index 0 in a fixed term order, and Gamma^k_ij is
    formed for i <= j and mirrored to j > i, since the jets g_ij and g_ji
    round differently.  Jet arithmetic is pointwise, so a point gets the
    same bits in any block.
    """
    b = SimpleNamespace(points=pts)
    x = list(imm.chart_map(*(jets.variable(i + 1, pts[:, i]) for i in range(3))))
    if len(x) != 4:
        raise ValueError("chart map must return four components")
    x = jets.stack(x)
    xi = jets.stack([x.deriv(i + 1) for i in range(3)])  # [i, c] = d_i x^c
    b.x, b.tangents = _value(x), _value(xi)

    # g to degree 2 gives dg; every other jet below is read to degree 1.
    g = _inner4(xi[:, None], xi)
    adj, det = _adjugate(g.truncate(1))
    b.g, b.det = _value(g), _value(det)
    _check_metric(imm.name, b.g, b.det)
    ginv = adj / det  # after the gate: a singular g raises DegenerateMetric
    b.ginv = _value(ginv)

    raw_n = _cross4(xi)
    nn = _inner4(raw_n, raw_n)
    b.normals = np.stack([*raw_n.value, nn.value], axis=-1)
    b.epsilon = _check_normal(imm.name, b.normals[:, :4], b.normals[:, 4])
    if not np.all(np.isfinite(b.x)):
        raise jets.DomainError(
            f"position of {imm.name!r} is not finite on the batch")
    N = raw_n * float(imm.orientation_sign) / jets.sqrt(nn * b.epsilon)
    b.N, b.dN = _value(N), _partials(N)

    # Weingarten: dN/du^j = -A^i_j (dx/du^i); solve through the metric.
    dN = jets.stack([N.deriv(j + 1) for j in range(3)])
    A = _contract(ginv[:, None], -_inner4(dN[:, None], xi))
    b.A, b.H = _value(A), _value((A[0, 0] + A[1, 1] + A[2, 2]) / 3.0)
    del adj, det, raw_n, nn, dN  # read no further: freed before the peak at Gamma
    b.gA = b.g @ b.A
    b.h = 0.5 * (b.gA + np.swapaxes(b.gA, -1, -2))
    b.metric_scale = np.maximum(1.0, np.max(np.abs(b.g), axis=(1, 2)))

    # Gamma^k_ij for i <= j, mirrored to j > i
    dg = jets.stack([g.deriv(m + 1) for m in range(3)])  # [m, i, j]
    i, j, l = _UPPER[0][:, None], _UPPER[1][:, None], np.arange(3)
    gamma = _contract(ginv[:, None], dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
    Gamma = (gamma * 0.5)[:, _PAIR]
    b.Gamma = _value(Gamma)
    b.ric_intrinsic = _ricci_intrinsic(b.Gamma, _partials(Gamma))
    b.nabla_A = _nabla_A(b.A, b.Gamma, _partials(A))

    x, xi = x.truncate(1), xi.truncate(1)
    rho, xT, f = _inner4(x, N), _contract(ginv, _inner4(x, xi)), _inner4(x, x) * 0.5
    b.rho, b.drho = _value(rho), _partials(rho)
    b.xT, b.dxT = _value(xT), _partials(xT)
    b.f, b.df = _value(f), _partials(f)
    if not np.all(np.isfinite(b.f)):
        raise jets.DomainError(f"position of {imm.name!r} is too large: "
                               "<x, x> overflows on the batch")
    b.lie_coordinate = _lie_coordinate(b.xT, b.dxT, b.g, _partials(g))

    b.ric_gauss = ricci_gauss(b.A, b.g)
    b.lie_closed_form = lie_closed_form_batch(b)
    b.identities = identity_residuals(b)
    return b


def ricci_gauss(A, g):
    """Ricci tensor from the shape operator: 3H*g(AX,Y) - g(AX,AY) verbatim.

    Times the normal sign epsilon it is the form the intrinsic oracle
    validates.
    """
    A = np.asarray(A, dtype=float)
    g = np.asarray(g, dtype=float)
    h = g @ A
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    H = np.trace(A, axis1=-2, axis2=-1) / 3.0
    sq = np.swapaxes(A, -1, -2) @ g @ A
    return 3.0 * H[..., None, None] * h - sq


def _ricci_intrinsic(Gv, dG):
    """Intrinsic Ricci (n, 3, 3) from the Christoffel symbols Gv and their
    first partials dG[:, m] = d_m Gamma: positive on the round sphere."""
    n = len(Gv)
    ric = np.zeros((n, 3, 3))
    for j in range(3):
        for k in range(j, 3):
            term = np.zeros(n)
            for i in range(3):
                term += dG[:, i, i, j, k] - dG[:, j, i, i, k]
                for l in range(3):
                    term += (Gv[:, i, i, l] * Gv[:, l, j, k]
                             - Gv[:, i, j, l] * Gv[:, l, i, k])
            ric[:, j, k] = term
            ric[:, k, j] = term
    return ric


def _nabla_A(Av, Gv, dA):
    """(nabla_i A)^k_j at [:, i, k, j], from A, Gamma and dA[:, i] = d_i A."""
    n = len(Av)
    out = np.zeros((n, 3, 3, 3))
    for i in range(3):
        for k in range(3):
            for j in range(3):
                corr = np.zeros(n)
                for l in range(3):
                    corr += Gv[:, k, i, l] * Av[:, l, j] - Gv[:, l, i, j] * Av[:, k, l]
                out[:, i, k, j] = dA[:, i, k, j] + corr
    return out


def _lie_coordinate(xT, dxT, g, dg):
    """(L_{xT} g)_ij by chart differentiation, per point: (n, 3, 3)."""
    lie = np.einsum('nk,nkij->nij', xT, dg)
    lie += np.einsum('nik,nkj->nij', dxT, g)
    lie += np.einsum('njk,nik->nij', dxT, g)
    return lie


# -- grids and structural verdicts --------------------------------------------

def grid_points(box, counts):
    """Uniform grid over a box of three intervals; returns (n, 3) points."""
    counts = tuple(int(c) for c in counts)
    if any(c < 2 for c in counts):
        raise ValueError("grid needs at least 2 samples per axis")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


TAU_CLASS = 1e-6


def structure_verdicts(geo, forms):
    """Structural verdicts of a geometry batch whose shape operators have
    the canonical forms and characteristic polynomials ``forms`` (a
    lorentz.FormBatch), with the witness behind each."""
    Av, Hv = geo.A, geo.H
    scale = max(1.0, float(np.max(np.abs(Av))))

    umb = float(np.max(np.abs(Av - Hv[:, None, None] * np.eye(3))))
    char_spread = float(np.max(np.ptp(forms.char_poly, axis=0)))
    if np.ptp(np.argmax(forms.min_poly != 0.0, axis=1)) == 0:  # one degree
        mp_spread = float(np.max(np.ptp(forms.min_poly, axis=0)))
    else:
        mp_spread = float("inf")
    iso_witness = max(char_spread, mp_spread)

    norms = np.linalg.norm(geo.xT, axis=-1)
    live = norms > 1e-8
    if np.any(live):
        v = geo.xT[live]
        Avl = Av[live]
        Axt = np.einsum('nij,nj->ni', Avl, v)
        mu = np.einsum('ni,ni->n', Axt, v) / np.einsum('ni,ni->n', v, v)
        gcr_witness = float(np.max(
            np.linalg.norm(Axt - mu[:, None] * v, axis=-1)
            / norms[live]))
    else:
        gcr_witness = 0.0

    cmc_witness = float(np.max(np.abs(Hv - Hv.mean())))
    return {
        "totally_umbilical": umb < TAU_CLASS * scale,
        "isoparametric": iso_witness < TAU_CLASS * scale,
        "generalized_constant_ratio": gcr_witness < TAU_CLASS * scale,
        "constant_mean_curvature": cmc_witness < TAU_CLASS * scale,
        "witnesses": {
            "umbilical": umb,
            "isoparametric": iso_witness,
            "generalized_constant_ratio": gcr_witness,
            "constant_mean_curvature": cmc_witness,
        },
    }
