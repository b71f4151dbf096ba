"""Pointwise geometry of an immersed hypersurface of Minkowski 4-space.

From a chart map delivered as degree-3 jets this module assembles the first
fundamental form, unit normal and its sign, shape operator, mean curvature,
Christoffel symbols, the support function and tangential position field,
and the Ricci tensor by two independent routes:

* the extrinsic route through the shape operator (with and without the
  normal-sign factor epsilon), and
* an intrinsic oracle straight from the Christoffel symbols of the induced
  metric (sign convention: the round sphere has positive Ricci).

Everything is computed for a whole batch of chart points at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .lorentz import TAU_DEGENERATE


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
    can match stated curvature signs.
    """

    name: str
    chart_map: Callable
    orientation_sign: float = 1.0

    def with_orientation(self, sign):
        return Immersion(self.name, self.chart_map, float(sign))


_ETA = np.array([-1.0, 1.0, 1.0, 1.0])[:, None]  # Minkowski signature
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


_BLOCK = 1024  # points per block: an order-3 product's 84 pair rows stay in L2


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


class GeometryBatch:
    """Geometric data of a batch of n chart points.

    Every array is C-contiguous float64 with leading axis n.  Values: the
    point ``x`` (n, 4), ``tangents`` (n, 3, 4) with rows dx/du^i, the metric
    ``g``, its inverse ``ginv`` and determinant ``det``, the unit normal
    ``N``, the shape operator ``A`` (A[:, i, j] = A^i_j), the product
    ``gA`` = g A and its symmetric part, the second fundamental form ``h``
    = g(A., .), the mean curvature ``H``, the Christoffel symbols ``Gamma``
    (Gamma[:, k, i, j] = Gamma^k_ij), the support function ``rho``, the
    tangential position field ``xT`` and the potential ``f`` = <x, x>/2.
    First chart partials carry the derivative index on axis 1: ``dg``,
    ``dN``, ``dA``, ``dGamma``, ``drho``, ``dxT`` and ``df`` (so
    dg[:, m, i, j] = d_m g_ij).  ``metric_scale`` (n,) is
    max(1, max_ij |g_ij|) per point, the scale that tensor residuals are
    measured against.

    The degree-3 jets they are computed from live one block of _BLOCK
    points at a time: each block writes its rows of the arrays, which are
    allocated once.  Each tensor is one jet whose component axes come
    before the point axis, e.g. Gamma's batch shape is (3, 3, 3, points).
    Contractions sum over a component axis from index 0 in a fixed term
    order, and Gamma^k_ij is formed for i <= j and mirrored to j > i, since
    the jets g_ij and g_ji round differently.  Jet arithmetic is pointwise,
    so a point gets the same bits in any block.  The metric and normal
    gates run on each block and then on the whole batch.  A block that
    raises stops the loop, and the batch is rerun as one block, so every
    input raises what a one-block build raises.
    """

    def __init__(self, imm, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 0:
            raise EmptyGrid("no sample points supplied")
        self.points = np.ascontiguousarray(pts)
        n = len(pts)
        normals = np.empty((n, 5))  # raw normal and its square, per point
        try:
            for lo in range(0, n, _BLOCK):
                self._block(imm, slice(lo, lo + _BLOCK), normals)
        except Exception:
            if n <= _BLOCK:
                raise
            # The first error over the whole batch may come from an earlier
            # step in a later block: raise what one block raises.
            self._block(imm, slice(0, n), normals)
        # each block passed the gates on its own scales; so must the batch
        _check_metric(imm.name, self.g, self.det)
        self.epsilon = _check_normal(imm.name, normals[:, :4], normals[:, 4])
        self.gA = gA = self.g @ self.A
        self.h = 0.5 * (gA + np.swapaxes(gA, -1, -2))
        self.metric_scale = np.maximum(1.0, np.max(np.abs(self.g), axis=(1, 2)))

    def _put(self, rows, jet, name, dname=None):
        """Write the values of ``jet`` into array ``name`` at ``rows``, and
        with ``dname`` its first chart partials (coefficient rows 1-3) into
        array ``dname``."""
        coeffs = np.moveaxis(jet.coeffs, -1, 0)  # the point axis leads
        parts = {name: coeffs[:, 0]}
        if dname:
            parts[dname] = coeffs[:, 1:4]
        for attr, part in parts.items():
            if attr not in vars(self):
                setattr(self, attr, np.empty((len(self.points),) + part.shape[1:]))
            getattr(self, attr)[rows] = part

    def _block(self, imm, rows, normals):
        """Fill the arrays and ``normals`` at ``rows`` from their jets."""
        pts = self.points[rows]
        x = list(imm.chart_map(*(jets.variable(i + 1, pts[:, i]) for i in range(3))))
        if len(x) != 4:
            raise ValueError("chart map must return four components")
        x = jets.stack(x)
        xi = jets.stack([x.deriv(i + 1) for i in range(3)])  # [i, c] = d_i x^c
        self._put(rows, x, "x")
        self._put(rows, xi, "tangents")

        # g to degree 2 gives dg; every other jet below is read to degree 1.
        g = _inner4(xi[:, None], xi)
        self._put(rows, g, "g", "dg")
        adj, det = _adjugate(g.truncate(1))
        self._put(rows, det, "det")
        _check_metric(imm.name, self.g[rows], self.det[rows])
        ginv = adj / det  # after the gate: a singular g raises DegenerateMetric
        self._put(rows, ginv, "ginv")

        raw_n = _cross4(xi)
        nn = _inner4(raw_n, raw_n)
        normals[rows, :4] = raw_n.value.T
        normals[rows, 4] = nn.value
        epsilon = _check_normal(imm.name, normals[rows, :4], normals[rows, 4])
        N = raw_n * float(imm.orientation_sign) / jets.sqrt(nn * epsilon)
        self._put(rows, N, "N", "dN")

        # Weingarten: dN/du^j = -A^i_j (dx/du^i); solve through the metric.
        dN = jets.stack([N.deriv(j + 1) for j in range(3)])
        A = _contract(ginv[:, None], -_inner4(dN[:, None], xi))
        self._put(rows, A, "A", "dA")
        self._put(rows, (A[0, 0] + A[1, 1] + A[2, 2]) / 3.0, "H")

        # Gamma^k_ij for i <= j, mirrored to j > i
        dg = jets.stack([g.deriv(m + 1) for m in range(3)])  # [m, i, j]
        i, j, l = _UPPER[0][:, None], _UPPER[1][:, None], np.arange(3)
        gamma = _contract(ginv[:, None], dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
        self._put(rows, (gamma * 0.5)[:, _PAIR], "Gamma", "dGamma")

        x, xi = x.truncate(1), xi.truncate(1)
        self._put(rows, _inner4(x, N), "rho", "drho")
        self._put(rows, _contract(ginv, _inner4(x, xi)), "xT", "dxT")
        self._put(rows, _inner4(x, x) * 0.5, "f", "df")

    def n_points(self):
        return self.points.shape[0]


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


def ricci_intrinsic_batch(geo):
    """Intrinsic Ricci from the Christoffel symbols and their first
    partials: positive on the round sphere."""
    n = geo.n_points()
    ric = np.zeros((n, 3, 3))
    Gv, dG = geo.Gamma, geo.dGamma
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


def covariant_shape_derivative(geo):
    """(nabla_i A)^k_j as an (n, 3, 3, 3) array, indices [i, k, j]."""
    n = geo.n_points()
    Av, Gv = geo.A, geo.Gamma
    out = np.zeros((n, 3, 3, 3))
    for i in range(3):
        for k in range(3):
            for j in range(3):
                corr = np.zeros(n)
                for l in range(3):
                    corr += Gv[:, k, i, l] * Av[:, l, j] - Gv[:, l, i, j] * Av[:, k, l]
                out[:, i, k, j] = geo.dA[:, i, k, j] + corr
    return out


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
