"""Pointwise geometry of an immersed hypersurface of Minkowski 4-space.

From a chart map delivered as degree-3 jets this module assembles the first
fundamental form, unit normal and its sign, shape operator, mean curvature,
Christoffel symbols, the support function and tangential position field,
and the Ricci tensor by two independent routes:

* the extrinsic route through the shape operator (with and without the
  normal-sign factor epsilon), and
* an intrinsic oracle straight from the Christoffel symbols of the induced
  metric (sign convention: the round sphere has positive Ricci).

Everything is computed for a whole batch of chart points at once; the
single-point entry points wrap the batched core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .lorentz import (TAU_DEGENERATE, PSEUDO_ORTHONORMAL_GRAM, char_poly,
                      classify_batch, mink_inner)


class DegenerateMetric(ArithmeticError):
    """Induced metric numerically singular somewhere on the batch."""


class NullNormalDirection(ArithmeticError):
    """Normal direction is lightlike; the immersion is not pseudo-Riemannian there."""


class EmptyGrid(ValueError):
    """A grid operation received no sample points."""


class InvalidFrame(ValueError):
    """Supplied frame does not satisfy its declared Gram relations."""


@dataclass
class Immersion:
    """A chart into Minkowski 4-space, evaluated on jets.

    ``chart_map`` maps three Jets (the chart variables) to a sequence of four
    Jets (the rectangular components of the image point).  ``domain`` holds
    one (lo, hi) interval per chart variable. ``orientation_sign`` flips the
    computed unit normal, so catalog entries can match stated curvature signs.
    """

    name: str
    chart_map: Callable
    domain: tuple
    orientation_sign: float = 1.0

    def with_orientation(self, sign):
        return Immersion(self.name, self.chart_map, self.domain, float(sign))


@dataclass
class HypersurfaceSample:
    """All pointwise geometric data at one chart point."""

    point: np.ndarray
    tangent_basis: np.ndarray
    metric: np.ndarray
    normal: np.ndarray
    epsilon: float
    shape: np.ndarray
    mean_curvature: float
    ricci_extrinsic: np.ndarray
    ricci_paper_form: np.ndarray
    ricci_intrinsic: np.ndarray
    christoffels: np.ndarray
    support: float
    tangent_position: np.ndarray


def _inner4(a, b):
    """Minkowski inner product of two 4-component jet vectors."""
    return -a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def _cross4(r1, r2, r3):
    """Minkowski cross product of three 4-component jet vectors."""
    rows = (r1, r2, r3)

    def minor(cols):
        a, b, c = cols
        return (rows[0][a] * (rows[1][b] * rows[2][c] - rows[1][c] * rows[2][b])
                - rows[0][b] * (rows[1][a] * rows[2][c] - rows[1][c] * rows[2][a])
                + rows[0][c] * (rows[1][a] * rows[2][b] - rows[1][b] * rows[2][a]))

    m0 = minor((1, 2, 3))
    m1 = minor((0, 2, 3))
    m2 = minor((0, 1, 3))
    m3 = minor((0, 1, 2))
    # cofactor signs (+,-,+,-), then raise the index (flip the time slot)
    return [-m0, -m1, m2, -m3]


def _inv3(m, det):
    """Adjugate-over-determinant inverse of a 3x3 jet matrix."""
    adj = [[None] * 3 for _ in range(3)]
    idx = ((0, 1, 2), (0, 1, 2))
    for i in range(3):
        for j in range(3):
            r = [k for k in idx[0] if k != i]
            c = [k for k in idx[1] if k != j]
            cof = m[r[0]][c[0]] * m[r[1]][c[1]] - m[r[0]][c[1]] * m[r[1]][c[0]]
            adj[j][i] = cof * ((-1.0) ** (i + j))
    return [[adj[i][j] / det for j in range(3)] for i in range(3)]


def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _parts(tree):
    """Values (n, *S) and first chart partials (n, 3, *S), C-contiguous, of
    a jet or a nested list of jets of shape S; the partials are coefficient
    rows 1-3."""
    shape, flat = (), [tree]
    while isinstance(flat[0], (list, tuple)):
        shape += (len(flat[0]),)
        flat = [leaf for node in flat for leaf in node]
    rows = np.stack([jet.coeffs[:4] for jet in flat], axis=-1)
    rows = rows.reshape(rows.shape[:2] + shape)
    return rows[0].copy(), np.ascontiguousarray(np.moveaxis(rows[1:], 0, 1))


class GeometryBatch:
    """Geometric data of a batch of n chart points.

    Every array is C-contiguous float64 with leading axis n.  Values: the
    point ``x`` (n, 4), ``tangents`` (n, 3, 4) with rows dx/du^i, the metric
    ``g``, its inverse ``ginv`` and determinant ``det``, the unit normal
    ``N``, the shape operator ``A`` (A[:, i, j] = A^i_j), the second
    fundamental form ``h`` = g(A., .), the mean curvature ``H``, the
    Christoffel symbols ``Gamma`` (Gamma[:, k, i, j] = Gamma^k_ij), the
    support function ``rho``, the tangential position field ``xT`` and the
    potential ``f`` = <x, x>/2.  First chart partials carry the derivative
    index on axis 1: ``dg``, ``dN``, ``dA``, ``dGamma``, ``drho``, ``dxT``
    and ``df`` (so dg[:, m, i, j] = d_m g_ij).  The degree-3 jets they are
    computed from live only during construction.
    """

    def __init__(self, imm, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 0:
            raise EmptyGrid("no sample points supplied")
        self.points = np.ascontiguousarray(pts)
        ju = jets.variable(1, pts[:, 0])
        jv = jets.variable(2, pts[:, 1])
        jw = jets.variable(3, pts[:, 2])
        x = list(imm.chart_map(ju, jv, jw))
        if len(x) != 4:
            raise ValueError("chart map must return four components")
        xi = [[comp.deriv(i + 1) for comp in x] for i in range(3)]
        self.x = _parts(x)[0]
        self.tangents = _parts(xi)[0]

        g = [[_inner4(xi[i], xi[j]) for j in range(3)] for i in range(3)]
        self.g, self.dg = _parts(g)
        det = _det3(g)
        self.det = _parts(det)[0]
        g_scale = max(1.0, float(np.max(np.abs(self.g))))
        if np.min(np.abs(self.det)) < TAU_DEGENERATE * g_scale ** 3:
            raise DegenerateMetric(
                f"induced metric of {imm.name!r} is singular on the batch")
        ginv = _inv3(g, det)
        self.ginv = _parts(ginv)[0]

        raw_n = _cross4(xi[0], xi[1], xi[2])
        nn = _inner4(raw_n, raw_n)
        n_scale = max(float(np.max(np.abs([c.value for c in raw_n]))), 1e-300) ** 2
        if np.min(np.abs(nn.value)) < 1e-10 * n_scale:
            raise NullNormalDirection(
                f"normal direction of {imm.name!r} is lightlike on the batch")
        signs = np.sign(nn.value)
        if signs.max() != signs.min():
            raise NullNormalDirection(
                f"normal causal type of {imm.name!r} changes across the batch")
        self.epsilon = float(signs.flat[0])
        norm = jets.sqrt(nn * self.epsilon)
        sign = float(imm.orientation_sign)
        N = [comp * sign / norm for comp in raw_n]
        self.N, self.dN = _parts(N)

        # Weingarten: dN/du^j = -A^i_j (dx/du^i); solve through the metric.
        dN = [[comp.deriv(j + 1) for comp in N] for j in range(3)]
        A = [[None] * 3 for _ in range(3)]
        for j in range(3):
            rhs = [-_inner4(dN[j], xi[k]) for k in range(3)]
            for i in range(3):
                acc = ginv[i][0] * rhs[0]
                acc = acc + ginv[i][1] * rhs[1]
                acc = acc + ginv[i][2] * rhs[2]
                A[i][j] = acc
        del dN  # 20-row jets: free them before the Christoffel block
        self.A, self.dA = _parts(A)
        self.H = _parts((A[0][0] + A[1][1] + A[2][2]) / 3.0)[0]
        gA = self.g @ self.A
        self.h = 0.5 * (gA + np.swapaxes(gA, -1, -2))

        dg = [[[g[i][j].deriv(m + 1) for j in range(3)] for i in range(3)]
              for m in range(3)]
        Gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
        for k in range(3):
            for i in range(3):
                for j in range(i, 3):
                    acc = None
                    for l in range(3):
                        term = ginv[k][l] * (dg[i][j][l] + dg[j][i][l]
                                             - dg[l][i][j])
                        acc = term if acc is None else acc + term
                    val = acc * 0.5
                    Gamma[k][i][j] = val
                    Gamma[k][j][i] = val
        del dg
        self.Gamma, self.dGamma = _parts(Gamma)

        self.rho, self.drho = _parts(_inner4(x, N))
        proj = [_inner4(x, xi[k]) for k in range(3)]
        xT = []
        for i in range(3):
            acc = ginv[i][0] * proj[0]
            acc = acc + ginv[i][1] * proj[1]
            acc = acc + ginv[i][2] * proj[2]
            xT.append(acc)
        self.xT, self.dxT = _parts(xT)
        self.f, self.df = _parts(_inner4(x, x) * 0.5)

    def n_points(self):
        return self.points.shape[0]


def ricci_gauss(A, g, epsilon, corrected=True):
    """Ricci tensor from the shape operator.

    corrected=False evaluates 3H*g(AX,Y) - g(AX,AY) verbatim; corrected=True
    multiplies by epsilon, which is the form the intrinsic oracle validates.
    """
    A = np.asarray(A, dtype=float)
    g = np.asarray(g, dtype=float)
    h = g @ A
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    H = np.trace(A, axis1=-2, axis2=-1) / 3.0
    sq = np.swapaxes(A, -1, -2) @ g @ A
    ric = 3.0 * H[..., None, None] * h - sq
    return float(epsilon) * ric if corrected else ric


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


def codazzi_residual_batch(geo):
    """Max-norm of the antisymmetric part of nabla A, per point."""
    nab = covariant_shape_derivative(geo)
    asym = nab - np.swapaxes(nab, 1, 3)  # (i, k, j) - (j, k, i)
    return np.max(np.abs(asym), axis=(1, 2, 3))


def identity_diagnostics(geo):
    """Universal pointwise identities; sup over the batch of each residual."""
    Nv, tv = geo.N, geo.tangents
    orth = max(float(np.max(np.abs(mink_inner(Nv, tv[:, i, :]))))
               for i in range(3))
    unit = float(np.max(np.abs(np.abs(mink_inner(Nv, Nv)) - 1.0)))
    recon = np.einsum('ni,nik->nk', geo.xT, tv) + (
        geo.epsilon * geo.rho)[:, None] * Nv
    decomp = float(np.max(np.abs(geo.x - recon)))
    gA = geo.g @ geo.A
    selfadj = float(np.max(np.abs(gA - np.swapaxes(gA, -1, -2))))
    tangency = float(np.max(np.abs(mink_inner(geo.dN, Nv[:, None, :]))))
    return {
        "normal_orthogonality": orth,
        "normal_unit": unit,
        "position_decomposition": decomp,
        "shape_self_adjoint": selfadj,
        "weingarten_tangency": tangency,
    }


# -- single point API ---------------------------------------------------------

def sample(imm, p):
    """Full geometric sample at one chart point."""
    geo = GeometryBatch(imm, np.asarray(p, dtype=float)[None, :])
    ric_plain = ricci_gauss(geo.A, geo.g, geo.epsilon, corrected=False)
    return HypersurfaceSample(
        point=geo.x[0],
        tangent_basis=geo.tangents[0],
        metric=geo.g[0],
        normal=geo.N[0],
        epsilon=geo.epsilon,
        shape=geo.A[0],
        mean_curvature=float(geo.H[0]),
        ricci_extrinsic=(geo.epsilon * ric_plain)[0],
        ricci_paper_form=ric_plain[0],
        ricci_intrinsic=ricci_intrinsic_batch(geo)[0],
        christoffels=geo.Gamma[0],
        support=float(geo.rho[0]),
        tangent_position=geo.xT[0],
    )


def shape_operator(imm, p):
    geo = GeometryBatch(imm, np.asarray(p, dtype=float)[None, :])
    return geo.A[0]


def ricci_intrinsic(imm, p):
    geo = GeometryBatch(imm, np.asarray(p, dtype=float)[None, :])
    return ricci_intrinsic_batch(geo)[0]


def codazzi_residual(imm, p):
    geo = GeometryBatch(imm, np.asarray(p, dtype=float)[None, :])
    return float(codazzi_residual_batch(geo)[0])


# -- frames -------------------------------------------------------------------

@dataclass
class FrameAtPoint:
    """An evaluated tangent frame with its connection coefficients."""

    vectors: np.ndarray           # (3, 3) chart components, rows are e_i
    kind: str                     # "orthonormal" or "pseudo_orthonormal"
    connection_forms: np.ndarray  # (3, 3, 3) with [i, j, k] = omega_ij(e_k)


def expected_gram(kind, epsilon):
    if kind == "orthonormal":
        return np.diag([-float(epsilon), 1.0, 1.0])
    if kind == "pseudo_orthonormal":
        return PSEUDO_ORTHONORMAL_GRAM.copy()
    raise ValueError(f"unknown frame kind {kind!r}")


def frame_at_point(imm, p, frame_field, kind):
    """Evaluate a frame field at p and bundle it with its connection forms."""
    pts = np.asarray(p, dtype=float)[None, :]
    ju = jets.variable(1, pts[:, 0])
    jv = jets.variable(2, pts[:, 1])
    jw = jets.variable(3, pts[:, 2])
    E = frame_field(ju, jv, jw)
    vectors = np.array([[E[i][k].value[0] for k in range(3)] for i in range(3)])
    omega = connection_forms(imm, p, frame_field, kind)
    return FrameAtPoint(vectors=vectors, kind=kind, connection_forms=omega)


def connection_forms(imm, p, frame_field, kind):
    """omega_ij(e_k): coefficient of e_j in nabla_{e_k} e_i.

    For an orthonormal frame this equals g(e_j,e_j) * g(nabla_{e_k} e_i, e_j);
    for a pseudo-orthonormal frame the pairing runs through the inverse Gram
    matrix.  ``frame_field`` maps the three chart jets to a 3x3 matrix of jets
    whose rows are the frame vectors in chart components.
    """
    pts = np.asarray(p, dtype=float)[None, :]
    geo = GeometryBatch(imm, pts)
    ju = jets.variable(1, pts[:, 0])
    jv = jets.variable(2, pts[:, 1])
    jw = jets.variable(3, pts[:, 2])
    Ev, dE = _parts(frame_field(ju, jv, jw))
    Ev, dE = Ev[0], np.swapaxes(dE[0], 0, 1)  # dE[i, m, l] = d_m e_i^l
    gv = geo.g[0]
    gram = Ev @ gv @ Ev.T
    target = expected_gram(kind, geo.epsilon)
    if np.max(np.abs(gram - target)) > 1e-6:
        raise InvalidFrame(
            f"frame Gram matrix deviates from the {kind} convention by "
            f"{np.max(np.abs(gram - target)):.3e}")

    Gv = geo.Gamma[0]
    # (nabla_m e_i)^l then contract with e_k^m
    nab = np.empty((3, 3, 3))  # [i, m, l]
    for i in range(3):
        for m in range(3):
            for l in range(3):
                nab[i, m, l] = dE[i, m, l] + Gv[l, m, :] @ Ev[i, :]
    gram_inv = np.linalg.inv(target)
    omega = np.empty((3, 3, 3))
    for i in range(3):
        for k in range(3):
            vec = Ev[k, :] @ nab[i, :, :]          # chart components
            pairing = Ev @ gv @ vec                # g(nabla, e_m)
            coeff = gram_inv @ pairing
            omega[i, :, k] = coeff
    return omega


# -- grids and structural classification --------------------------------------

def grid_points(box, counts):
    """Uniform grid over a box of three intervals; returns (n, 3) points."""
    counts = tuple(int(c) for c in counts)
    if any(c < 2 for c in counts):
        raise ValueError("grid needs at least 2 samples per axis")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@dataclass
class StructureVerdicts:
    totally_umbilical: bool
    isoparametric: bool
    generalized_constant_ratio: bool
    constant_mean_curvature: bool
    witnesses: dict = field(default_factory=dict)


TAU_CLASS = 1e-6


def classify_structure(imm, grid, tol=TAU_CLASS, geo=None):
    """Grid-level structural verdicts with witness residuals."""
    if geo is None:
        geo = GeometryBatch(imm, grid)
    return structure_verdicts(geo, classify_batch(geo.A), tol)


def structure_verdicts(geo, forms, tol=TAU_CLASS):
    """Structural verdicts of a geometry batch whose shape operators have
    the canonical forms ``forms`` (a lorentz.FormBatch)."""
    Av, Hv = geo.A, geo.H
    scale = max(1.0, float(np.max(np.abs(Av))))

    umb = float(np.max(np.abs(Av - Hv[:, None, None] * np.eye(3))))
    char_spread = float(np.max(np.ptp(char_poly(Av), axis=0)))
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
    return StructureVerdicts(
        totally_umbilical=umb < tol * scale,
        isoparametric=iso_witness < tol * scale,
        generalized_constant_ratio=gcr_witness < tol * scale,
        constant_mean_curvature=cmc_witness < tol * scale,
        witnesses={
            "umbilical": umb,
            "isoparametric": iso_witness,
            "generalized_constant_ratio": gcr_witness,
            "constant_mean_curvature": cmc_witness,
        },
    )
