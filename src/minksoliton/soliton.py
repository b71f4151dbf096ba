"""Ricci-soliton analysis for the tangential-position potential field.

The candidate soliton structure is (M, g, xT, lambda) where xT is the
tangential part of the position vector.  The Lie derivative of g along xT
is computed by two independent routes (chart-coordinate differentiation,
and the closed form 2(g + eps*rho*g(A.,.)) that follows from the position
field being concurrent in the ambient space), lambda is fitted per point by
least squares and gated on its spread.  Every universal identity the
verdict rests on is one per-point residual row of ``identity_residuals``.
"""

from __future__ import annotations

import enum

import numpy as np

from .lorentz import mink_inner

# The gate tolerances, (identity gate, fit gate), keyed by whether the chart
# is integrated from the frame ODE: closed-form charts are machine accurate,
# integrated ones carry the RK4 error budget.
TAU = {False: (1e-7, 1e-6), True: (1e-5, 1e-4)}

RICCI_MODES = ("corrected", "paper_form")


class Verdict(enum.Enum):
    SHRINKING = "shrinking"
    STEADY = "steady"
    EXPANDING = "expanding"
    NOT_A_SOLITON = "not_a_soliton"


# -- Lie derivative routes -----------------------------------------------------

def lie_closed_form_batch(geo):
    """Full Lie derivative from the concurrent-field identity: 2(g + eps*rho*gA)."""
    return 2.0 * (geo.g + geo.epsilon * geo.rho[:, None, None] * geo.h)


# -- soliton equation ----------------------------------------------------------

_TRI = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _per_point_lambda(lhs, gv):
    num = sum(lhs[:, i, j] * gv[:, i, j] for i, j in _TRI)
    den = sum(gv[:, i, j] ** 2 for i, j in _TRI)
    return num / den


def fit_lambda_pointwise(geo, ric, tau):
    """Fit lambda against the Ricci tensor ``ric`` and the closed-form Lie
    derivative ``geo.lie_closed_form``: (lambda, spread, residual sup,
    Verdict at tolerance ``tau``), per-point lambda and per-point residual."""
    lhs = 0.5 * geo.lie_closed_form + ric
    gv = geo.g
    lam_pt = _per_point_lambda(lhs, gv)
    lam = float(lam_pt.mean())
    spread = float(np.max(np.abs(lam_pt - lam)))
    res_pt = np.max(np.abs(lhs - lam * gv), axis=(1, 2)) / geo.metric_scale
    residual = float(np.max(res_pt))

    if residual < tau and spread < tau:
        if lam > tau:
            verdict = Verdict.SHRINKING
        elif lam < -tau:
            verdict = Verdict.EXPANDING
        else:
            verdict = Verdict.STEADY
    else:
        verdict = Verdict.NOT_A_SOLITON

    return (lam, spread, residual, verdict), lam_pt, res_pt


# -- universal identities ------------------------------------------------------

def _sup(a):
    """Per-point max of |a| over the component axes of the (n, ...) array a.

    Folds np.maximum over the component columns: an exact max that
    propagates NaN as np.max does, several times faster than np.max over
    small axes on large batches, and with no full-size copy of a."""
    cols = a.reshape(len(a), -1)
    acc = np.abs(cols[:, 0])
    for k in range(1, cols.shape[1]):
        np.maximum(acc, np.abs(cols[:, k]), out=acc)
    return acc


def identity_residuals(geo):
    """The identity table: each gated identity, in report order, mapped to
    its residual per point, an (n,) array (``lemma1`` is (2, n)).

    The Ricci row compares the corrected Gauss Ricci tensor with the
    intrinsic one, and the Lie row the chart-coordinate Lie derivative with
    ``geo.lie_closed_form``, both against ``geo.metric_scale``.
    """
    Nv, tv, Av, xT, ginv = geo.N, geo.tangents, geo.A, geo.xT, geo.ginv
    ric = geo.epsilon * geo.ric_gauss - geo.ric_intrinsic
    nab = geo.nabla_A
    codazzi = _sup(nab - np.swapaxes(nab, 1, 3))  # (i, k, j) - (j, k, i)
    return {
        "normal_orthogonality": _sup(mink_inner(Nv[:, None, :], tv)),
        "normal_unit": np.abs(np.abs(mink_inner(Nv, Nv)) - 1.0),
        "position_decomposition": _sup(geo.x - (
            np.einsum('ni,nik->nk', xT, tv)
            + (geo.epsilon * geo.rho)[:, None] * Nv)),
        "shape_self_adjoint": _sup(geo.gA - np.swapaxes(geo.gA, -1, -2)),
        "weingarten_tangency": _sup(mink_inner(geo.dN, Nv[:, None, :])),
        "codazzi_residual": codazzi,
        "gauss_vs_intrinsic": _sup(ric) / geo.metric_scale,
        "route_agreement":
            _sup(geo.lie_coordinate - geo.lie_closed_form) / geo.metric_scale,
        # nabla xT = I + eps*rho*A, with (nabla_i xT)^k = d_i xT^k +
        # Gamma^k_{i l} xT^l, and grad rho = -A xT
        "lemma1": np.stack([
            _sup(geo.dxT + np.einsum('nkil,nl->nik', geo.Gamma, xT)
                 - (np.eye(3) + geo.epsilon * geo.rho[:, None, None]
                    * np.swapaxes(Av, 1, 2))),
            _sup(np.einsum('nkl,nl->nk', ginv, geo.drho)
                 + np.einsum('nkl,nl->nk', Av, xT))]),
        # grad(<x,x>/2) = xT in chart components
        "gradient_check": _sup(np.einsum('nkl,nl->nk', ginv, geo.df) - xT),
    }
