"""Ricci-soliton analysis for the tangential-position potential field.

The candidate soliton structure is (M, g, xT, lambda) where xT is the
tangential part of the position vector.  The Lie derivative of g along xT
is computed by two independent routes (chart-coordinate differentiation,
and the closed form 2(g + eps*rho*g(A.,.)) that follows from the position
field being concurrent in the ambient space), lambda is fitted per point by
least squares and gated on its spread, and the universal identities behind
the construction (position-field derivative identities and the gradient
property of f = <x,x>/2) are checked as sup-norms over sample grids.
"""

from __future__ import annotations

import enum

import numpy as np

TAU_SOL_CLOSED = 1e-6
TAU_SOL_ODE = 1e-4

RICCI_MODES = ("corrected", "paper_form")


class Verdict(enum.Enum):
    SHRINKING = "shrinking"
    STEADY = "steady"
    EXPANDING = "expanding"
    NOT_A_SOLITON = "not_a_soliton"


# -- Lie derivative routes -----------------------------------------------------

def lie_coordinate_batch(geo):
    """(L_{xT} g)_ij by chart differentiation, per point: (n, 3, 3)."""
    lie = np.einsum('nk,nkij->nij', geo.xT, geo.dg)
    lie += np.einsum('nik,nkj->nij', geo.dxT, geo.g)
    lie += np.einsum('njk,nik->nij', geo.dxT, geo.g)
    return lie


def lie_closed_form_batch(geo):
    """Full Lie derivative from the concurrent-field identity: 2(g + eps*rho*gA)."""
    return 2.0 * (geo.g + geo.epsilon * geo.rho[:, None, None] * geo.h)


def route_agreement_batch(geo, lie):
    """Sup of |coordinate route - closed form ``lie``| / metric scale."""
    diff = lie_coordinate_batch(geo) - lie
    return float(np.max(np.max(np.abs(diff), axis=(1, 2)) / geo.metric_scale))


# -- soliton equation ----------------------------------------------------------

_TRI = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _per_point_lambda(lhs, gv):
    num = sum(lhs[:, i, j] * gv[:, i, j] for i, j in _TRI)
    den = sum(gv[:, i, j] ** 2 for i, j in _TRI)
    return num / den


def fit_lambda_pointwise(geo, lie, ric, tau):
    """Fit lambda against the Ricci tensor ``ric``, with ``lie`` =
    lie_closed_form_batch(geo): (lambda, spread, residual sup, Verdict at
    tolerance ``tau``, equation-equivalence gap), per-point lambda and
    per-point residual."""
    lhs = 0.5 * lie + ric
    gv = geo.g
    lam_pt = _per_point_lambda(lhs, gv)
    lam = float(lam_pt.mean())
    spread = float(np.max(np.abs(lam_pt - lam)))
    scale = geo.metric_scale
    res_pt = np.max(np.abs(lhs - lam * gv), axis=(1, 2)) / scale
    residual = float(np.max(res_pt))

    # Equivalence of the defining equation with the Ricci-tensor condition
    # Ric = (lam - 1) g - eps*rho*g(A.,.): identical through the closed form.
    alt = ric - (lam - 1.0) * gv + geo.epsilon * geo.rho[:, None, None] * geo.h
    alt_res = float(np.max(np.max(np.abs(alt), axis=(1, 2)) / scale))
    gap = abs(alt_res - residual)

    if residual < tau and spread < tau:
        if lam > tau:
            verdict = Verdict.SHRINKING
        elif lam < -tau:
            verdict = Verdict.EXPANDING
        else:
            verdict = Verdict.STEADY
    else:
        verdict = Verdict.NOT_A_SOLITON

    return (lam, spread, residual, verdict, gap), lam_pt, res_pt


# -- universal identities ------------------------------------------------------

def lemma1_batch(geo):
    """(sup |nabla_i xT - delta - eps*rho*A|, sup |grad rho + A xT|)."""
    Av, xT = geo.A, geo.xT
    # covariant derivative: (nabla_i xT)^k = d_i xT^k + Gamma^k_{i l} xT^l
    nab = geo.dxT + np.einsum('nkil,nl->nik', geo.Gamma, xT)
    expect = np.broadcast_to(np.eye(3), (geo.n_points(), 3, 3)) \
        + geo.epsilon * geo.rho[:, None, None] * np.swapaxes(Av, 1, 2)
    first = float(np.max(np.abs(nab - expect)))

    grad_rho = np.einsum('nkl,nl->nk', geo.ginv, geo.drho)
    second = float(np.max(np.abs(grad_rho + np.einsum('nkl,nl->nk', Av, xT))))
    return (first, second)


def gradient_check_batch(geo):
    """sup |grad(<x,x>/2) - xT| in chart components."""
    grad_f = np.einsum('nkl,nl->nk', geo.ginv, geo.df)
    return float(np.max(np.abs(grad_f - geo.xT)))
