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
from dataclasses import dataclass

import numpy as np

from .hypersurface import GeometryBatch, ricci_gauss

TAU_SOL_CLOSED = 1e-6
TAU_SOL_ODE = 1e-4

RICCI_MODES = ("corrected", "paper_form")


class Verdict(enum.Enum):
    SHRINKING = "shrinking"
    STEADY = "steady"
    EXPANDING = "expanding"
    NOT_A_SOLITON = "not_a_soliton"

    @property
    def is_soliton(self):
        return self is not Verdict.NOT_A_SOLITON


@dataclass
class PotentialData:
    support: float
    tangent_position: np.ndarray
    potential_function_value: float


@dataclass
class SolitonReport:
    lambda_fit: float
    lambda_spread: float
    residual_sup: float
    verdict: Verdict
    gradient_check: float
    lemma1_residuals: tuple
    route_agreement: float
    ricci_mode: str = "corrected"
    tau: float = TAU_SOL_CLOSED
    equation_equivalence_gap: float = 0.0

    def to_dict(self):
        return {
            "lambda_fit": self.lambda_fit,
            "lambda_spread": self.lambda_spread,
            "residual_sup": self.residual_sup,
            "verdict": self.verdict.value,
            "gradient_check": self.gradient_check,
            "lemma1": list(self.lemma1_residuals),
            "route_agreement": self.route_agreement,
            "ricci_mode": self.ricci_mode,
            "tau": self.tau,
            "equation_equivalence_gap": self.equation_equivalence_gap,
        }


# -- Lie derivative routes -----------------------------------------------------

def lie_coordinate_batch(geo):
    """(L_{xT} g)_ij by chart differentiation, per point: (n, 3, 3)."""
    n = geo.n_points()
    gv = geo.metric()
    xT = geo.tangent_position_values()
    dxT = np.stack([np.stack([geo.xT[k].deriv(i + 1).value for k in range(3)],
                             axis=-1) for i in range(3)], axis=-2)  # [n, i, k]
    dg = np.zeros((n, 3, 3, 3))  # [n, m, i, j]
    for m in range(3):
        for i in range(3):
            for j in range(i, 3):
                d = geo.g[i][j].deriv(m + 1).value
                dg[:, m, i, j] = d
                dg[:, m, j, i] = d
    lie = np.einsum('nk,nkij->nij', xT, dg)
    lie += np.einsum('nik,nkj->nij', dxT, gv)
    lie += np.einsum('njk,nik->nij', dxT, gv)
    return lie


def lie_closed_form_batch(geo):
    """Full Lie derivative from the concurrent-field identity: 2(g + eps*rho*gA)."""
    gv = geo.metric()
    Av = geo.shape_values()
    h = gv @ Av
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    return 2.0 * (gv + geo.epsilon * geo.rho.value[:, None, None] * h)


def lie_derivative_coordinate(imm, p):
    geo = GeometryBatch(imm, np.asarray(p, dtype=float)[None, :])
    return lie_coordinate_batch(geo)[0]


def lie_derivative_closed_form(sample):
    """2(g + eps*rho*g(A.,.)) from an evaluated HypersurfaceSample."""
    h = sample.metric @ sample.shape
    h = 0.5 * (h + h.T)
    return 2.0 * (sample.metric + sample.epsilon * sample.support * h)


def route_agreement_batch(geo):
    diff = lie_coordinate_batch(geo) - lie_closed_form_batch(geo)
    scale = np.maximum(1.0, np.max(np.abs(geo.metric()), axis=(1, 2)))
    return float(np.max(np.max(np.abs(diff), axis=(1, 2)) / scale))


# -- soliton equation ----------------------------------------------------------

def _ricci_batch(geo, ricci_mode):
    if ricci_mode not in RICCI_MODES:
        raise ValueError(f"ricci_mode must be one of {RICCI_MODES}")
    return ricci_gauss(geo.shape_values(), geo.metric(), geo.epsilon,
                       corrected=(ricci_mode == "corrected"))


def soliton_residual(imm, grid, lam, ricci_mode="corrected"):
    """sup over the grid of |L/2 + Ric - lam*g| / |g|, component max-norms."""
    geo = GeometryBatch(imm, grid)
    lhs = 0.5 * lie_closed_form_batch(geo) + _ricci_batch(geo, ricci_mode)
    gv = geo.metric()
    res = np.max(np.abs(lhs - lam * gv), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(gv), axis=(1, 2)))
    return float(np.max(res / scale))


_TRI = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


def _per_point_lambda(lhs, gv):
    num = sum(lhs[:, i, j] * gv[:, i, j] for i, j in _TRI)
    den = sum(gv[:, i, j] ** 2 for i, j in _TRI)
    return num / den


def fit_lambda(imm, grid, ricci_mode="corrected", tau=TAU_SOL_CLOSED):
    """Least-squares soliton constant with spread and residual gating."""
    geo = GeometryBatch(imm, grid)
    return fit_lambda_from_geometry(geo, ricci_mode, tau)


def fit_lambda_from_geometry(geo, ricci_mode="corrected", tau=TAU_SOL_CLOSED):
    report, _, _ = fit_lambda_pointwise(geo, _ricci_batch(geo, ricci_mode),
                                        ricci_mode, tau, identity_checks(geo))
    return report


def identity_checks(geo):
    """Mode-independent checks: (gradient, Lemma 1 residuals, route agreement)."""
    return gradient_check_batch(geo), lemma1_batch(geo), route_agreement_batch(geo)


def fit_lambda_pointwise(geo, ric, ricci_mode, tau, checks):
    """Fit lambda against the Ricci tensor ``ric`` of ``ricci_mode``, with
    ``checks`` = identity_checks(geo): the SolitonReport, per-point lambda
    and per-point residual."""
    lhs = 0.5 * lie_closed_form_batch(geo) + ric
    gv = geo.metric()
    lam_pt = _per_point_lambda(lhs, gv)
    lam = float(lam_pt.mean())
    spread = float(np.max(np.abs(lam_pt - lam)))
    scale = np.maximum(1.0, np.max(np.abs(gv), axis=(1, 2)))
    res_pt = np.max(np.abs(lhs - lam * gv), axis=(1, 2)) / scale
    residual = float(np.max(res_pt))

    # Equivalence of the defining equation with the Ricci-tensor condition
    # Ric = (lam - 1) g - eps*rho*g(A.,.): identical through the closed form.
    Av = geo.shape_values()
    h = gv @ Av
    h = 0.5 * (h + np.swapaxes(h, -1, -2))
    alt = ric - (lam - 1.0) * gv + geo.epsilon * geo.rho.value[:, None, None] * h
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

    grad, lem, route = checks
    return SolitonReport(
        lambda_fit=lam,
        lambda_spread=spread,
        residual_sup=residual,
        verdict=verdict,
        gradient_check=grad,
        lemma1_residuals=lem,
        route_agreement=route,
        ricci_mode=ricci_mode,
        tau=tau,
        equation_equivalence_gap=gap,
    ), lam_pt, res_pt


# -- universal identities ------------------------------------------------------

def lemma1_batch(geo):
    """(sup |nabla_i xT - delta - eps*rho*A|, sup |grad rho + A xT|)."""
    n = geo.n_points()
    Gv = geo.christoffel_values()
    Av = geo.shape_values()
    xT = geo.tangent_position_values()
    rho = geo.rho.value
    dxT = np.stack([np.stack([geo.xT[k].deriv(i + 1).value for k in range(3)],
                             axis=-1) for i in range(3)], axis=-2)  # [n, i, k]
    # covariant derivative: (nabla_i xT)^k = d_i xT^k + Gamma^k_{i l} xT^l
    nab = dxT + np.einsum('nkil,nl->nik', Gv, xT)
    expect = np.broadcast_to(np.eye(3), (n, 3, 3)) \
        + geo.epsilon * rho[:, None, None] * np.swapaxes(Av, 1, 2)
    first = float(np.max(np.abs(nab - expect)))

    drho = np.stack([geo.rho.deriv(i + 1).value for i in range(3)], axis=-1)
    grad_rho = np.einsum('nkl,nl->nk', geo.metric_inverse(), drho)
    second = float(np.max(np.abs(grad_rho + np.einsum('nkl,nl->nk', Av, xT))))
    return (first, second)


def lemma1_check(imm, grid):
    geo = GeometryBatch(imm, grid)
    return lemma1_batch(geo)


def gradient_check_batch(geo):
    """sup |grad(<x,x>/2) - xT| in chart components."""
    df = np.stack([geo.f.deriv(i + 1).value for i in range(3)], axis=-1)
    grad_f = np.einsum('nkl,nl->nk', geo.metric_inverse(), df)
    return float(np.max(np.abs(grad_f - geo.tangent_position_values())))


def gradient_soliton_check(imm, grid):
    geo = GeometryBatch(imm, grid)
    return gradient_check_batch(geo)


def potential_data(sample):
    f = 0.5 * float(np.sum(sample.point ** 2 * np.array([-1.0, 1, 1, 1])))
    return PotentialData(sample.support, sample.tangent_position, f)
