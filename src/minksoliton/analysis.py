"""Grid-level analysis runs: identities, classification, soliton reports,
claimed-versus-computed expectation tables, and the geometry-to-algebra
consistency check.  This is the engine behind both the command line and the
acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import canonical, catalog
from .hypersurface import GeometryBatch, grid_points, structure_verdicts
from .lorentz import N_PARAMETERS, VARIANTS, classify_batch
from .soliton import RICCI_MODES, TAU, Verdict, fit_lambda_pointwise


class Report(dict):
    """An analysis report, ready for JSON.  The attribute ``pointwise`` holds
    one row of POINTWISE_COLUMNS per grid point, from the same pass."""

    pointwise = None


def analyze_entry(name, params=None, grid_counts=(5, 5, 5),
                  orientation_override=None):
    """Full analysis of a catalog entry on its safe box."""
    entry = catalog.get(name)
    imm, merged = entry.build(**(params or {}))
    if orientation_override is not None:
        imm = imm.with_orientation(orientation_override)
    report, geo = _analyze(imm, entry.safe_box(merged), grid_counts, merged)
    report["entry"] = name
    ids = report["identities"]
    if entry.constraint is not None:
        res = entry.constraint(geo.x, merged)
        ids["level_set_residual"] = float(np.max(res))
    ids["tangent_position_sup"] = float(np.max(np.abs(geo.xT)))
    ids["ricci_sup"] = float(np.max(np.abs(geo.ric_gauss)))  # |eps x| = |x|
    if "c" in merged:
        c = merged["c"]
        ids["ricci_intrinsic_vs_2c2_g"] = float(
            np.max(np.abs(geo.ric_intrinsic - 2.0 * c * c * geo.g)))
    report["expectations"] = entry.expectation_table(merged, report)
    return report


def analyze_immersion(imm, box, grid_counts=(5, 5, 5), params=None):
    """Analysis of a user-supplied chart on ``box``; ``params`` are
    reported as the chart's parameters."""
    return _analyze(imm, box, grid_counts, params or {})[0]


def _analyze(imm, box, grid_counts, params):
    """One pass over the geometry batch of ``imm`` sampled on ``box``: the
    Report and the batch.  Whether ``imm`` is integrated picks the gate
    tolerances from TAU."""
    tau_identity, tau_sol = TAU[imm.integrated]
    geo = GeometryBatch(imm, grid_points(box, grid_counts))
    # the two modes differ by the factor epsilon = +-1, which is exact
    ric = {"corrected": geo.epsilon * geo.ric_gauss, "paper_form": geo.ric_gauss}
    # a row's max over the points is exact, and keeps a NaN
    identities = {key: np.max(row, axis=-1).tolist()
                  for key, row in geo.identities.items()}
    gate = np.hstack(list(identities.values()))
    identities["pass"] = bool(np.all(np.isfinite(gate))
                              and np.max(gate) < tau_identity)
    identities["tau"] = tau_identity
    identities["epsilon"] = geo.epsilon

    # One fit per Ricci convention; the headline is the corrected one.
    (fit_c, lam_c, res_c), (fit_p, lam_p, _) = (
        fit_lambda_pointwise(geo, ric[mode], tau_sol) for mode in RICCI_MODES)
    soliton_block = {**_fit_block(fit_c), "tau": tau_sol,
                     "headline_mode": "corrected",
                     "paper_form": _fit_block(fit_p)}

    forms = classify_batch(geo.A, geo.g)
    consistency = _consistency_block(geo, soliton_block, forms)
    if consistency is not None:
        soliton_block["case_system_consistency"] = consistency

    report = Report(
        entry=imm.name,
        parameters={k: v.item() if isinstance(v, np.generic) else v
                    for k, v in params.items()},
        grid={"counts": list(grid_counts),
              "box": [list(map(float, iv)) for iv in box],
              "n_points": len(geo.points)},
        identities=identities,
        classification=_classification_block(geo, forms),
        soliton=soliton_block,
        expectations=[],
    )
    report.pointwise = np.column_stack([
        geo.points, np.full(len(geo.points), geo.epsilon), geo.H, geo.rho,
        geo.det, lam_c, lam_p, geo.identities["codazzi_residual"],
        np.linalg.norm(geo.xT, axis=-1), res_c])
    return report, geo


def _fit_block(summary):
    """The report fields of one soliton fit summary."""
    lam, spread, residual, verdict = summary
    return {"lambda_fit": lam, "lambda_spread": spread,
            "residual_sup": residual, "verdict": verdict.value}


def _classification_block(geo, forms):
    labels = np.where(forms.ambiguous, len(VARIANTS), forms.variant)
    names = [v.value for v in VARIANTS] + ["ambiguous"]
    codes, first, counts = np.unique(labels, return_index=True,
                                     return_counts=True)
    # keys in order of first occurrence over the grid
    histogram = {names[codes[k]]: int(counts[k]) for k in np.argsort(first)}

    center = len(labels) // 2
    detail = None
    if not forms.ambiguous[center]:
        code = forms.variant[center]
        detail = {
            "variant": VARIANTS[code].value,
            "parameters":
                forms.parameters[center, :N_PARAMETERS[code]].tolist(),
            "minimal_polynomial":
                np.trim_zeros(forms.min_poly[center], "f").tolist(),
        }
    return {
        "form_histogram": histogram,
        "center_form": detail,
        "structure": structure_verdicts(geo, forms),
    }


def _consistency_block(geo, soliton_block, forms):
    """Tie verified solitons back to the per-form algebraic systems, given
    the soliton report's headline fit with its nested paper_form fit.

    The case systems transcribe the uncorrected Ricci convention, so the
    constant fed to them is the paper_form fit (identical to the corrected
    one on Lorentzian entries).  A point whose form has no case system at
    the chart's epsilon is left out and counted.
    """
    paper = soliton_block["paper_form"]
    if all(block["verdict"] == Verdict.NOT_A_SOLITON.value
           for block in (soliton_block, paper)):
        return None
    lam = paper["lambda_fit"]
    epsilon = int(geo.epsilon)
    has_system = np.array([canonical.has_case_system(v, epsilon)
                           for v in VARIANTS])[forms.variant]
    known = ~forms.ambiguous
    rows = np.flatnonzero(known & has_system)
    worst = canonical.consistency_residual(
        np.array(VARIANTS, dtype=object)[forms.variant[rows]],
        forms.parameters[rows], epsilon, geo.rho[rows], lam)
    block = {"convention": "paper_form", "max_residual": worst,
             "points_checked": len(rows)}
    without = np.count_nonzero(known) - len(rows)
    if without:
        block["points_without_case_system"] = int(without)
    return block


POINTWISE_COLUMNS = ("u1", "u2", "u3", "epsilon", "mean_curvature", "support",
                     "det_g", "lambda_corrected", "lambda_paper_form",
                     "codazzi_residual", "tangent_position_norm",
                     "soliton_residual_corrected")


def pointwise_table(report):
    """Header and one row of scalars per grid point, for the CSV format."""
    return POINTWISE_COLUMNS, report.pointwise.tolist()
