"""Grid-level analysis runs: identities, classification, soliton reports,
claimed-versus-computed expectation tables, and the geometry-to-algebra
consistency check.  This is the engine behind both the command line and the
acceptance suite.
"""

from __future__ import annotations

import numpy as np

from . import canonical, catalog
from .hypersurface import (GeometryBatch, grid_points, ricci_gauss,
                           ricci_intrinsic_batch, structure_verdicts)
from .lorentz import N_PARAMETERS, VARIANTS, classify_batch
from .soliton import (RICCI_MODES, Verdict, fit_lambda_pointwise,
                      identity_residuals, lie_closed_form_batch)


class Report(dict):
    """An analysis report, ready for JSON.  The attribute ``pointwise`` holds
    one row of POINTWISE_COLUMNS per grid point, from the same pass."""

    pointwise = None


def analyze_entry(name, params=None, grid_counts=(5, 5, 5),
                  ricci_mode="both", orientation_override=None):
    """Full analysis of a catalog entry on its safe box."""
    entry = catalog.get(name)
    imm, merged = entry.build(**(params or {}))
    if orientation_override is not None:
        imm = imm.with_orientation(orientation_override)
    report, geo, ric = _analyze(imm, entry.safe_box(merged), grid_counts,
                                ricci_mode, merged, entry)
    report["entry"] = name
    ids = report["identities"]
    if entry.constraint is not None:
        res = entry.constraint(geo.x, merged)
        ids["level_set_residual"] = float(np.max(res))
    ids["tangent_position_sup"] = float(np.max(np.abs(geo.xT)))
    ids["ricci_sup"] = float(np.max(np.abs(ric["corrected"])))
    if "c" in merged:
        c = merged["c"]
        ids["ricci_intrinsic_vs_2c2_g"] = float(
            np.max(np.abs(ric["intrinsic"] - 2.0 * c * c * geo.g)))
    report["expectations"] = entry.expectation_table(merged, report)
    return report


def analyze_immersion(imm, box, grid_counts=(5, 5, 5), ricci_mode="both",
                      params=None):
    """Analysis of a user-supplied chart on ``box``, at a catalog entry's
    default tolerances; ``params`` are reported as the chart's parameters."""
    return _analyze(imm, box, grid_counts, ricci_mode, params or {},
                    catalog.CatalogEntry)[0]


def _analyze(imm, box, grid_counts, ricci_mode, params, entry):
    """One pass over the geometry batch of ``imm`` sampled on ``box``: the
    Report, the batch, and the Ricci tensors it was built from, keyed by
    Ricci mode and "intrinsic".  ``entry`` gives the tolerances
    tau_identity and tau_sol: a catalog entry, or CatalogEntry for the
    defaults."""
    if ricci_mode != "both" and ricci_mode not in RICCI_MODES:
        raise ValueError(f"ricci_mode must be 'both' or one of {RICCI_MODES}")
    tau_identity, tau_sol = entry.tau_identity, entry.tau_sol
    geo = GeometryBatch(imm, grid_points(box, grid_counts))
    # the two modes differ by the factor epsilon = +-1, which is exact
    paper = ricci_gauss(geo.A, geo.g)
    ric = {"corrected": geo.epsilon * paper, "paper_form": paper}
    ric["intrinsic"] = ric_int = ricci_intrinsic_batch(geo)

    lie = lie_closed_form_batch(geo)
    table = identity_residuals(geo, ric["corrected"] - ric_int, lie)
    live = np.abs(ric_int) > 1e-6
    plain = {  # ungated, reported after the Gauss row
        "plain_vs_intrinsic": float(np.max(np.max(
            np.abs(paper - ric_int), axis=(1, 2)) / geo.metric_scale)),
        "plain_vs_intrinsic_factor": float(np.median(
            paper[live] / ric_int[live])) if np.any(live) else 1.0}
    # a row's max over the points is exact, and keeps a NaN
    identities = {}
    for key, row in table.items():
        identities[key] = np.max(row, axis=-1).tolist()
        if key == "gauss_vs_intrinsic":
            identities.update(plain)
    gate = np.hstack([identities[key] for key in table])
    identities["pass"] = bool(np.all(np.isfinite(gate))
                              and np.max(gate) < tau_identity)
    identities["tau"] = tau_identity
    identities["epsilon"] = geo.epsilon

    # Both fits always run: the pointwise columns carry both lambdas.
    fits = {mode: fit_lambda_pointwise(geo, lie, ric[mode], tau_sol)
            for mode in RICCI_MODES}
    modes = RICCI_MODES if ricci_mode == "both" else (ricci_mode,)
    headline_mode = "corrected" if "corrected" in modes else modes[0]

    def fit_block(mode):
        (lam, spread, residual, verdict, gap), _, _ = fits[mode]
        return {"lambda_fit": lam, "lambda_spread": spread,
                "residual_sup": residual, "verdict": verdict.value,
                "gradient_check": identities["gradient_check"],
                "lemma1": list(identities["lemma1"]),
                "route_agreement": identities["route_agreement"],
                "ricci_mode": mode, "tau": tau_sol,
                "equation_equivalence_gap": gap}

    forms = classify_batch(geo.A, geo.g)
    blocks = {mode: fit_block(mode) for mode in modes}
    soliton_block = {**fit_block(headline_mode),
                     "headline_mode": headline_mode, **blocks}
    consistency = _consistency_block(geo, blocks, forms)
    if consistency is not None:
        soliton_block["case_system_consistency"] = consistency

    report = Report(
        entry=imm.name,
        parameters={k: v.item() if isinstance(v, np.generic) else v
                    for k, v in params.items()},
        grid={"counts": list(grid_counts),
              "box": [list(map(float, iv)) for iv in box],
              "n_points": geo.n_points()},
        identities=identities,
        classification=_classification_block(geo, forms),
        soliton=soliton_block,
        expectations=[],
    )
    (_, lam_c, res_c), (_, lam_p, _) = fits["corrected"], fits["paper_form"]
    report.pointwise = np.column_stack([
        geo.points, np.full(geo.n_points(), geo.epsilon), geo.H, geo.rho,
        geo.det, lam_c, lam_p, table["codazzi_residual"],
        np.linalg.norm(geo.xT, axis=-1), res_c])
    return report, geo, ric


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


def _consistency_block(geo, blocks, forms):
    """Tie verified solitons back to the per-form algebraic systems, given
    the soliton report's fit block of each Ricci mode it holds.

    The case systems transcribe the uncorrected Ricci convention, so the
    constant fed to them is the paper_form fit (identical to the corrected
    one on Lorentzian entries).
    """
    if all(block["verdict"] == Verdict.NOT_A_SOLITON.value
           for block in blocks.values()):
        return None
    source = blocks.get("paper_form")
    if source is None and geo.epsilon == 1.0:
        source = blocks.get("corrected")
    if source is None:
        return None
    lam = source["lambda_fit"]
    rows = np.flatnonzero(~forms.ambiguous)
    worst = canonical.consistency_residual(
        np.array(VARIANTS, dtype=object)[forms.variant[rows]],
        forms.parameters[rows], int(geo.epsilon), geo.rho[rows], lam)
    return {"convention": "paper_form", "lambda": lam,
            "max_residual": worst, "points_checked": len(rows)}


POINTWISE_COLUMNS = ("u1", "u2", "u3", "epsilon", "mean_curvature", "support",
                     "det_g", "lambda_corrected", "lambda_paper_form",
                     "codazzi_residual", "tangent_position_norm",
                     "soliton_residual_corrected")


def pointwise_table(report):
    """Header and one row of scalars per grid point, for the CSV format."""
    return POINTWISE_COLUMNS, report.pointwise.tolist()
