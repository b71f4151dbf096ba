"""Grid-level analysis runs: identities, classification, soliton reports,
claimed-versus-computed expectation tables, and the geometry-to-algebra
consistency check.  This is the engine behind both the command line and the
acceptance suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import canonical, catalog
from .hypersurface import (GeometryBatch, codazzi_residual_batch, grid_points,
                           identity_diagnostics, ricci_gauss,
                           ricci_intrinsic_batch, structure_verdicts)
from .lorentz import VARIANTS, classify_batch
from .soliton import RICCI_MODES, fit_lambda_pointwise, identity_checks


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
    grid = grid_points(entry.safe_box(merged), grid_counts)
    geo = GeometryBatch(imm, grid)
    report, ric = _analyze(imm, geo, ricci_mode,
                           entry.tau_identity, entry.tau_sol)
    report["entry"] = name
    report["parameters"] = {k: _to_plain(v) for k, v in merged.items()}
    report["grid"] = {
        "counts": list(grid_counts),
        "box": [list(map(float, iv)) for iv in entry.safe_box(merged)],
        "n_points": int(np.atleast_2d(grid).shape[0]),
    }
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
    report["expectations"] = _expectation_table(entry, merged, report)
    return report


def analyze_immersion(imm, grid, ricci_mode="both"):
    """Analysis of a user-supplied chart, at a catalog entry's default
    tolerances."""
    return _analyze(imm, GeometryBatch(imm, grid), ricci_mode,
                    catalog.CatalogEntry.tau_identity,
                    catalog.CatalogEntry.tau_sol)[0]


def _analyze(imm, geo, ricci_mode, tau_identity, tau_sol):
    """One pass over a geometry batch: the Report and the Ricci tensors it
    was built from, keyed by Ricci mode and "intrinsic"."""
    if ricci_mode != "both" and ricci_mode not in RICCI_MODES:
        raise ValueError(f"ricci_mode must be 'both' or one of {RICCI_MODES}")
    Av, gv = geo.A, geo.g
    ric = {mode: ricci_gauss(Av, gv, geo.epsilon, mode == "corrected")
           for mode in RICCI_MODES}
    ric["intrinsic"] = ric_int = ricci_intrinsic_batch(geo)

    identities = identity_diagnostics(geo)
    codazzi = codazzi_residual_batch(geo)
    identities["codazzi_residual"] = float(np.max(codazzi))
    scale = np.maximum(1.0, np.max(np.abs(gv), axis=(1, 2)))
    identities["gauss_vs_intrinsic"] = float(np.max(np.max(
        np.abs(ric["corrected"] - ric_int), axis=(1, 2)) / scale))
    identities["plain_vs_intrinsic"] = float(np.max(np.max(
        np.abs(ric["paper_form"] - ric_int), axis=(1, 2)) / scale))
    live = np.abs(ric_int) > 1e-6
    if np.any(live):
        identities["plain_vs_intrinsic_factor"] = float(
            np.median(ric["paper_form"][live] / ric_int[live]))
    else:
        identities["plain_vs_intrinsic_factor"] = 1.0
    checks = identity_checks(geo)
    gradient, lemma1, route = checks
    identities["route_agreement"] = route

    # Both fits always run: the pointwise columns carry both lambdas.
    fits = {mode: fit_lambda_pointwise(geo, ric[mode], mode, tau_sol, checks)
            for mode in RICCI_MODES}
    modes = RICCI_MODES if ricci_mode == "both" else (ricci_mode,)
    reports = {mode: fits[mode][0] for mode in modes}
    headline_mode = "corrected" if "corrected" in reports else modes[0]
    identities["lemma1"] = list(lemma1)
    identities["gradient_check"] = gradient

    gate_keys = ("normal_orthogonality", "normal_unit",
                 "position_decomposition", "shape_self_adjoint",
                 "weingarten_tangency", "codazzi_residual",
                 "gauss_vs_intrinsic", "route_agreement", "gradient_check")
    gate = np.array([identities[k] for k in gate_keys] + identities["lemma1"])
    identities["pass"] = bool(np.all(np.isfinite(gate))
                              and np.max(gate) < tau_identity)
    identities["tau"] = tau_identity
    identities["epsilon"] = geo.epsilon

    forms = classify_batch(Av, gv)
    soliton_block = reports[headline_mode].to_dict()
    soliton_block["headline_mode"] = headline_mode
    for mode, rep in reports.items():
        soliton_block[mode] = rep.to_dict()
    consistency = _consistency_block(geo, reports, forms)
    if consistency is not None:
        soliton_block["case_system_consistency"] = consistency

    report = Report(
        entry=imm.name,
        parameters={},
        grid={"n_points": geo.n_points()},
        identities=identities,
        classification=_classification_block(geo, forms),
        soliton=soliton_block,
        expectations=[],
    )
    (_, lam_c, res_c), (_, lam_p, _) = fits["corrected"], fits["paper_form"]
    report.pointwise = np.column_stack([
        geo.points, np.full(geo.n_points(), geo.epsilon), geo.H, geo.rho,
        geo.det, lam_c, lam_p, codazzi, np.linalg.norm(geo.xT, axis=-1),
        res_c])
    return report, ric


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
        form = forms.form(center)
        detail = {
            "variant": form.variant.value,
            "parameters": [float(p) for p in form.parameters],
            "minimal_polynomial": [float(c) for c in form.minimal_polynomial],
        }
    return {
        "form_histogram": histogram,
        "center_form": detail,
        "structure": dataclasses.asdict(structure_verdicts(geo, forms)),
    }


def _consistency_block(geo, reports, forms):
    """Tie verified solitons back to the per-form algebraic systems.

    The case systems transcribe the uncorrected Ricci convention, so the
    constant fed to them is the paper_form fit (identical to the corrected
    one on Lorentzian entries).
    """
    if not any(rep.verdict.is_soliton for rep in reports.values()):
        return None
    source = reports.get("paper_form")
    if source is None and geo.epsilon == 1.0:
        source = reports.get("corrected")
    if source is None:
        return None
    lam = source.lambda_fit
    rows = np.flatnonzero(~forms.ambiguous)
    worst = canonical.consistency_residual(
        np.array(VARIANTS, dtype=object)[forms.variant[rows]],
        forms.parameters[rows], int(geo.epsilon), geo.rho[rows], lam)
    return {"convention": "paper_form", "lambda": lam,
            "max_residual": worst, "points_checked": len(rows)}


def _expectation_table(entry, params, report):
    table = []
    for exp in entry.expectations(params):
        computed = _computed_value(exp.key, report)
        agrees = _agreement(exp, computed, entry)
        table.append({
            "key": exp.key,
            "claimed": catalog._jsonable(exp.claimed),
            "computed": _to_plain(computed),
            "source": exp.source,
            "agrees": agrees,
            "note": exp.note,
        })
    return table


def _computed_value(key, report):
    sol = report["soliton"]
    cls = report["classification"]
    ids = report["identities"]
    if key == "epsilon":
        return ids["epsilon"]
    if key == "lambda_fit":
        return sol.get("corrected", sol)["lambda_fit"]
    if key == "lambda_fit_paper_form":
        return sol.get("paper_form", {}).get("lambda_fit")
    if key == "lambda_claimed":
        return sol.get("corrected", sol)["lambda_fit"]
    if key == "verdict":
        return sol.get("corrected", sol)["verdict"]
    if key == "verdict_paper_form":
        return sol.get("paper_form", {}).get("verdict")
    if key == "gcr":
        return cls["structure"]["generalized_constant_ratio"]
    if key == "principal_curvatures":
        detail = cls["center_form"]
        if detail and detail["variant"] == "diagonalizable":
            return tuple(sorted(detail["parameters"], reverse=True))
        return None
    if key == "min_poly_degree":
        detail = cls["center_form"]
        return len(detail["minimal_polynomial"]) - 1 if detail else None
    if key == "min_poly_root":
        detail = cls["center_form"]
        return detail["parameters"][0] if detail else None
    if key in ("ricci_sup", "ricci_intrinsic_vs_2c2_g", "tangent_position_sup"):
        return ids.get(key)
    if key == "lambda_spread_exceeds":
        return sol.get("corrected", sol)["lambda_spread"]
    return None


def _agreement(exp, computed, entry):
    if computed is None:
        return None
    tol = max(entry.tau_sol, 1e-6)
    claimed = exp.claimed
    if exp.key == "lambda_spread_exceeds":
        return bool(computed > claimed)
    if isinstance(claimed, str):
        return claimed == computed
    if isinstance(claimed, bool):
        return bool(claimed) == bool(computed)
    if isinstance(claimed, tuple):
        if exp.key == "lambda_claimed":
            return any(abs(c - computed) <= tol for c in claimed)
        comp = tuple(computed) if isinstance(computed, (tuple, list)) else None
        if comp is None or len(comp) != len(claimed):
            return False
        cl = sorted(claimed)
        return max(abs(a - b) for a, b in zip(cl, sorted(comp))) <= 1e-4
    try:
        return abs(float(claimed) - float(computed)) <= tol
    except (TypeError, ValueError):
        return None


def _to_plain(value):
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, tuple):
        return [_to_plain(v) for v in value]
    return value


POINTWISE_COLUMNS = ("u1", "u2", "u3", "epsilon", "mean_curvature", "support",
                     "det_g", "lambda_corrected", "lambda_paper_form",
                     "codazzi_residual", "tangent_position_norm",
                     "soliton_residual_corrected")


def pointwise_table(report):
    """Header and one row of scalars per grid point, for the CSV format."""
    return POINTWISE_COLUMNS, report.pointwise.tolist()
