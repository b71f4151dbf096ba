"""Finite-dimensional solvability of the soliton equations per canonical form.

For each shape-operator canonical form the soliton condition reduces to a
small polynomial system in the constants (lambda, rho) with the principal
curvatures as coefficients.  These systems are solved by exact elimination
(everything is degree <= 2), reproducing the existence dichotomy without
touching any geometry:

* diagonalizable: solvable exactly when the curvatures are all equal, or
  exactly two are equal (the repeated one is then pinned to -eps*rho);
* complex pair: never solvable (the elimination ends in
  (a1 - a2)^2 + b1^2 = 0 with b1 != 0);
* 3-step Jordan block: never solvable (one Ricci component must equal both
  -1 and 0);
* 2-step Jordan block: solvable exactly when the two eigenvalues coincide,
  with lambda = a1^2 + 1 and rho = -a1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .lorentz import FormVariant


@dataclass(frozen=True)
class CaseSystem:
    """The soliton component equations for one canonical form."""

    form: FormVariant
    epsilon: int
    parameters: dict

    def __post_init__(self):
        if self.form is not FormVariant.DIAGONALIZABLE and self.epsilon != 1:
            raise ValueError("nondiagonalizable forms are Lorentzian (epsilon=1)")

    def residuals(self, lam, rho):
        """Signed residuals of the component equations at (lambda, rho)."""
        p = self.parameters
        e = self.epsilon
        if self.form is FormVariant.DIAGONALIZABLE:
            a1, a2, a3 = p["a1"], p["a2"], p["a3"]
            return [
                lam - 1.0 - e * rho * a1 - a1 * (a2 + a3),
                lam - 1.0 - e * rho * a2 - a2 * (a1 + a3),
                lam - 1.0 - e * rho * a3 - a3 * (a1 + a2),
            ]
        if self.form is FormVariant.COMPLEX_PAIR:
            a1, b1, a2 = p["a1"], p["b1"], p["a2"]
            return [
                lam - 1.0 - rho * a1 - (a1 * a1 + a1 * a2 + b1 * b1),
                lam - 1.0 - rho * a2 - 2.0 * a1 * a2,
                rho * b1 + a2 * b1,
            ]
        if self.form is FormVariant.JORDAN_3:
            a1 = p["a1"]
            return [
                1.0,                                    # Ric(e1,e1): 0 vs -1
                rho + a1,                               # Ric(e1,e3)
                (1.0 - lam + rho * a1) + 2.0 * a1 * a1,  # Ric(e1,e2)
            ]
        if self.form is FormVariant.JORDAN_2:
            a1, a2 = p["a1"], p["a2"]
            return [
                rho + a2,                                        # Ric(e1,e1)
                (1.0 - lam + rho * a1) + a1 * (a1 + a2),         # Ric(e1,e2)
                (lam - 1.0 - rho * a2) - 2.0 * a1 * a2,          # Ric(e3,e3)
            ]
        raise ValueError(f"unknown form {self.form!r}")


@dataclass(frozen=True)
class CaseSolution:
    solvable: bool
    branch: str
    lam: Optional[float] = None
    rho: Optional[float] = None           # None with solvable=True: rho is free
    lam_affine: Optional[tuple] = None    # lambda = c0 + c1 * rho when rho free
    witness: str = ""
    witness_value: Optional[float] = None

    def lambda_at(self, rho):
        if self.lam is not None:
            return self.lam
        if self.lam_affine is not None:
            c0, c1 = self.lam_affine
            return c0 + c1 * rho
        raise ValueError("infeasible system has no soliton constant")


_REQUIRED = {
    FormVariant.DIAGONALIZABLE: ("a1", "a2", "a3"),
    FormVariant.COMPLEX_PAIR: ("a1", "b1", "a2"),
    FormVariant.JORDAN_2: ("a1", "a2"),
    FormVariant.JORDAN_3: ("a1",),
}


def build_case_system(form, epsilon=1, **parameters):
    form = FormVariant(form) if not isinstance(form, FormVariant) else form
    required = _REQUIRED[form]
    missing = [k for k in required if k not in parameters]
    if missing:
        raise TypeError(f"{form.value} system needs parameters {sorted(missing)}")
    params = {k: float(parameters[k]) for k in required}
    if form is FormVariant.COMPLEX_PAIR and params["b1"] == 0.0:
        raise ValueError("complex-pair form requires b1 != 0")
    return CaseSystem(form, int(epsilon), params)


def solve_case(system, tol=1e-12):
    """Exact-elimination solvability of a case system.

    ``tol`` is the coincidence threshold for curvature parameters; keep it
    tiny for synthetic draws and loosen it when feeding extracted geometry.
    """
    p = system.parameters
    e = system.epsilon
    if system.form is FormVariant.DIAGONALIZABLE:
        a = [p["a1"], p["a2"], p["a3"]]
        same12 = abs(a[0] - a[1]) <= tol
        same13 = abs(a[0] - a[2]) <= tol
        same23 = abs(a[1] - a[2]) <= tol
        if same12 and same13 and same23:
            c = (a[0] + a[1] + a[2]) / 3.0
            return CaseSolution(
                solvable=True, branch="umbilical",
                lam_affine=(1.0 + 2.0 * c * c, e * c), rho=None,
                witness="all equations coincide; rho stays free with "
                        "lambda = 1 + 2c^2 + eps*rho*c")
        if same12 or same13 or same23:
            if same12:
                d, s = 0.5 * (a[0] + a[1]), a[2]
            elif same13:
                d, s = 0.5 * (a[0] + a[2]), a[1]
            else:
                d, s = 0.5 * (a[1] + a[2]), a[0]
            return CaseSolution(
                solvable=True, branch="two_distinct",
                lam=1.0 + d * s, rho=-e * d,
                witness="repeated curvature pinned to -eps*rho")
        gap = min(abs(a[0] - a[1]), abs(a[0] - a[2]), abs(a[1] - a[2]))
        return CaseSolution(
            solvable=False, branch="three_distinct",
            witness="subtracting equation pairs forces two curvatures to "
                    "equal -eps*rho, contradicting pairwise distinctness",
            witness_value=gap * gap)
    if system.form is FormVariant.COMPLEX_PAIR:
        a1, b1, a2 = p["a1"], p["b1"], p["a2"]
        w = (a1 - a2) ** 2 + b1 * b1
        return CaseSolution(
            solvable=False, branch="complex_pair",
            witness="elimination yields (a1 - a2)^2 + b1^2 = 0 with b1 != 0",
            witness_value=w)
    if system.form is FormVariant.JORDAN_3:
        return CaseSolution(
            solvable=False, branch="jordan3",
            witness="Ric(e1,e1) must equal both -1 and 0",
            witness_value=1.0)
    a1, a2 = p["a1"], p["a2"]
    if abs(a1 - a2) <= tol:
        c = 0.5 * (a1 + a2)
        return CaseSolution(solvable=True, branch="jordan2_equal",
                            lam=1.0 + c * c, rho=-c,
                            witness="lambda = a1^2 + 1 with rho = -a1")
    return CaseSolution(
        solvable=False, branch="jordan2_distinct",
        witness="elimination yields (a1 - a2)^2 = 0",
        witness_value=(a1 - a2) ** 2)


@dataclass
class SweepSummary:
    form: FormVariant
    epsilon: int
    rows: list = field(default_factory=list)
    solvable_count: int = 0
    infeasible_count: int = 0
    misclassifications: int = 0

    def to_rows(self):
        return self.rows


def _draw_parameters(form, rng, k):
    """One random parameter point plus its ground-truth solvability."""
    if form is FormVariant.DIAGONALIZABLE:
        kind = k % 3
        if kind == 0:
            c = _nonzero_uniform(rng, 0.1, 2.0)
            return {"a1": c, "a2": c, "a3": c}, True, "umbilical"
        if kind == 1:
            d = _nonzero_uniform(rng, 0.1, 2.0)
            s = d
            while abs(s - d) < 0.1:
                s = rng.uniform(-2.0, 2.0)
            vals = [d, d, s]
            rng.shuffle(vals)
            return {"a1": vals[0], "a2": vals[1], "a3": vals[2]}, True, "two_equal"
        while True:
            a = sorted(rng.uniform(-2.0, 2.0, size=3))
            if a[1] - a[0] >= 0.05 and a[2] - a[1] >= 0.05:
                break
        return {"a1": a[0], "a2": a[1], "a3": a[2]}, False, "distinct"
    if form is FormVariant.COMPLEX_PAIR:
        return {"a1": rng.uniform(-2.0, 2.0),
                "b1": _nonzero_uniform(rng, 0.1, 2.0),
                "a2": rng.uniform(-2.0, 2.0)}, False, "complex"
    if form is FormVariant.JORDAN_2:
        a1 = rng.uniform(-2.0, 2.0)
        if k % 2 == 0:
            return {"a1": a1, "a2": a1}, True, "equal"
        a2 = a1
        while abs(a2 - a1) < 0.1:
            a2 = rng.uniform(-2.0, 2.0)
        return {"a1": a1, "a2": a2}, False, "distinct"
    return {"a1": rng.uniform(-2.0, 2.0)}, False, "jordan3"


def _nonzero_uniform(rng, lo, hi):
    u = float(rng.uniform(lo, hi))
    return u if rng.random() < 0.5 else -u


def sweep(form, n_draws=10000, seed=0, epsilon=1):
    """Randomized sweep of one form; counts dichotomy misclassifications."""
    form = FormVariant(form) if not isinstance(form, FormVariant) else form
    rng = np.random.default_rng(seed)
    summary = SweepSummary(form=form, epsilon=int(epsilon))
    for k in range(int(n_draws)):
        params, expected, kind = _draw_parameters(form, rng, k)
        system = build_case_system(form, epsilon=epsilon, **params)
        sol = solve_case(system)
        if sol.solvable:
            summary.solvable_count += 1
        else:
            summary.infeasible_count += 1
        if sol.solvable != expected:
            summary.misclassifications += 1
        row = dict(params)
        row.update({
            "kind": kind,
            "solvable": sol.solvable,
            "branch": sol.branch,
            "lambda": sol.lam if sol.lam is not None else (
                f"{sol.lam_affine[0]:.12g}{sol.lam_affine[1]:+.12g}*rho"
                if sol.lam_affine else ""),
            "rho": sol.rho if sol.rho is not None else "free" if sol.solvable else "",
            "witness": sol.witness if not sol.solvable else "",
        })
        summary.rows.append(row)
    return summary


def consistency_residual(form_variant, parameters, epsilon, rho, lam):
    """Max residual of the case equations at extracted geometric data.

    Rows: ``form_variant`` holds one FormVariant per row (or a single one),
    ``parameters`` the canonical parameters of each row in the order of the
    form (trailing extra columns are ignored) and ``rho`` the support value
    of each row.  Used to tie the geometry engine back to the algebraic
    systems: the canonical parameters, support value and fitted constant of
    a verified soliton must satisfy the corresponding system.  NaN
    propagates.
    """
    variant = np.atleast_1d(np.asarray(form_variant, dtype=object))
    parameters = np.atleast_2d(np.asarray(parameters, dtype=float))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), variant.shape)
    worst = [0.0]
    for form, names in _REQUIRED.items():
        rows = variant == form
        if np.any(rows):
            system = CaseSystem(form, int(epsilon),
                                dict(zip(names, parameters[rows].T)))
            worst += [np.max(np.abs(r))
                      for r in system.residuals(lam, rho[rows])]
    return float(np.max(worst))
