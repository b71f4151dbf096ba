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

from dataclasses import dataclass, fields, replace

import numpy as np

from .lorentz import FormVariant


def has_case_system(form, epsilon):
    """Whether ``form`` has a case system at ``epsilon``: the
    nondiagonalizable forms occur only on Lorentzian hypersurfaces."""
    return form is FormVariant.DIAGONALIZABLE or epsilon == 1


def _check_epsilon(form, epsilon):
    if not has_case_system(form, epsilon):
        raise ValueError("nondiagonalizable forms are Lorentzian (epsilon=1)")


@dataclass(frozen=True)
class CaseSystem:
    """The soliton component equations for one canonical form."""

    form: FormVariant
    epsilon: int
    parameters: dict

    def __post_init__(self):
        _check_epsilon(self.form, self.epsilon)

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


# The parameters of each form's case system, in the order of the form.
_REQUIRED = {
    FormVariant.DIAGONALIZABLE: ("a1", "a2", "a3"),
    FormVariant.COMPLEX_PAIR: ("a1", "b1", "a2"),
    FormVariant.JORDAN_2: ("a1", "a2"),
    FormVariant.JORDAN_3: ("a1",),
}


# The branches of the elimination, each with the reason it has or lacks a
# solution.
WITNESS = {
    "umbilical": "all equations coincide; rho stays free with "
                 "lambda = 1 + 2c^2 + eps*rho*c",
    "two_distinct": "repeated curvature pinned to -eps*rho",
    "three_distinct": "subtracting equation pairs forces two curvatures to "
                      "equal -eps*rho, contradicting pairwise distinctness",
    "complex_pair": "elimination yields (a1 - a2)^2 + b1^2 = 0 with b1 != 0",
    "jordan3": "Ric(e1,e1) must equal both -1 and 0",
    "jordan2_equal": "lambda = a1^2 + 1 with rho = -a1",
    "jordan2_distinct": "elimination yields (a1 - a2)^2 = 0",
}
BRANCHES = tuple(WITNESS)

# Curvature parameters closer than this coincide.  Synthetic draws keep
# distinct parameters at least 0.05 apart.
TAU_COINCIDE = 1e-12


# Ground-truth solvability of each kind of synthetic draw, and the kinds of
# each form in the order their draws interleave (draw k has kind k % len).
SOLVABLE_BY_KIND = {"umbilical": True, "two_equal": True, "distinct": False,
                    "complex": False, "equal": True, "jordan3": False}
KINDS = {
    FormVariant.DIAGONALIZABLE: ("umbilical", "two_equal", "distinct"),
    FormVariant.COMPLEX_PAIR: ("complex",),
    FormVariant.JORDAN_2: ("equal", "distinct"),
    FormVariant.JORDAN_3: ("jordan3",),
}
_BRANCH = {name: code for code, name in enumerate(BRANCHES)}


@dataclass(frozen=True)
class SweepSummary:
    """One sweep as columns, one entry per draw in draw order.

    ``params`` is (n, k) with columns named by ``names``; ``kind`` indexes
    ``KINDS[form]`` and ``branch`` indexes ``BRANCHES``.  ``lam``, ``rho``
    and the (n, 2) ``lam_affine`` (lambda = c0 + c1 * rho where rho is free)
    hold NaN where the branch does not determine them.
    """

    form: FormVariant
    epsilon: int
    names: tuple
    params: np.ndarray
    kind: np.ndarray
    solvable: np.ndarray
    branch: np.ndarray
    lam: np.ndarray
    rho: np.ndarray
    lam_affine: np.ndarray

    def rows(self, start, stop):
        """Draws ``start:stop`` as a summary of their own."""
        return replace(self, **{
            f.name: getattr(self, f.name)[start:stop] for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)})

    @property
    def solvable_count(self):
        return int(np.count_nonzero(self.solvable))

    @property
    def infeasible_count(self):
        return len(self.solvable) - self.solvable_count

    @property
    def misclassifications(self):
        expected = np.array([SOLVABLE_BY_KIND[k] for k in KINDS[self.form]])
        return int(np.count_nonzero(self.solvable != expected[self.kind]))


def _signed_uniform(rng, n):
    """|x| uniform on [0.1, 2) with a fair random sign."""
    u = rng.uniform(0.1, 2.0, n)
    return np.where(rng.random(n) < 0.5, -u, u)


def _uniform_away(rng, centre, gap):
    """Uniform on [-2, 2), redrawn where within ``gap`` of ``centre``."""
    x = rng.uniform(-2.0, 2.0, centre.shape)
    redo = np.flatnonzero(np.abs(x - centre) < gap)
    while redo.size:
        x[redo] = rng.uniform(-2.0, 2.0, redo.size)
        redo = redo[np.abs(x[redo] - centre[redo]) < gap]
    return x


def _spaced_triples(rng, n, gap):
    """Sorted uniform triples on [-2, 2), redrawn until neighbours are at
    least ``gap`` apart."""
    a = np.sort(rng.uniform(-2.0, 2.0, (n, 3)), axis=1)
    redo = np.flatnonzero(np.diff(a, axis=1).min(axis=1) < gap)
    while redo.size:
        a[redo] = np.sort(rng.uniform(-2.0, 2.0, (redo.size, 3)), axis=1)
        redo = redo[np.diff(a[redo], axis=1).min(axis=1) < gap]
    return a


def _draw(form, rng, kind):
    """Parameter columns for draws of the given kinds (codes into KINDS)."""
    n = len(kind)
    if form is FormVariant.DIAGONALIZABLE:
        a = np.empty((n, 3))
        rows = kind == 0
        a[rows] = _signed_uniform(rng, np.count_nonzero(rows))[:, None]
        rows = np.flatnonzero(kind == 1)
        d = _signed_uniform(rng, rows.size)
        a[rows] = d[:, None]
        a[rows, rng.integers(0, 3, rows.size)] = _uniform_away(rng, d, 0.1)
        rows = kind == 2
        a[rows] = _spaced_triples(rng, np.count_nonzero(rows), 0.05)
        return a
    if form is FormVariant.COMPLEX_PAIR:
        return np.stack([rng.uniform(-2.0, 2.0, n), _signed_uniform(rng, n),
                         rng.uniform(-2.0, 2.0, n)], axis=1)
    a1 = rng.uniform(-2.0, 2.0, n)
    if form is FormVariant.JORDAN_3:
        return a1[:, None]
    a2 = a1.copy()
    rows = kind == 1
    a2[rows] = _uniform_away(rng, a1[rows], 0.1)
    return np.stack([a1, a2], axis=1)


def _solve_columns(form, e, p):
    """Exact elimination over rows of parameters, each branch decided with
    a mask: (solvable, branch, lam, rho, lam_affine) as in SweepSummary."""
    n = len(p)
    lam, rho = np.full(n, np.nan), np.full(n, np.nan)
    lam_affine = np.full((n, 2), np.nan)
    if form is FormVariant.DIAGONALIZABLE:
        a0, a1, a2 = p.T
        same12 = np.abs(a0 - a1) <= TAU_COINCIDE
        same13 = np.abs(a0 - a2) <= TAU_COINCIDE
        same23 = np.abs(a1 - a2) <= TAU_COINCIDE
        umb = same12 & same13 & same23
        two = (same12 | same13 | same23) & ~umb
        c = (a0[umb] + a1[umb] + a2[umb]) / 3.0
        lam_affine[umb, 0] = 1.0 + 2.0 * c * c
        lam_affine[umb, 1] = e * c
        d = np.where(same12, 0.5 * (a0 + a1),
                     np.where(same13, 0.5 * (a0 + a2), 0.5 * (a1 + a2)))[two]
        s = np.where(same12, a2, np.where(same13, a1, a0))[two]
        lam[two] = 1.0 + d * s
        rho[two] = -e * d
        branch = np.where(umb, _BRANCH["umbilical"],
                          np.where(two, _BRANCH["two_distinct"],
                                   _BRANCH["three_distinct"]))
    elif form is FormVariant.COMPLEX_PAIR:
        branch = np.full(n, _BRANCH["complex_pair"])
    elif form is FormVariant.JORDAN_3:
        branch = np.full(n, _BRANCH["jordan3"])
    else:
        eq = np.abs(p[:, 0] - p[:, 1]) <= TAU_COINCIDE
        c = 0.5 * (p[eq, 0] + p[eq, 1])
        lam[eq] = 1.0 + c * c
        rho[eq] = -c
        branch = np.where(eq, _BRANCH["jordan2_equal"],
                          _BRANCH["jordan2_distinct"])
    # the solvable branches are the ones that give lambda
    solvable = ~np.isnan(lam) | ~np.isnan(lam_affine[:, 0])
    return solvable, branch, lam, rho, lam_affine


def sweep(form, n_draws=10000, seed=0, epsilon=1):
    """Randomized sweep of one form as columns in draw order.

    Draw k has kind ``k % len(KINDS[form])``; each parameter column is drawn
    for all draws of a kind at once, rejecting and redrawing only the draws
    that fall too close to a coincidence.
    """
    form = FormVariant(form) if not isinstance(form, FormVariant) else form
    _check_epsilon(form, epsilon)
    rng = np.random.default_rng(seed)
    kind = np.arange(int(n_draws)) % len(KINDS[form])
    params = _draw(form, rng, kind)
    return SweepSummary(form, int(epsilon), _REQUIRED[form], params, kind,
                        *_solve_columns(form, int(epsilon), params))


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
