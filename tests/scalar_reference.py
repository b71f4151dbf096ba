"""Scalar references that the tests compare the library against.

Not a test module: pytest collects nothing here.  Each function works one
row, one matrix or one jet coefficient at a time, the way the batched code
in ``src/`` did before it was vectorized or narrowed:

* ``build_case_system`` and ``solve_case`` solve one case system by exact
  elimination; ``canonical.sweep`` must give the same rows;
* ``canonical_matrix`` writes out one canonical form (A, g) in its stated
  frame, the input of the classifier and frame tests;
* ``extract_derivative`` reads one true partial derivative off a jet;
* ``form`` reads one row of a ``lorentz.FormBatch`` as the analysis report's
  centre form does;
* ``identity_table`` gives the identity rows of one geometry batch, from
  the inputs an analysis passes to ``soliton.identity_residuals``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from minksoliton.canonical import (_REQUIRED, TAU_COINCIDE, WITNESS,
                                   CaseSystem)
from minksoliton.hypersurface import ricci_gauss, ricci_intrinsic_batch
from minksoliton.jets import DEGREE, INDEX_OF, IndexOutOfRange
from minksoliton.lorentz import N_PARAMETERS, VARIANTS, FormVariant
from minksoliton.soliton import identity_residuals, lie_closed_form_batch

# -- case systems --------------------------------------------------------------


@dataclass(frozen=True)
class CaseSolution:
    solvable: bool
    branch: str
    lam: Optional[float] = None
    rho: Optional[float] = None           # None with solvable=True: rho is free
    lam_affine: Optional[tuple] = None    # lambda = c0 + c1 * rho when rho free
    witness: str = ""
    witness_value: Optional[float] = None


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


def solve_case(system):
    """Exact-elimination solvability of a case system."""
    p = system.parameters
    e = system.epsilon
    if system.form is FormVariant.DIAGONALIZABLE:
        a = [p["a1"], p["a2"], p["a3"]]
        same12 = abs(a[0] - a[1]) <= TAU_COINCIDE
        same13 = abs(a[0] - a[2]) <= TAU_COINCIDE
        same23 = abs(a[1] - a[2]) <= TAU_COINCIDE
        if same12 and same13 and same23:
            c = (a[0] + a[1] + a[2]) / 3.0
            return CaseSolution(
                solvable=True, branch="umbilical",
                lam_affine=(1.0 + 2.0 * c * c, e * c), rho=None,
                witness=WITNESS["umbilical"])
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
                witness=WITNESS["two_distinct"])
        gap = min(abs(a[0] - a[1]), abs(a[0] - a[2]), abs(a[1] - a[2]))
        return CaseSolution(
            solvable=False, branch="three_distinct",
            witness=WITNESS["three_distinct"],
            witness_value=gap * gap)
    if system.form is FormVariant.COMPLEX_PAIR:
        a1, b1, a2 = p["a1"], p["b1"], p["a2"]
        w = (a1 - a2) ** 2 + b1 * b1
        return CaseSolution(
            solvable=False, branch="complex_pair",
            witness=WITNESS["complex_pair"],
            witness_value=w)
    if system.form is FormVariant.JORDAN_3:
        return CaseSolution(
            solvable=False, branch="jordan3",
            witness=WITNESS["jordan3"],
            witness_value=1.0)
    a1, a2 = p["a1"], p["a2"]
    if abs(a1 - a2) <= TAU_COINCIDE:
        c = 0.5 * (a1 + a2)
        return CaseSolution(solvable=True, branch="jordan2_equal",
                            lam=1.0 + c * c, rho=-c,
                            witness=WITNESS["jordan2_equal"])
    return CaseSolution(
        solvable=False, branch="jordan2_distinct",
        witness=WITNESS["jordan2_distinct"],
        witness_value=(a1 - a2) ** 2)


# -- canonical forms -----------------------------------------------------------

PSEUDO_ORTHONORMAL_GRAM = np.array([[0.0, -1.0, 0.0],
                                    [-1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0]])


def canonical_matrix(variant, parameters, epsilon=1):
    """Materialize (A, g) for a canonical form in its stated frame.

    Diagonalizable and complex-pair forms live in an orthonormal frame with
    g = diag(-epsilon, 1, 1); the Jordan forms live in the pseudo-orthonormal
    frame with g(e1, e2) = -1, g(e3, e3) = 1.
    """
    if variant is FormVariant.DIAGONALIZABLE:
        a1, a2, a3 = parameters
        return np.diag([a1, a2, a3]), np.diag([-float(epsilon), 1.0, 1.0])
    if variant is FormVariant.COMPLEX_PAIR:
        a1, b1, a2 = parameters
        A = np.array([[a1, b1, 0.0], [-b1, a1, 0.0], [0.0, 0.0, a2]])
        return A, np.diag([-1.0, 1.0, 1.0])
    if variant is FormVariant.JORDAN_2:
        a1, a2 = parameters
        A = np.array([[a1, 0.0, 0.0], [1.0, a1, 0.0], [0.0, 0.0, a2]])
        return A, PSEUDO_ORTHONORMAL_GRAM.copy()
    if variant is FormVariant.JORDAN_3:
        (a1,) = parameters
        A = np.array([[a1, 0.0, 0.0], [0.0, a1, 1.0], [-1.0, 0.0, a1]])
        return A, PSEUDO_ORTHONORMAL_GRAM.copy()
    raise ValueError(f"unknown canonical form variant {variant!r}")


# -- jets ----------------------------------------------------------------------

def extract_derivative(jet, multi_index):
    """True partial derivative d^(i+j+k) f / du^i dv^j dw^k at the base point."""
    i, j, k = multi_index
    if min(i, j, k) < 0 or i + j + k > DEGREE:
        raise IndexOutOfRange(f"multi-index {multi_index} exceeds degree {DEGREE}")
    if i + j + k > jet.order:
        raise IndexOutOfRange(
            f"jet only carries valid coefficients to order {jet.order}")
    scale = math.factorial(i) * math.factorial(j) * math.factorial(k)
    return scale * jet.coeffs[INDEX_OF[(i, j, k)]]


# -- canonical forms -----------------------------------------------------------


Form = namedtuple("Form", "variant parameters minimal_polynomial")


def form(forms, i):
    """Row i of a FormBatch: its FormVariant, the first N_PARAMETERS of its
    parameters and its minimal polynomial without leading zeros."""
    code = forms.variant[i]
    params = forms.parameters[i, :N_PARAMETERS[code]]
    return Form(VARIANTS[code], tuple(params.tolist()),
                np.trim_zeros(forms.min_poly[i], "f"))


# -- identity rows -------------------------------------------------------------

def identity_table(geo):
    """``identity_residuals`` of ``geo`` for the corrected minus intrinsic
    Ricci tensor and the closed-form Lie derivative."""
    ric = geo.epsilon * ricci_gauss(geo.A, geo.g) - ricci_intrinsic_batch(geo)
    return identity_residuals(geo, ric, lie_closed_form_batch(geo))
