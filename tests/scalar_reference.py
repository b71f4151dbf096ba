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
* ``ricci_intrinsic``, ``nabla_A`` and ``lie_coordinate`` write the
  formulas of the arrays ``GeometryBatch`` forms from first partials as
  whole-batch einsums, for partials taken by central differences;
* ``build_generalized_umbilical``, ``build_generalized_cylinder_I`` and
  ``frame_route_entry`` build the null-curve entries on the frame ODE, the
  route their chart text replaced; ``b_text`` and ``constant_b`` give the
  B(s) they integrate.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from minksoliton import catalog, exprs, frame_ode, jets
from minksoliton.canonical import (_REQUIRED, TAU_COINCIDE, WITNESS,
                                   CaseSystem)
from minksoliton.hypersurface import Immersion
from minksoliton.jets import DEGREE, INDEX_OF, IndexOutOfRange
from minksoliton.lorentz import N_PARAMETERS, VARIANTS, FormVariant

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


# -- arrays formed from first partials ------------------------------------------
# Each partial argument carries the chart derivative on axis 1, as
# geometry_block's d* arrays do, e.g. dGamma[:, m, k, i, j] = d_m Gamma^k_ij.

def ricci_intrinsic(Gamma, dGamma):
    """Ric_jk = d_i G^i_jk - d_j G^i_ik + G^i_il G^l_jk - G^i_jl G^l_ik."""
    return (np.einsum('niijk->njk', dGamma) - np.einsum('njiik->njk', dGamma)
            + np.einsum('niil,nljk->njk', Gamma, Gamma)
            - np.einsum('nijl,nlik->njk', Gamma, Gamma))


def nabla_A(A, Gamma, dA):
    """(nabla_i A)^k_j = d_i A^k_j + G^k_il A^l_j - G^l_ij A^k_l, at [:, i, k, j]."""
    return (dA + np.einsum('nkil,nlj->nikj', Gamma, A)
            - np.einsum('nlij,nkl->nikj', Gamma, A))


def lie_coordinate(xT, dxT, g, dg):
    """(L_xT g)_ij = xT^k d_k g_ij + g_kj d_i xT^k + g_ik d_j xT^k."""
    return (np.einsum('nk,nkij->nij', xT, dg) + np.einsum('nik,nkj->nij', dxT, g)
            + np.einsum('njk,nik->nij', dxT, g))


# -- the null-curve entries on the frame ODE --------------------------------------

def b_text(text, **parameters):
    """B(s) of the text of a chart file's declaration ``B = text``."""
    return exprs.b_function(exprs.parse(text), parameters)


def constant_b(c):
    """The coefficient B(s) = c of the frame system."""
    return b_text("c", c=float(c))


def build_generalized_umbilical(spec):
    """Ruled hypersurface x = alpha + u Y + v W + (sqrt(1/a^2 - v^2) + 1/a) Z
    over the frame of ``spec``.

    Requires a != 0.  The offset +1/a (rather than -1/a) is what makes the
    stated frame system consistent with the closed-form unit normal
    N = -a u Y - sqrt(1 - a^2 v^2) Z - a v W; with the opposite offset no
    Gram-preserving frame completion admits that normal.  The shape operator
    then satisfies A x_s = a x_s + B x_u, A x_u = a x_u, A x_v = a x_v, so
    its minimal polynomial is (t - a)^2 wherever B != 0.  The curve starts
    at alpha(0) = -Z(0)/a, which makes the support function -1/a on the
    s = 0 slice.
    """
    if spec.a == 0.0:
        raise ValueError("generalized umbilical hypersurface needs a != 0")
    table = frame_ode.FrameTable(spec)
    a = spec.a
    # the table integrates alpha from the origin, and alpha' does not read
    # alpha: the shifted states are those integrated from -Z(0)/a
    table.states[:, 0] -= frame_ode.DEFAULT_INITIAL_FRAME[2] / a

    def chart(js, ju, jv):
        frame = table.component_jets(js.value)
        alpha, X, Y, Z, W = (frame[k] for k in range(5))
        psi = (jets.sqrt(1.0 - (a * jv) * (a * jv)) + 1.0) / a
        x = alpha + ju * Y + jv * W + psi * Z
        return [x[m] for m in range(4)]

    return Immersion(f"generalized_umbilical(a={a:g})", chart, integrated=True)


def build_generalized_cylinder_I(spec):
    """Ruled hypersurface x = alpha + u Y + v W over a frame with a = 0."""
    if spec.a != 0.0:
        raise ValueError("type-I generalized cylinder needs a = 0")
    table = frame_ode.FrameTable(spec)

    def chart(js, ju, jv):
        frame = table.component_jets(js.value)
        alpha, X, Y, Z, W = (frame[k] for k in range(5))
        x = alpha + ju * Y + jv * W
        return [x[m] for m in range(4)]

    return Immersion("generalized_cylinder_I", chart, integrated=True)


@dataclass
class FrameRouteEntry(catalog.CatalogEntry):
    """A catalog entry that ``builder`` builds on the frame ODE."""

    builder: Callable = None
    is_ode = True

    def build(self, **overrides):
        params = {**self.defaults, **overrides}
        return self.builder(**params).with_orientation(self.orientation_sign), params


def frame_route_entry(name):
    """The catalog entry ``name``, generalized_umbilical,
    generalized_umbilical_varB or generalized_cylinder_I, built on the frame
    ODE with its tolerances."""
    def builder(a=None, b_const=1.0):
        b = (b_text("2 + sin(s)") if name == "generalized_umbilical_varB"
             else constant_b(b_const))
        if name == "generalized_cylinder_I":
            return build_generalized_cylinder_I(
                frame_ode.FrameODESpec(a=0.0, b=b))
        return build_generalized_umbilical(frame_ode.FrameODESpec(a=a, b=b))

    entry = catalog.get(name)
    return FrameRouteEntry(builder=builder, **{
        f.name: getattr(entry, f.name) for f in dataclasses.fields(entry)})
