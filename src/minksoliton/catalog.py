"""Named parametrized hypersurfaces with safe sampling boxes and expectations.

Each entry packages a chart, written as text in the chart-file grammar of
exprs.py (CHARTS, under the entry's name), the box on which sampling is
known to be nondegenerate, the normal orientation that reproduces the
curvature signs quoted for it, and a list of expectations.  Six charts
are closed-form quadrics and graphs; three are ruled over the null-curve
frame of frame_ode.py, two of them with a constant B in closed form, and
one, whose text declares B(s) = 2 + sin s, integrates the frame ODE,
which picks its gate tolerances from soliton.TAU.
Expectations record claimed values next to their provenance ("claimed" for
constants quoted in the source literature, "derived" for values established
by an independent calculation here, "exact" for direct arithmetic facts);
analysis reports print claimed versus computed and never substitute one for
the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exprs
from .lorentz import mink_inner
from .soliton import TAU


@dataclass(frozen=True)
class Expectation:
    """A claimed value under a key of EXPECTATION_KEYS, which reads the
    computed value off an analysis report and compares the two; a key
    outside the table is informational and has no computed value."""

    key: str
    claimed: object
    source: str  # "claimed" | "derived" | "exact"
    note: str = ""

    def computed(self, report):
        """The value of the key in ``report``, or None."""
        read = EXPECTATION_KEYS.get(self.key)
        return read[0](report) if read else None

    def agrees(self, computed, tol):
        """Whether ``computed`` bears out the claim, or None without a value."""
        if computed is None:
            return None
        return EXPECTATION_KEYS[self.key][1](self.claimed, computed, tol)


@dataclass
class CatalogEntry:
    name: str  # and the key of its chart text in CHARTS
    defaults: dict
    safe_box: Callable
    description: str
    orientation_sign: float = 1.0
    expectations: Callable = lambda params: []
    constraint: Optional[Callable] = None  # residual of the defining level set

    def build(self, **overrides):
        params = dict(self.defaults)
        unknown = set(overrides) - set(params)
        if unknown:
            raise KeyError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        params.update(overrides)
        imm = _immersion(self.name, params)
        return imm.with_orientation(self.orientation_sign), params

    @property
    def is_ode(self):
        """Whether the chart text declares B, and so integrates the frame ODE."""
        return _PARSED[self.name].b is not None

    def expectation_table(self, params, report):
        """Claimed against computed, one row per expectation of ``params``."""
        tol = TAU[self.is_ode][1]
        rows = []
        for exp in self.expectations(params):
            computed = exp.computed(report)
            rows.append({"key": exp.key, "claimed": _jsonable(exp.claimed),
                         "computed": _jsonable(computed), "source": exp.source,
                         "agrees": exp.agrees(computed, tol), "note": exp.note})
        return rows


def _nonzero(c, what):
    if c == 0:
        raise ValueError(f"{what} must be nonzero")
    return float(c)


# -- charts -------------------------------------------------------------------
# Each chart is written in the chart-file grammar of exprs.py and parsed once,
# at import.  Products read left to right with 1/c first, the order in which
# the reports' numbers were first computed.

CHARTS = {
    "hyperbolic_space": """
        # H^3(-c^2): <x, x> = -1/c^2, spacelike with timelike normal
        x1 = 1/c*cosh(u)
        x2 = 1/c*sinh(u)*sin(v)*cos(w)
        x3 = 1/c*sinh(u)*sin(v)*sin(w)
        x4 = 1/c*sinh(u)*cos(v)
    """,
    "de_sitter": """
        # S^3_1(c^2): <x, x> = +1/c^2, Lorentzian with spacelike normal
        x1 = 1/c*sinh(u)
        x2 = 1/c*cosh(u)*sin(v)*cos(w)
        x3 = 1/c*cosh(u)*sin(v)*sin(w)
        x4 = 1/c*cosh(u)*cos(v)
    """,
    "hyperbolic_cylinder": """
        # H^2(-c^2) x E: -x1^2 + x2^2 + x3^2 = -1/c^2, spacelike
        x1 = 1/c*cosh(u)
        x2 = 1/c*sinh(u)*cos(v)
        x3 = 1/c*sinh(u)*sin(v)
        x4 = w
    """,
    "pseudospherical_cylinder": """
        # S^2_1(c^2) x E: -x1^2 + x2^2 + x3^2 = +1/c^2, Lorentzian
        x1 = 1/c*sinh(u)
        x2 = 1/c*cosh(u)*cos(v)
        x3 = 1/c*cosh(u)*sin(v)
        x4 = w
    """,
    "graph_lorentzian": """
        # graph x4 = u^2 + v^2 + w^2 over the Lorentzian coordinate 3-plane
        x1 = u
        x2 = v
        x3 = w
        x4 = u*u + v*v + w*w
    """,
    "graph_spacelike": """
        # graph x1 = u^2 + v^2 + w^2 + 2 over the spacelike coordinate 3-plane
        x1 = u*u + v*v + w*w + 2
        x2 = u
        x3 = v
        x4 = w
    """,
    "generalized_umbilical": """
        # alpha + v Y + w W + (sqrt(1 - a^2 w^2) + 1)/a Z over the frame of
        # frame_ode.py with B = b_const and alpha(0) = -Z(0)/a; its system M
        # has M^3 = k^2 M, k^2 = 2 a B, so exp(u M) = I + sinh(k u)/k M
        # + (cosh(k u) - 1)/k^2 M^2
        x1 = (1/2 - b_const/(4*a))*u - (1 + b_const/(2*a))*(sqrt(1 - a*a*w*w) + 1/2)*sinh(sqrt(2*a*b_const)*u)/sqrt(2*a*b_const) + (1/2 + (a/(2*b_const) + 1/4)*(cosh(sqrt(2*a*b_const)*u) - 1))*v
        x2 = (1/2 + b_const/(4*a))*u - (1 - b_const/(2*a))*(sqrt(1 - a*a*w*w) + 1/2)*sinh(sqrt(2*a*b_const)*u)/sqrt(2*a*b_const) - (1/2 - (a/(2*b_const) - 1/4)*(cosh(sqrt(2*a*b_const)*u) - 1))*v
        x3 = ((sqrt(1 - a*a*w*w) + 1/2)*cosh(sqrt(2*a*b_const)*u) - 1/2)/a - a*v*sinh(sqrt(2*a*b_const)*u)/sqrt(2*a*b_const)
        x4 = w
    """,
    "generalized_cylinder_I": """
        # alpha + v Y + w W over the frame of frame_ode.py with a = 0 and
        # B = b_const, whose system is nilpotent: a cubic in u
        x1 = u + b_const*b_const*u*u*u/12 + v/2
        x2 = u - b_const*b_const*u*u*u/12 - v/2
        x3 = -b_const*u*u/2
        x4 = w
    """,
    "generalized_umbilical_varB": """
        # alpha + v Y + w W + (sqrt(1 - a^2 w^2) + 1)/a Z - Z(0)/a over the
        # frame of frame_ode.py, integrated from alpha(0) = 0; the offset
        # puts the support function at -1/a on the s = 0 slice, as the
        # constant-B chart does
        B = 2 + sin(s)
        x1 = alpha1 + v*Y1 + w*W1 + (sqrt(1 - (a*w)*(a*w)) + 1)/a*Z1
        x2 = alpha2 + v*Y2 + w*W2 + (sqrt(1 - (a*w)*(a*w)) + 1)/a*Z2
        x3 = alpha3 + v*Y3 + w*W3 + (sqrt(1 - (a*w)*(a*w)) + 1)/a*Z3 - 1/a
        x4 = alpha4 + v*Y4 + w*W4 + (sqrt(1 - (a*w)*(a*w)) + 1)/a*Z4
    """,
}

# Where a*b_const < 0 the frame turns by sin and cos: the same text with
# k = sqrt(-2 a B), every coefficient unchanged.
TRIGONOMETRIC = {"generalized_umbilical": CHARTS["generalized_umbilical"]
                 .replace("sqrt(2*a*b_const)", "sqrt(-2*a*b_const)")
                 .replace("sinh(", "sin(").replace("cosh(", "cos(")}

_NONZERO = {"c": "curvature constant c", "a": "Jordan eigenvalue a",
            "b_const": "Jordan coefficient b_const"}
_PARSED = {name: exprs.parse_chart_file(text) for name, text in CHARTS.items()}
_TURNED = {name: exprs.parse_chart_file(text)
           for name, text in TRIGONOMETRIC.items()}


def _immersion(name, params):
    """The chart ``CHARTS[name]``, or ``TRIGONOMETRIC[name]`` where the
    parameters a and b_const differ in sign, at ``params``, named after the
    entry and its parameters; the parameters of _NONZERO must be nonzero."""
    params = {k: _nonzero(v, _NONZERO[k]) if k in _NONZERO else v
              for k, v in params.items()}
    # signs, not the product, which may round to zero
    turns = (params.get("a", 0.0) < 0.0) != (params.get("b_const", 0.0) < 0.0)
    chart = (_TURNED if turns and name in _TURNED else _PARSED)[name]
    label = ", ".join(f"{k}={v:g}" for k, v in params.items())
    return exprs.chart_immersion(f"{name}({label})" if label else name,
                                 chart, params)


# -- level-set constraints ----------------------------------------------------

def _full_quadric(target):
    def residual(x, params):
        c = params["c"]
        return np.abs(mink_inner(x, x) - target / c ** 2)
    return residual


def _ruled_quadric(target):
    def residual(x, params):
        c = params["c"]
        y = x.copy()
        y[..., 3] = 0.0
        return np.abs(mink_inner(y, y) - target / c ** 2)
    return residual


def _graph_constraint(axis, offset):
    def residual(x, params):
        rest = [i for i in range(4) if i != axis]
        quad = sum(x[..., i] ** 2 for i in rest)
        return np.abs(x[..., axis] - quad - offset)
    return residual


# -- expectations ---------------------------------------------------------------

def _fit(field, paper_form=False):
    """Reads ``field`` of the headline (corrected) soliton fit, or of the
    paper-form fit nested in it."""
    if paper_form:
        return lambda r: r["soliton"]["paper_form"][field]
    return lambda r: r["soliton"][field]


def _center(read):
    """Reads ``read(form)`` of the center point's form; None if ambiguous."""
    return lambda r: (read(r["classification"]["center_form"])
                      if r["classification"]["center_form"] else None)


def _diagonal(form):
    if form["variant"] == "diagonalizable":
        return tuple(sorted(form["parameters"], reverse=True))
    return None


def _close(claimed, computed, tol):
    return abs(float(claimed) - float(computed)) <= tol


def _close_to_any(claimed, computed, tol):
    options = claimed if isinstance(claimed, tuple) else (claimed,)
    return any(abs(c - computed) <= tol for c in options)


def _same_multiset(claimed, computed, tol):
    if len(computed) != len(claimed):
        return False
    pairs = zip(sorted(claimed), sorted(computed))
    return max(abs(a - b) for a, b in pairs) <= tol


def _equal(claimed, computed, tol):
    return bool(claimed == computed)


# key -> (value read off a report, test of the claim against that value)
EXPECTATION_KEYS = {
    "lambda_fit": (_fit("lambda_fit"), _close),
    "lambda_fit_paper_form": (_fit("lambda_fit", paper_form=True), _close),
    "lambda_claimed": (_fit("lambda_fit"), _close_to_any),
    "lambda_spread_exceeds": (_fit("lambda_spread"),
                              lambda claimed, computed, tol: computed > claimed),
    "verdict": (_fit("verdict"), _equal),
    "verdict_paper_form": (_fit("verdict", paper_form=True), _equal),
    "gcr": (lambda r: r["classification"]["structure"][
        "generalized_constant_ratio"], _equal),
    "principal_curvatures": (_center(_diagonal), _same_multiset),
    "min_poly_degree": (_center(lambda f: len(f["minimal_polynomial"]) - 1),
                        _close),
    "min_poly_root": (_center(lambda f: f["parameters"][0]), _close),
    # values of the report's identities block under the same key
    **{key: (lambda r, key=key: r["identities"].get(key), _close)
       for key in ("epsilon", "ricci_sup", "ricci_intrinsic_vs_2c2_g",
                   "tangent_position_sup")},
}


def _umbilical_expectations(params):
    c = params["c"]
    return [
        Expectation("epsilon", -1.0, "derived", "timelike unit normal"),
        Expectation("principal_curvatures", (c, c, c), "claimed",
                    "totally umbilical with A = c I"),
        Expectation("lambda_fit_paper_form", 2 * c ** 2, "derived",
                    "x_T = 0 forces lambda g = Ric in the uncorrected convention"),
        Expectation("lambda_fit", -2 * c ** 2, "derived",
                    "Einstein constant of the hyperbolic metric is negative"),
        Expectation("lambda_claimed", (c ** 2, 3 * c ** 2), "claimed",
                    "quoted constants; neither matches the fitted value"),
        Expectation("verdict", "shrinking", "claimed",
                    "under the corrected convention the fit is expanding"),
        Expectation("tangent_position_sup", 0.0, "derived",
                    "position vector is normal to the level set"),
    ]


def _de_sitter_expectations(params):
    c = params["c"]
    return [
        Expectation("epsilon", 1.0, "derived", "spacelike unit normal"),
        Expectation("principal_curvatures", (c, c, c), "claimed",
                    "totally umbilical with A = c I"),
        Expectation("lambda_fit", 2 * c ** 2, "derived",
                    "x_T = 0 forces lambda g = Ric; both conventions agree"),
        Expectation("lambda_claimed", (c ** 2, 3 * c ** 2), "claimed",
                    "quoted constants; neither matches the fitted value"),
        Expectation("verdict", "shrinking", "claimed", "agrees with the fit"),
        Expectation("ricci_intrinsic_vs_2c2_g", 0.0, "derived",
                    "constant-curvature identity Ric = 2 c^2 g"),
        Expectation("tangent_position_sup", 0.0, "derived",
                    "position vector is normal to the level set"),
    ]


def _hyperbolic_cylinder_expectations(params):
    c = params["c"]
    exp = [
        Expectation("epsilon", -1.0, "derived", "timelike unit normal"),
        Expectation("principal_curvatures", (c, c, 0.0), "claimed",
                    "product of a hyperbolic plane with a line"),
        Expectation("gcr", True, "derived", "x_T lies along the ruling"),
    ]
    if c == 1.0:
        exp += [
            Expectation("lambda_fit_paper_form", 1.0, "claimed",
                        "soliton constant 1 under the uncorrected convention"),
            Expectation("verdict_paper_form", "shrinking", "claimed", ""),
            Expectation("verdict", "not_a_soliton", "derived",
                        "corrected blocks demand lambda = -c^2 and 1"),
        ]
    else:
        exp += [
            Expectation("verdict", "not_a_soliton", "derived",
                        "per-block constants disagree for c != 1"),
            Expectation("verdict_paper_form", "not_a_soliton", "derived",
                        "repeated curvature must equal the support value"),
        ]
    return exp


def _pseudospherical_cylinder_expectations(params):
    c = params["c"]
    exp = [
        Expectation("epsilon", 1.0, "derived", "spacelike unit normal"),
        Expectation("principal_curvatures", (c, c, 0.0), "claimed",
                    "product of a Lorentzian sphere with a line"),
        Expectation("gcr", True, "derived", "x_T lies along the ruling"),
    ]
    if c == 1.0:
        exp += [
            Expectation("lambda_fit", 1.0, "claimed", "soliton constant 1"),
            Expectation("verdict", "shrinking", "claimed",
                        "agrees with the fit for c = 1"),
        ]
    else:
        exp += [Expectation("verdict", "not_a_soliton", "derived",
                            "per-block constants disagree for c != 1")]
    return exp


def _generalized_umbilical_expectations(params):
    a = params["a"]
    if abs(a) == 1.0:
        where = "support function equals -a only on the s = 0 slice"
    else:
        where = "support function is -1/a, not -a, on the s = 0 slice"
    return [
        Expectation("epsilon", 1.0, "exact",
                    "Gram relations collapse the cross terms to unit norm"),
        Expectation("min_poly_degree", 2, "claimed",
                    "minimal polynomial (t - a)^2"),
        Expectation("min_poly_root", a, "claimed", "double root at a"),
        Expectation("lambda_claimed", a ** 2 + 1, "claimed",
                    "quoted soliton constant a^2 + 1"),
        Expectation("verdict", "not_a_soliton", "derived",
                    where + "; a constant support with invertible A would "
                    "force the umbilical case, so no such soliton exists"),
    ]


def _generalized_cylinder_expectations(params):
    return [
        Expectation("epsilon", 1.0, "derived", "unit normal is Z(s)"),
        Expectation("min_poly_degree", 2, "claimed", "minimal polynomial t^2"),
        Expectation("min_poly_root", 0.0, "claimed", "nilpotent shape operator"),
        Expectation("ricci_sup", 0.0, "claimed", "flat induced metric"),
        Expectation("lambda_fit", 1.0, "derived",
                    "vanishing Ricci pins the fitted constant at 1"),
        Expectation("conformal_note", "half-Lie derivative equals g only "
                    "where the support function vanishes", "derived", ""),
    ]


def _negative_expectations(params):
    return [
        Expectation("verdict", "not_a_soliton", "derived",
                    "per-point constants disagree across the grid"),
        Expectation("lambda_spread_exceeds", 1e-2, "derived",
                    "falsifiability control"),
    ]


ENTRIES = {e.name: e for e in (
    CatalogEntry(
        name="hyperbolic_space",
        defaults={"c": 1.0},
        safe_box=lambda p: ((0.3, 1.2), (0.4, 2.7), (0.2, 6.0)),
        description="totally umbilical spacelike hyperbolic 3-space",
        expectations=_umbilical_expectations,
        constraint=_full_quadric(-1.0),
    ),
    CatalogEntry(
        name="de_sitter",
        defaults={"c": 1.0},
        safe_box=lambda p: ((-0.8, 0.8), (0.4, 2.7), (0.2, 6.0)),
        description="totally umbilical Lorentzian sphere",
        expectations=_de_sitter_expectations,
        constraint=_full_quadric(1.0),
    ),
    CatalogEntry(
        name="hyperbolic_cylinder",
        defaults={"c": 1.0},
        safe_box=lambda p: ((0.3, 1.2), (0.2, 6.0), (0.15, 1.1)),
        description="spacelike hyperbolic cylinder (plane factor times line)",
        expectations=_hyperbolic_cylinder_expectations,
        constraint=_ruled_quadric(-1.0),
    ),
    CatalogEntry(
        name="pseudospherical_cylinder",
        defaults={"c": 1.0},
        safe_box=lambda p: ((-0.8, 0.8), (0.2, 6.0), (0.15, 1.1)),
        description="Lorentzian spherical cylinder (sphere factor times line)",
        expectations=_pseudospherical_cylinder_expectations,
        constraint=_ruled_quadric(1.0),
    ),
    CatalogEntry(
        name="generalized_umbilical",
        defaults={"a": 1.0, "b_const": 1.0},
        safe_box=lambda p: ((-0.85, 0.85), (-0.8, 0.8),
                            (-0.7 / abs(p["a"]), 0.7 / abs(p["a"]))),
        description="ruled Lorentzian hypersurface over a null curve with a "
                    "2-step Jordan shape operator",
        orientation_sign=-1.0,
        expectations=_generalized_umbilical_expectations,
    ),
    CatalogEntry(
        name="generalized_umbilical_varB",
        defaults={"a": 1.0},
        safe_box=lambda p: ((-0.85, 0.85), (-0.8, 0.8),
                            (-0.7 / abs(p["a"]), 0.7 / abs(p["a"]))),
        description="generalized umbilical hypersurface with varying "
                    "Jordan coefficient B(s) = 2 + sin s",
        orientation_sign=-1.0,
        expectations=_generalized_umbilical_expectations,
    ),
    CatalogEntry(
        name="generalized_cylinder_I",
        defaults={"b_const": 1.0},
        safe_box=lambda p: ((-0.85, 0.85), (-1.0, 1.0), (-1.0, 1.0)),
        description="ruled Lorentzian hypersurface with nilpotent shape "
                    "operator and flat induced metric",
        expectations=_generalized_cylinder_expectations,
    ),
    CatalogEntry(
        name="graph_lorentzian",
        defaults={},
        safe_box=lambda p: ((-0.45, 0.45), (-0.45, 0.45), (-0.45, 0.45)),
        description="negative control: quadratic graph over the Lorentzian "
                    "coordinate 3-plane",
        expectations=_negative_expectations,
        constraint=_graph_constraint(3, 0.0),
    ),
    CatalogEntry(
        name="graph_spacelike",
        defaults={},
        safe_box=lambda p: ((-0.25, 0.25), (-0.25, 0.25), (-0.25, 0.25)),
        description="negative control: offset quadratic graph over the "
                    "spacelike coordinate 3-plane",
        expectations=_negative_expectations,
        constraint=_graph_constraint(0, 2.0),
    ),
)}


def get(name):
    try:
        return ENTRIES[name]
    except KeyError:
        raise KeyError(f"unknown catalog entry {name!r}; known: "
                       f"{sorted(ENTRIES)}") from None


def manifest():
    """Machine-readable catalog listing."""
    out = []
    for name, entry in sorted(ENTRIES.items()):
        tau_identity, tau_sol = TAU[entry.is_ode]
        out.append({
            "name": name,
            "description": entry.description,
            "parameters": dict(entry.defaults),
            "safe_box": [list(iv) for iv in entry.safe_box(entry.defaults)],
            "orientation_sign": entry.orientation_sign,
            "tau_identity": tau_identity,
            "tau_soliton": tau_sol,
            "integrated": entry.is_ode,
            "expectations": [
                {"key": e.key, "claimed": _jsonable(e.claimed),
                 "source": e.source, "note": e.note}
                for e in entry.expectations(entry.defaults)
            ],
        })
    return out


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value
