"""Named parametrized hypersurfaces with safe sampling boxes and expectations.

Each entry packages a chart builder, the box on which sampling is known to
be nondegenerate, the normal orientation that reproduces the curvature
signs quoted for it, per-entry tolerances (closed-form charts are machine
accurate; integrated ones get the looser ODE budget), and a list of
expectations.  Expectations record claimed values next to their provenance
("claimed" for constants quoted in the source literature, "derived" for
values established by an independent calculation here, "exact" for direct
arithmetic facts); analysis reports print claimed versus computed and never
substitute one for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import frame_ode, jets
from .hypersurface import Immersion
from .lorentz import mink_inner
from .soliton import TAU_SOL_CLOSED, TAU_SOL_ODE


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
    name: str
    builder: Callable
    defaults: dict
    safe_box: Callable
    description: str
    orientation_sign: float = 1.0
    tau_identity: float = 1e-7
    tau_sol: float = TAU_SOL_CLOSED
    is_ode: bool = False
    expectations: Callable = lambda params: []
    constraint: Optional[Callable] = None  # residual of the defining level set

    def build(self, **overrides):
        params = dict(self.defaults)
        unknown = set(overrides) - set(params)
        if unknown:
            raise KeyError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        params.update(overrides)
        imm = self.builder(**params)
        return imm.with_orientation(self.orientation_sign), params

    def expectation_table(self, params, report):
        """Claimed against computed, one row per expectation of ``params``."""
        tol = max(self.tau_sol, 1e-6)
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


# -- closed-form charts -------------------------------------------------------

def hyperbolic_space_immersion(c=1.0):
    """H^3(-c^2): <x, x> = -1/c^2, spacelike with timelike normal."""
    c = _nonzero(c, "curvature constant c")

    def chart(r, th, ph):
        k = 1.0 / c
        sh, ch = jets.sinh(r), jets.cosh(r)
        sth, cth = jets.sin(th), jets.cos(th)
        sph, cph = jets.sin(ph), jets.cos(ph)
        return [k * ch, k * sh * sth * cph, k * sh * sth * sph, k * sh * cth]

    return Immersion(f"hyperbolic_space(c={c:g})", chart)


def de_sitter_immersion(c=1.0):
    """S^3_1(c^2): <x, x> = +1/c^2, Lorentzian with spacelike normal."""
    c = _nonzero(c, "curvature constant c")

    def chart(t, th, ph):
        k = 1.0 / c
        sh, ch = jets.sinh(t), jets.cosh(t)
        sth, cth = jets.sin(th), jets.cos(th)
        sph, cph = jets.sin(ph), jets.cos(ph)
        return [k * sh, k * ch * sth * cph, k * ch * sth * sph, k * ch * cth]

    return Immersion(f"de_sitter(c={c:g})", chart)


def hyperbolic_cylinder_immersion(c=1.0):
    """H^2(-c^2) x E: -x1^2 + x2^2 + x3^2 = -1/c^2, spacelike."""
    c = _nonzero(c, "curvature constant c")

    def chart(u, v, w):
        k = 1.0 / c
        return [k * jets.cosh(u), k * jets.sinh(u) * jets.cos(v),
                k * jets.sinh(u) * jets.sin(v), w]

    return Immersion(f"hyperbolic_cylinder(c={c:g})", chart)


def pseudospherical_cylinder_immersion(c=1.0):
    """S^2_1(c^2) x E: -x1^2 + x2^2 + x3^2 = +1/c^2, Lorentzian."""
    c = _nonzero(c, "curvature constant c")

    def chart(u, v, w):
        k = 1.0 / c
        return [k * jets.sinh(u), k * jets.cosh(u) * jets.cos(v),
                k * jets.cosh(u) * jets.sin(v), w]

    return Immersion(f"pseudospherical_cylinder(c={c:g})", chart)


def graph_lorentzian_immersion():
    """Graph x4 = u^2 + v^2 + w^2 over the Lorentzian coordinate 3-plane."""

    def chart(u, v, w):
        return [u, v, w, u * u + v * v + w * w]

    return Immersion("graph_lorentzian", chart)


def graph_spacelike_immersion():
    """Graph x1 = u^2 + v^2 + w^2 + 2 over the spacelike coordinate 3-plane."""

    def chart(u, v, w):
        return [u * u + v * v + w * w + 2.0, u, v, w]

    return Immersion("graph_spacelike", chart)


# -- frame-ODE charts ---------------------------------------------------------

def _b_function(b_kind, b_const):
    if b_kind == "constant":
        return frame_ode.BFunction.constant(b_const)
    if b_kind == "offset_sin":
        return frame_ode.BFunction.offset_sin()
    raise ValueError(f"unknown B kind {b_kind!r}")


def generalized_umbilical_immersion(a=1.0, b_kind="constant", b_const=1.0):
    a = _nonzero(a, "Jordan eigenvalue a")
    # alpha(0) = -Z0/a makes the support function constant, -1/a, on the
    # s = 0 slice.  The quoted constant a^2 + 1 needs -a there, so the
    # soliton equation holds on that slice only for a = +-1; no alpha(0)
    # reaches -a for other a, since only <alpha(0), Z0> = -1/a cancels the
    # v-dependence of the support function.
    spec = frame_ode.FrameODESpec(a=a, b=_b_function(b_kind, b_const),
                                  alpha0=np.array([0.0, 0.0, -1.0 / a, 0.0]))
    return frame_ode.build_generalized_umbilical(spec)


def generalized_cylinder_immersion(b_kind="constant", b_const=1.0):
    spec = frame_ode.FrameODESpec(a=0.0, b=_b_function(b_kind, b_const))
    return frame_ode.build_generalized_cylinder_I(spec)


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
    return max(abs(a - b) for a, b in pairs) <= 1e-4


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


ENTRIES = {
    "hyperbolic_space": CatalogEntry(
        name="hyperbolic_space",
        builder=hyperbolic_space_immersion,
        defaults={"c": 1.0},
        safe_box=lambda p: ((0.3, 1.2), (0.4, 2.7), (0.2, 6.0)),
        description="totally umbilical spacelike hyperbolic 3-space",
        expectations=_umbilical_expectations,
        constraint=_full_quadric(-1.0),
    ),
    "de_sitter": CatalogEntry(
        name="de_sitter",
        builder=de_sitter_immersion,
        defaults={"c": 1.0},
        safe_box=lambda p: ((-0.8, 0.8), (0.4, 2.7), (0.2, 6.0)),
        description="totally umbilical Lorentzian sphere",
        expectations=_de_sitter_expectations,
        constraint=_full_quadric(1.0),
    ),
    "hyperbolic_cylinder": CatalogEntry(
        name="hyperbolic_cylinder",
        builder=hyperbolic_cylinder_immersion,
        defaults={"c": 1.0},
        safe_box=lambda p: ((0.3, 1.2), (0.2, 6.0), (0.15, 1.1)),
        description="spacelike hyperbolic cylinder (plane factor times line)",
        expectations=_hyperbolic_cylinder_expectations,
        constraint=_ruled_quadric(-1.0),
    ),
    "pseudospherical_cylinder": CatalogEntry(
        name="pseudospherical_cylinder",
        builder=pseudospherical_cylinder_immersion,
        defaults={"c": 1.0},
        safe_box=lambda p: ((-0.8, 0.8), (0.2, 6.0), (0.15, 1.1)),
        description="Lorentzian spherical cylinder (sphere factor times line)",
        expectations=_pseudospherical_cylinder_expectations,
        constraint=_ruled_quadric(1.0),
    ),
    "generalized_umbilical": CatalogEntry(
        name="generalized_umbilical",
        builder=generalized_umbilical_immersion,
        defaults={"a": 1.0, "b_kind": "constant", "b_const": 1.0},
        safe_box=lambda p: ((-0.85, 0.85), (-0.8, 0.8),
                            (-0.7 / abs(p["a"]), 0.7 / abs(p["a"]))),
        description="ruled Lorentzian hypersurface over a null curve with a "
                    "2-step Jordan shape operator",
        orientation_sign=-1.0,
        tau_identity=1e-5,
        tau_sol=TAU_SOL_ODE,
        is_ode=True,
        expectations=_generalized_umbilical_expectations,
    ),
    "generalized_umbilical_varB": CatalogEntry(
        name="generalized_umbilical_varB",
        builder=generalized_umbilical_immersion,
        defaults={"a": 1.0, "b_kind": "offset_sin", "b_const": 1.0},
        safe_box=lambda p: ((-0.85, 0.85), (-0.8, 0.8),
                            (-0.7 / abs(p["a"]), 0.7 / abs(p["a"]))),
        description="generalized umbilical hypersurface with varying "
                    "Jordan coefficient B(s) = 2 + sin s",
        orientation_sign=-1.0,
        tau_identity=1e-5,
        tau_sol=TAU_SOL_ODE,
        is_ode=True,
        expectations=_generalized_umbilical_expectations,
    ),
    "generalized_cylinder_I": CatalogEntry(
        name="generalized_cylinder_I",
        builder=generalized_cylinder_immersion,
        defaults={"b_kind": "constant", "b_const": 1.0},
        safe_box=lambda p: ((-0.85, 0.85), (-1.0, 1.0), (-1.0, 1.0)),
        description="ruled Lorentzian hypersurface with nilpotent shape "
                    "operator and flat induced metric",
        tau_identity=1e-5,
        tau_sol=TAU_SOL_ODE,
        is_ode=True,
        expectations=_generalized_cylinder_expectations,
    ),
    "graph_lorentzian": CatalogEntry(
        name="graph_lorentzian",
        builder=graph_lorentzian_immersion,
        defaults={},
        safe_box=lambda p: ((-0.45, 0.45), (-0.45, 0.45), (-0.45, 0.45)),
        description="negative control: quadratic graph over the Lorentzian "
                    "coordinate 3-plane",
        expectations=_negative_expectations,
        constraint=_graph_constraint(3, 0.0),
    ),
    "graph_spacelike": CatalogEntry(
        name="graph_spacelike",
        builder=graph_spacelike_immersion,
        defaults={},
        safe_box=lambda p: ((-0.25, 0.25), (-0.25, 0.25), (-0.25, 0.25)),
        description="negative control: offset quadratic graph over the "
                    "spacelike coordinate 3-plane",
        expectations=_negative_expectations,
        constraint=_graph_constraint(0, 2.0),
    ),
}


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
        out.append({
            "name": name,
            "description": entry.description,
            "parameters": dict(entry.defaults),
            "safe_box": [list(iv) for iv in entry.safe_box(entry.defaults)],
            "orientation_sign": entry.orientation_sign,
            "tau_identity": entry.tau_identity,
            "tau_soliton": entry.tau_sol,
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
