"""Curvature and Ricci-soliton verification for hypersurfaces of
4-dimensional Minkowski space.

The package computes, for any chart immersed in the index-1 flat space,
the full extrinsic and intrinsic curvature data (first fundamental form,
unit normal, shape operator, Christoffel symbols, Ricci tensor by two
independent routes), decides whether the hypersurface carries a Ricci
soliton whose potential field is the tangential part of the position
vector, classifies the shape operator into the four Lorentzian canonical
forms, and reproduces the per-form solvability dichotomy of the soliton
equations by exact elimination.
"""

from .lorentz import (CausalCharacter, FormVariant, MinkVector,
                      ShapeOperatorForm, causal_character,
                      classify_shape_operator, minimal_polynomial, mink_cross,
                      mink_inner, solve_indefinite)
from .jets import Jet, extract_derivative
from .hypersurface import (HypersurfaceSample, Immersion, classify_structure,
                           codazzi_residual, connection_forms, grid_points,
                           ricci_gauss, ricci_intrinsic, sample,
                           shape_operator)
from .soliton import SolitonReport, Verdict, fit_lambda, soliton_residual
from .frame_ode import (BFunction, FrameODESpec, FrameState,
                        build_generalized_cylinder_I,
                        build_generalized_umbilical, closed_frame_system,
                        integrate_frame)
from .canonical import CaseSystem, build_case_system, solve_case, sweep
from .analysis import analyze_entry, analyze_immersion

__version__ = "0.1.0"

__all__ = [
    "BFunction", "CaseSystem", "CausalCharacter", "FormVariant",
    "FrameODESpec", "FrameState", "HypersurfaceSample", "Immersion", "Jet",
    "MinkVector", "ShapeOperatorForm", "SolitonReport", "Verdict",
    "analyze_entry", "analyze_immersion", "build_case_system",
    "build_generalized_cylinder_I", "build_generalized_umbilical",
    "causal_character", "classify_shape_operator", "classify_structure",
    "closed_frame_system", "codazzi_residual", "connection_forms",
    "extract_derivative", "fit_lambda", "grid_points", "integrate_frame",
    "minimal_polynomial", "mink_cross", "mink_inner", "ricci_gauss",
    "ricci_intrinsic", "sample", "shape_operator", "solve_case",
    "solve_indefinite", "soliton_residual", "sweep",
]
