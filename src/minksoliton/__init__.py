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

from .lorentz import FormVariant, mink_inner
from .jets import Jet
from .hypersurface import Immersion, grid_points, ricci_gauss
from .soliton import Verdict
from .canonical import CaseSystem, sweep
from .analysis import analyze_entry, analyze_immersion

__version__ = "0.1.0"

__all__ = [
    "CaseSystem", "FormVariant", "Immersion", "Jet", "Verdict",
    "analyze_entry", "analyze_immersion", "grid_points", "mink_inner",
    "ricci_gauss", "sweep",
]
