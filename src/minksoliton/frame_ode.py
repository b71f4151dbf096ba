"""Moving pseudo-orthonormal frames along a null curve.

The frame {X, Y, Z, W} satisfies <X,X> = <Y,Y> = 0, <X,Y> = -1,
<Z,Z> = <W,W> = 1 with all other pairs zero, and evolves by

    alpha' = X,   X' = -B(s) Z,   Y' = -a Z,   Z' = -a X - B(s) Y,   W' = 0.

Only alpha' and Z' are prescribed by the hypersurface class; the remaining
derivatives are the minimal completion that preserves every Gram relation
(each d/ds <.,.> cancels identically, which the tests verify).

For constant B the flow has a closed form, which the catalog writes as
chart text; this module integrates a varying B(s), given as a callable
that takes arrays and jets in s, for the chart files that declare it
(exprs.py).  Integration is classical fixed-step RK4 over a declared
window, from alpha(0) = 0.  The system is linear, so each step is a 5x5
matrix, and the dense state table is the prefix products of those
matrices, formed in ceil(log2 n) doubling passes per direction from
s = 0.  The table is interpolated locally (degree-5 Lagrange) for values,
and s-derivatives up to order 3 come from the structure equations
themselves, with B' and B'' read off a jet of B, so jet coefficients stay
at integrator accuracy instead of amplifying node roundoff through divided
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .lorentz import METRIC_SIGNS

GRAM_TARGET = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

MINK = np.diag(METRIC_SIGNS)

DEFAULT_INITIAL_FRAME = np.array([
    [1.0, 1.0, 0.0, 0.0],     # X
    [0.5, -0.5, 0.0, 0.0],    # Y
    [0.0, 0.0, 1.0, 0.0],     # Z
    [0.0, 0.0, 0.0, 1.0],     # W
])

INITIAL_STATE = np.vstack([np.zeros(4), DEFAULT_INITIAL_FRAME])  # alpha(0) = 0


class StepTooLarge(ArithmeticError):
    """Gram drift of the integrated frame exceeded the declared tolerance."""


class WindowExceeded(ValueError):
    """Requested curve parameter lies outside the integration window."""


@dataclass
class FrameODESpec:
    """Data of one null-curve frame system.

    ``a`` is the constant in Z' = -a X - B Y (nonzero for the generalized
    umbilical family, zero for the type-I cylinder).  ``b`` is B(s): it
    maps an array of s to the array of B's values, and a jet in s to the
    jet of B.
    """

    a: float
    b: Callable
    window: tuple = (-1.0, 1.0)
    step: float = 1e-3
    tau_frame: float = 1e-6

    def coefficient_matrix(self, b):
        """The 5x5 system matrix on (alpha, X, Y, Z, W), per value of B in b."""
        K = np.zeros(np.shape(b) + (5, 5))
        K[..., 0, 1] = 1.0
        K[..., 1, 3] = -b
        K[..., 2, 3] = -self.a
        K[..., 3, 1] = -self.a
        K[..., 3, 2] = -b
        return K


def _step_maps(spec, n, h):
    """The n RK4 steps from s = 0 as maps y -> (I + Q_k) y: the Q_k, and
    B at the (3, n) nodes and stages they read.

    The system is linear, so Q_k = h/6 (k1 + 2 k2 + 2 k3 + k4), with
    k1 = K(s_k), k2 = K(s_k + h/2)(I + h/2 k1), k3 = K(s_k + h/2)(I + h/2 k2)
    and k4 = K(s_k + h)(I + h k3).  The stage arrays die on return, before
    the scan, which keeps a table's build under 2 MiB of temporaries.
    """
    s = np.arange(n) * h
    b = spec.b(np.stack([s, s + 0.5 * h, s + h]))
    K0, K1, K2 = spec.coefficient_matrix(b)
    k2 = K1 + (0.5 * h) * (K1 @ K0)
    k3 = K1 + (0.5 * h) * (K1 @ k2)
    return (h / 6.0) * (K0 + 2.0 * k2 + 2.0 * k3 + K2 + h * (K2 @ k3)), b


def _rk4(spec, n, h):
    """Classical RK4 from s = 0 over n steps of h: the (n + 1, 5, 4)
    states, and B at the nodes and stages the steps read.

    The states are the prefix products of the step maps, a scan: pass d
    composes each P_k with P_{k-d}, so ceil(log2 n) passes leave
    I + P_k = (I + Q_k) ... (I + Q_0).  Carrying the increment P rather
    than I + P keeps its small entries clear of the identity's round-off.
    """
    P, b = _step_maps(spec, n, h)
    d = 1
    while d < n:
        P[d:] = P[d:] + P[:-d] + P[d:] @ P[:-d]
        d *= 2
    states = np.concatenate([INITIAL_STATE[None], INITIAL_STATE + P @ INITIAL_STATE])
    return states, b


def _checked_drift(states, tau_frame):
    """Largest Gram residual over stacked (..., 5, 4) states, held to tau."""
    F = states[..., 1:, :]
    gram = F @ MINK @ np.swapaxes(F, -1, -2)
    drift = float(np.max(np.abs(gram - GRAM_TARGET)))
    if not drift <= tau_frame:  # NaN fails closed
        raise StepTooLarge(
            f"Gram drift {drift:.3e} exceeds tolerance {tau_frame:.1e}; "
            "reduce the step")
    return drift


class FrameTable:
    """Dense RK4 integration of the frame over the full window.

    ``b_range`` holds the least and the greatest value of B at the nodes
    and stages that the steps read (NaN if one was NaN).
    """

    def __init__(self, spec):
        self.spec = spec
        lo, hi = spec.window
        step = spec.step
        n_fwd = int(round(hi / step)) if hi > 0 else 0
        n_bwd = int(round(-lo / step)) if lo < 0 else 0
        self.s_grid = np.arange(-n_bwd, n_fwd + 1) * step
        # one chain at a time, each leaving s = 0: stacking them would hold
        # both chains' step maps at once; a non-finite state fails the drift
        # gate, so it needs no warning
        with np.errstate(over="ignore", invalid="ignore"):
            back, b_back = _rk4(spec, n_bwd, -step)
            ahead, b_ahead = _rk4(spec, n_fwd, step)
            self.states = np.concatenate([back[:0:-1], ahead])
            self.max_drift = _checked_drift(self.states, spec.tau_frame)
        b = np.concatenate([b_back.ravel(), b_ahead.ravel()])
        self.b_range = (float(np.min(b, initial=np.inf)),
                        float(np.max(b, initial=-np.inf)))

    def values_at(self, s):
        """Frame states at parameters s (batched) via local quintic Lagrange."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        lo, hi = self.spec.window
        # NaN fails both comparisons, so it counts as outside
        if not np.all((s >= lo - 1e-9) & (s <= hi + 1e-9)):
            raise WindowExceeded(f"sample parameter outside the integration "
                                 f"window [{lo:g}, {hi:g}]")
        h = self.spec.step
        n = len(self.s_grid)
        base = np.clip(np.round((s - self.s_grid[0]) / h).astype(int) - 2,
                       0, n - 6)
        offsets = np.arange(6)
        idx = base[:, None] + offsets[None, :]
        nodes = self.s_grid[idx]                      # (m, 6)
        vals = self.states[idx]                       # (m, 6, 5, 4)
        diff = s[:, None] - nodes                     # (m, 6)
        exact = np.abs(diff) < 1e-13
        # barycentric weights for 6 uniformly spaced nodes
        w = np.array([1.0, -5.0, 10.0, -10.0, 5.0, -1.0])
        safe = np.where(exact, 1.0, diff)
        terms = w / safe                              # (m, 6)
        terms = np.where(exact, 0.0, terms)
        denom = terms.sum(axis=1)
        num = np.einsum('mk,mkij->mij', terms, vals)
        hit_any = exact.any(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = num / denom[:, None, None]
        if np.any(hit_any):
            rows, cols = np.nonzero(exact)
            out[rows] = vals[rows, cols]
        return out

    def taylor_at(self, s):
        """Values and s-derivatives to order 3 via the structure equations.

        Returns an array (m, 4, 5, 4): derivative order, then the five
        vectors (alpha, X, Y, Z, W), then Minkowski components.
        """
        s = np.atleast_1d(np.asarray(s, dtype=float))
        distinct, back = np.unique(s, return_inverse=True)
        F0 = self.values_at(distinct)
        # the order-k coefficient of B's jet in s is B^(k)/k!; only B
        # depends on s, so the k-th derivative of K holds -B^(k) where K
        # holds -B, and zeros elsewhere
        b = self.spec.b(jets.variable(1, distinct)).coeffs
        K0 = self.spec.coefficient_matrix(b[0])
        K1, K2 = np.zeros((2,) + K0.shape)
        for k, K in ((1, K1), (2, K2)):
            db = math.factorial(k) * b[jets.INDEX_OF[(k, 0, 0)]]
            K[..., 1, 3] = K[..., 3, 2] = -db
        F1 = K0 @ F0
        F2 = K1 @ F0 + K0 @ F1
        F3 = K2 @ F0 + 2.0 * (K1 @ F1) + K0 @ F2
        return np.stack([F0, F1, F2, F3], axis=1)[back]

    def component_jets(self, s):
        """The five frame vectors (alpha, X, Y, Z, W) as one jet in chart
        variable 1, of batch shape (5, 4, m): vector, component, point."""
        tay = self.taylor_at(s) / np.array([1.0, 1.0, 2.0, 6.0])[:, None, None]
        c = np.zeros((jets.N_COEFFS, 5, 4, len(tay)))
        c[[jets.INDEX_OF[(k, 0, 0)] for k in range(4)]] = tay.transpose(1, 2, 3, 0)
        return jets.Jet(c)
