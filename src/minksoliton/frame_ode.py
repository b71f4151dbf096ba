"""Moving pseudo-orthonormal frames along a null curve, and the ruled
hypersurfaces built from them.

The frame {X, Y, Z, W} satisfies <X,X> = <Y,Y> = 0, <X,Y> = -1,
<Z,Z> = <W,W> = 1 with all other pairs zero, and evolves by

    alpha' = X,   X' = -B(s) Z,   Y' = -a Z,   Z' = -a X - B(s) Y,   W' = 0.

Only alpha' and Z' are prescribed by the hypersurface class; the remaining
derivatives are the minimal completion that preserves every Gram relation
(each d/ds <.,.> cancels identically, which the tests verify).

Integration is classical fixed-step RK4 over a declared window.  The dense
state table is interpolated locally (degree-5 Lagrange) for values, and
s-derivatives up to order 3 come from the structure equations themselves,
so jet coefficients stay at integrator accuracy instead of amplifying node
roundoff through divided differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import jets
from .hypersurface import Immersion

GRAM_TARGET = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
])

MINK = np.diag([-1.0, 1.0, 1.0, 1.0])

DEFAULT_INITIAL_FRAME = np.array([
    [1.0, 1.0, 0.0, 0.0],     # X
    [0.5, -0.5, 0.0, 0.0],    # Y
    [0.0, 0.0, 1.0, 0.0],     # Z
    [0.0, 0.0, 0.0, 1.0],     # W
])


class StepTooLarge(ArithmeticError):
    """Gram drift of the integrated frame exceeded the declared tolerance."""


class WindowExceeded(ValueError):
    """Requested curve parameter lies outside the integration window."""


@dataclass(frozen=True)
class BFunction:
    """Scalar coefficient B(s) with the derivatives the jet lift needs."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]
    label: str = "B"

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda s: c + 0.0 * s, lambda s: 0.0 * s, lambda s: 0.0 * s,
                   label=f"{c:g}")

    @classmethod
    def offset_sin(cls, offset=2.0, amplitude=1.0):
        o, amp = float(offset), float(amplitude)
        return cls(lambda s: o + amp * np.sin(s),
                   lambda s: amp * np.cos(s),
                   lambda s: -amp * np.sin(s),
                   label=f"{o:g}+{amp:g}*sin(s)")


@dataclass
class FrameState:
    """Curve point and frame at one parameter value."""

    alpha: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    W: np.ndarray
    s: float = 0.0

    def frame_matrix(self):
        return np.stack([self.X, self.Y, self.Z, self.W])

    def gram_residual(self):
        F = self.frame_matrix()
        gram = F @ MINK @ F.T
        return float(np.max(np.abs(gram - GRAM_TARGET)))


@dataclass
class FrameODESpec:
    """Data of one null-curve frame system.

    ``a`` is the constant in Z' = -a X - B Y (nonzero for the generalized
    umbilical family, zero for the type-I cylinder); ``b`` must stay away
    from zero on the window.  ``alpha0`` shifts the curve's starting point,
    which matters because the soliton analysis reads the position vector.
    """

    a: float
    b: BFunction
    alpha0: np.ndarray = field(default_factory=lambda: np.zeros(4))
    window: tuple = (-1.0, 1.0)
    step: float = 1e-3
    tau_frame: float = 1e-6

    def __post_init__(self):
        self.alpha0 = np.asarray(self.alpha0, dtype=float)

    def require_b_nonzero(self):
        """The ruled constructions need B bounded away from zero."""
        lo, hi = self.window
        probe = np.linspace(lo, hi, 101)
        vals = np.array([self.b.value(s) for s in probe])
        if np.min(np.abs(vals)) < 1e-9 or vals.max() * vals.min() < 0.0:
            raise ValueError("B(s) must be bounded away from zero on the window")

    def initial_state(self):
        return FrameState(self.alpha0.copy(), *DEFAULT_INITIAL_FRAME.copy(),
                          s=0.0)

    def coefficient_matrix(self, s, order=0):
        """d^order/ds^order of the 5x5 system matrix acting on (alpha,X,Y,Z,W)."""
        K = np.zeros((5, 5))
        if order == 0:
            b = self.b.value(s)
            K[0, 1] = 1.0
            K[1, 3] = -b
            K[2, 3] = -self.a
            K[3, 1] = -self.a
            K[3, 2] = -b
        elif order == 1:
            db = self.b.d1(s)
            K[1, 3] = -db
            K[3, 2] = -db
        elif order == 2:
            d2b = self.b.d2(s)
            K[1, 3] = -d2b
            K[3, 2] = -d2b
        else:
            raise ValueError("coefficient matrix available to order 2 only")
        return K


def closed_frame_system(spec):
    """Right-hand side of the full first-order system on (alpha, X, Y, Z, W)."""

    def rhs(s, state):
        return spec.coefficient_matrix(s) @ state

    return rhs


def _rk4_step(rhs, s, state, h):
    k1 = rhs(s, state)
    k2 = rhs(s + 0.5 * h, state + 0.5 * h * k1)
    k3 = rhs(s + 0.5 * h, state + 0.5 * h * k2)
    k4 = rhs(s + h, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _state_array(spec):
    init = spec.initial_state()
    return np.vstack([init.alpha[None, :], init.frame_matrix()])


def _gram_residual_of(state):
    F = state[1:]
    return float(np.max(np.abs(F @ MINK @ F.T - GRAM_TARGET)))


def integrate_frame(spec, s, step=None):
    """Integrate from 0 to s with a fixed step; returns (FrameState, drift)."""
    step = spec.step if step is None else float(step)
    if step <= 0:
        raise ValueError("step must be positive")
    lo, hi = spec.window
    if s < lo - 1e-12 or s > hi + 1e-12:
        raise WindowExceeded(f"s={s} outside window [{lo}, {hi}]")
    rhs = closed_frame_system(spec)
    state = _state_array(spec)
    n = max(int(math.ceil(abs(s) / step - 1e-12)), 0)
    h = math.copysign(step, s) if s != 0.0 else step
    cur = 0.0
    drift = _gram_residual_of(state)
    for k in range(n):
        hk = h if (k < n - 1) else (s - cur)
        state = _rk4_step(rhs, cur, state, hk)
        cur += hk
        drift = max(drift, _gram_residual_of(state))
    if drift > spec.tau_frame:
        raise StepTooLarge(
            f"Gram drift {drift:.3e} exceeds tolerance {spec.tau_frame:.1e}; "
            "reduce the step")
    fs = FrameState(state[0], state[1], state[2], state[3], state[4], s=float(s))
    return fs, drift


class FrameTable:
    """Dense RK4 integration of the frame over the full window."""

    def __init__(self, spec):
        self.spec = spec
        lo, hi = spec.window
        step = spec.step
        rhs = closed_frame_system(spec)
        n_fwd = int(round(hi / step)) if hi > 0 else 0
        n_bwd = int(round(-lo / step)) if lo < 0 else 0
        states = {0: _state_array(spec)}
        drift = _gram_residual_of(states[0])
        cur = states[0]
        for k in range(n_fwd):
            cur = _rk4_step(rhs, k * step, cur, step)
            states[k + 1] = cur
            drift = max(drift, _gram_residual_of(cur))
        cur = states[0]
        for k in range(n_bwd):
            cur = _rk4_step(rhs, -k * step, cur, -step)
            states[-(k + 1)] = cur
            drift = max(drift, _gram_residual_of(cur))
        self.s_grid = np.array([k * step for k in range(-n_bwd, n_fwd + 1)])
        self.states = np.stack([states[k] for k in range(-n_bwd, n_fwd + 1)])
        self.max_drift = drift
        if drift > spec.tau_frame:
            raise StepTooLarge(
                f"Gram drift {drift:.3e} exceeds tolerance "
                f"{spec.tau_frame:.1e}")

    def values_at(self, s):
        """Frame states at parameters s (batched) via local quintic Lagrange."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        lo, hi = self.spec.window
        if np.any(s < lo - 1e-9) or np.any(s > hi + 1e-9):
            raise WindowExceeded("sample parameter outside the integration window")
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
        F0 = self.values_at(s)
        distinct, back = np.unique(s, return_inverse=True)
        K0, K1, K2 = (np.stack([self.spec.coefficient_matrix(t, k) for t in distinct])[back]
                      for k in range(3))
        F1 = K0 @ F0
        F2 = K1 @ F0 + K0 @ F1
        F3 = K2 @ F0 + 2.0 * (K1 @ F1) + K0 @ F2
        return np.stack([F0, F1, F2, F3], axis=1)

    def component_jets(self, s):
        """The five frame vectors as 4-tuples of jets in chart variable 1."""
        tay = self.taylor_at(s) / np.array([1.0, 1.0, 2.0, 6.0])[:, None, None]
        c = np.zeros((5, 4, jets.N_COEFFS, len(tay)))
        c[:, :, [jets.INDEX_OF[(k, 0, 0)] for k in range(4)]] = tay.transpose(2, 3, 1, 0)
        return [[jets.Jet(c[vec, mu]) for mu in range(4)] for vec in range(5)]


_TABLE_CACHE = {}


def _table_for(spec):
    key = (spec.a, spec.b.label, tuple(spec.alpha0), spec.window, spec.step)
    tab = _TABLE_CACHE.get(key)
    if tab is None:
        tab = FrameTable(spec)
        _TABLE_CACHE[key] = tab
    return tab


def build_generalized_umbilical(spec, v_margin=1e-2):
    """Ruled hypersurface x = alpha + u Y + v W + (sqrt(1/a^2 - v^2) + 1/a) Z.

    Requires a != 0.  The offset +1/a (rather than -1/a) is what makes the
    stated frame system consistent with the closed-form unit normal
    N = -a u Y - sqrt(1 - a^2 v^2) Z - a v W; with the opposite offset no
    Gram-preserving frame completion admits that normal.  The shape operator
    then satisfies A x_s = a x_s + B x_u, A x_u = a x_u, A x_v = a x_v, so
    its minimal polynomial is (t - a)^2 wherever B != 0.
    """
    if spec.a == 0.0:
        raise ValueError("generalized umbilical hypersurface needs a != 0")
    spec.require_b_nonzero()
    table = _table_for(spec)
    a = spec.a
    vmax = (1.0 / abs(a)) * (1.0 - v_margin)

    def chart(js, ju, jv):
        frame = table.component_jets(js.value)
        alpha, X, Y, Z, W = frame
        psi = (jets.sqrt(1.0 - (a * jv) * (a * jv)) + 1.0) / a
        return [alpha[m] + ju * Y[m] + jv * W[m] + psi * Z[m] for m in range(4)]

    lo, hi = spec.window
    dom = ((lo, hi), (-2.0, 2.0), (-vmax, vmax))
    label = f"generalized_umbilical(a={a:g}, B={spec.b.label})"
    return Immersion(label, chart, dom)


def build_generalized_cylinder_I(spec):
    """Ruled hypersurface x = alpha + u Y + v W over a frame with a = 0."""
    if spec.a != 0.0:
        raise ValueError("type-I generalized cylinder needs a = 0")
    spec.require_b_nonzero()
    table = _table_for(spec)

    def chart(js, ju, jv):
        frame = table.component_jets(js.value)
        alpha, X, Y, Z, W = frame
        return [alpha[m] + ju * Y[m] + jv * W[m] for m in range(4)]

    lo, hi = spec.window
    dom = ((lo, hi), (-2.0, 2.0), (-2.0, 2.0))
    label = f"generalized_cylinder_I(B={spec.b.label})"
    return Immersion(label, chart, dom)
