"""Per-layer tracing from outside the program.

The tracer wraps public functions and methods of each minksoliton module,
records one span per call (name, start, end, parent span, op id) and sums
calls and self time per layer name.  A layer's self time is its span's
duration minus the time of the spans it directly encloses.  Names bound by
``from .x import y`` are patched in every module that holds them, methods on
their class; ``restore`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Degree-3 jets in three variables: C(3+3, 3) = 20 coefficients, and
# C(3+6, 6) = 84 coefficient pairs whose degrees sum to at most 3.  Each
# jet-by-jet multiply forms one product per pair and point.
N_COEFFS = 20
N_PAIRS = 84

# Layers recorded as spans: metric prefix -> (module, attribute path) targets.
SPANS = {
    "jets.mul": [("jets", "Jet.__mul__"), ("jets", "Jet.__rmul__")],
    "jets.div": [("jets", "Jet.__truediv__"), ("jets", "Jet.__rtruediv__")],
    "jets.sqrt": [("jets", "sqrt")],
    "jets.deriv": [("jets", "Jet.deriv")],
    "hypersurface.geometry": [("hypersurface", "GeometryBatch.__init__")],
    "hypersurface.values": [
        ("hypersurface", f"GeometryBatch.{m}") for m in (
            "point_values", "tangent_values", "metric", "metric_inverse",
            "normal_values", "shape_values", "christoffel_values",
            "tangent_position_values")],
    "hypersurface.identities": [("hypersurface", "identity_diagnostics"),
                                ("hypersurface", "codazzi_residual_batch")],
    "hypersurface.classify_structure": [("hypersurface", "classify_structure")],
    "lorentz.classify": [("lorentz", "classify_shape_operator")],
    "lorentz.minimal_polynomial": [("lorentz", "minimal_polynomial")],
    "soliton.fit_lambda": [("soliton", "fit_lambda_from_geometry")],
    "frame_ode.table_build": [("frame_ode", "FrameTable.__init__")],
    "frame_ode.component_jets": [("frame_ode", "FrameTable.component_jets")],
    "catalog.build": [("catalog", "CatalogEntry.build")],
    "exprs.parse": [("exprs", "parse")],
    "exprs.eval": [("exprs", "Expr.eval")],
    "canonical.sweep": [("canonical", "sweep")],
    "canonical.solve_case": [("canonical", "solve_case")],
    "canonical.build_case_system": [("canonical", "build_case_system")],
    "analysis.analyze": [("analysis", "analyze_entry"),
                         ("analysis", "analyze_immersion")],
    "analysis.classification_block": [("analysis", "_classification_block")],
    "analysis.pointwise_table": [("analysis", "pointwise_table")],
    "cli.main": [("cli", "main")],
    "cli.dump_json": [("cli", "dump_json")],
    "cli.text_report": [("cli", "_text_report")],
}

# Layers whose calls are only counted; their time stays in the caller's span.
COUNTS = {
    "hypersurface.ricci_intrinsic": [("hypersurface", "ricci_intrinsic_batch")],
    "soliton.route_agreement": [("soliton", "route_agreement_batch")],
    "soliton.lemma1": [("soliton", "lemma1_batch")],
    "frame_ode.builder": [("frame_ode", "build_generalized_umbilical"),
                          ("frame_ode", "build_generalized_cylinder_I")],
    "canonical.consistency_residual": [("canonical", "consistency_residual")],
}

# The per-layer metrics, in BENCHMARK.json order: (name, unit, better).
PER_LAYER = [
    ("jets.mul.calls", "calls/op", "lower"),
    ("jets.mul.self_s", "s/op", "lower"),
    ("jets.mul.products_computed", "products/op", "lower"),
    ("jets.mul.bytes_computed", "B/op", "lower"),
    ("jets.div.calls", "calls/op", "lower"),
    ("jets.div.self_s", "s/op", "lower"),
    ("jets.sqrt.self_s", "s/op", "lower"),
    ("jets.deriv.calls", "calls/op", "lower"),
    ("jets.deriv.self_s", "s/op", "lower"),
    ("hypersurface.geometry.calls", "calls/op", "lower"),
    ("hypersurface.geometry.self_s", "s/op", "lower"),
    ("hypersurface.geometry_per_analysis", "calls/analysis", "lower"),
    ("hypersurface.values.calls", "calls/op", "lower"),
    ("hypersurface.values.self_s", "s/op", "lower"),
    ("hypersurface.identities.self_s", "s/op", "lower"),
    ("hypersurface.ricci_intrinsic.calls", "calls/op", "lower"),
    ("hypersurface.classify_structure.self_s", "s/op", "lower"),
    ("lorentz.classify.calls", "calls/op", "lower"),
    ("lorentz.classify.self_s", "s/op", "lower"),
    ("lorentz.minimal_polynomial.calls", "calls/op", "lower"),
    ("lorentz.minimal_polynomial.self_s", "s/op", "lower"),
    ("lorentz.ambiguous_share", "ratio", "lower"),
    ("soliton.fit_lambda.calls", "calls/op", "lower"),
    ("soliton.fit_lambda.self_s", "s/op", "lower"),
    ("soliton.route_agreement.per_analysis", "calls/analysis", "lower"),
    ("soliton.lemma1.calls", "calls/op", "lower"),
    ("frame_ode.table_build.calls", "calls/op", "lower"),
    ("frame_ode.table_build.self_s", "s/op", "lower"),
    ("frame_ode.table_hit_ratio", "ratio", "higher"),
    ("frame_ode.component_jets.self_s", "s/op", "lower"),
    ("catalog.build.self_s", "s/op", "lower"),
    ("exprs.parse.calls", "calls/op", "lower"),
    ("exprs.parse.self_s", "s/op", "lower"),
    ("exprs.eval.self_s", "s/op", "lower"),
    ("canonical.sweep.self_s", "s/op", "lower"),
    ("canonical.solve_case.calls", "calls/op", "lower"),
    ("canonical.solve_case.self_s", "s/op", "lower"),
    ("canonical.build_case_system.self_s", "s/op", "lower"),
    ("canonical.consistency_residual.calls", "calls/op", "lower"),
    ("canonical.misclassifications", "count/op", "lower"),
    ("analysis.analyze.calls", "calls/op", "lower"),
    ("analysis.analyze.self_s", "s/op", "lower"),
    ("analysis.classification_block.self_s", "s/op", "lower"),
    ("analysis.pointwise_table.calls", "calls/op", "lower"),
    ("analysis.pointwise_table.self_s", "s/op", "lower"),
    ("cli.main.self_s", "s/op", "lower"),
    ("cli.dump_json.self_s", "s/op", "lower"),
    ("cli.text_report.self_s", "s/op", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.self_coverage", "ratio", "higher"),
]


PACKAGE = "minksoliton"


def _resolve(module, path):
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = list(SPANS) + list(COUNTS)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.missing = []
        self._patched = []
        self._wrappers = []
        self._stack = []   # open spans: [span index, layer, child time]
        self.op = -1
        # Spans stay in memory as flat columns and are saved when the run ends.
        self.span_layer = array("q")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- wrappers ------------------------------------------------------------

    def _span(self, layer, fn, observe=None):
        lid = self.names.index(layer)
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            # A layer calling itself (Expr.eval recursion, analyze_entry into
            # analyze_immersion) stays one span of that layer.
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            index = len(self.span_layer)
            self.span_layer.append(lid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [index, layer, 0.0]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[2]
                calls[layer] += 1
                if stack:
                    stack[-1][2] += duration
                self.span_start[index] = start
                self.span_end[index] = end
                if observe is not None:
                    observe(args, result, exc)

        return wrapped

    def _count(self, layer, fn):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapped

    def _observe_mul(self, args, result, exc):
        if exc is None and len(args) == 2 and type(args[1]) is type(args[0]):
            products = result.coeffs.size // N_COEFFS * N_PAIRS
            self.counters["jets.mul.products"] += products
            self.counters["jets.mul.bytes"] += 8 * products

    def _observe_classify(self, args, result, exc):
        if type(exc).__name__ == "AmbiguousClassification":
            self.counters["lorentz.ambiguous"] += 1

    def _observe_sweep(self, args, result, exc):
        if exc is None:
            self.counters["canonical.misclassifications"] += \
                result.misclassifications

    # -- patching ------------------------------------------------------------

    def install(self):
        observers = {"jets.mul": self._observe_mul,
                     "lorentz.classify": self._observe_classify,
                     "canonical.sweep": self._observe_sweep}
        for table, make in ((SPANS, None), (COUNTS, self._count)):
            for layer, targets in table.items():
                for module, path in targets:
                    try:
                        owner, attr = _resolve(module, path)
                        original = getattr(owner, attr)
                    except (KeyError, AttributeError):
                        self.missing.append(f"{module}.{path}")
                        continue
                    if original in self._wrappers:
                        continue  # an alias of a target already wrapped
                    if make is None:
                        wrapper = self._span(layer, original,
                                             observers.get(layer))
                    else:
                        wrapper = make(layer, original)
                    self._wrappers.append(wrapper)
                    self._replace(owner, attr, original, wrapper)

    def _replace(self, owner, attr, original, wrapper):
        if isinstance(owner, type):
            # Aliases on the class (__rmul__ = __mul__) share one wrapper.
            holders = [owner]
        else:
            holders = [m for name, m in list(sys.modules.items())
                       if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._patched.append((holder, name, original))
                    setattr(holder, name, wrapper)

    def restore(self):
        while self._patched:
            holder, name, original = self._patched.pop()
            setattr(holder, name, original)

    # -- results -------------------------------------------------------------

    def save(self, path):
        np.savez_compressed(
            path, layer_names=np.array(self.names),
            layer=np.frombuffer(self.span_layer, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            op=np.frombuffer(self.span_op, dtype=np.int64),
            start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))

    def metrics(self, n_ops, op_wall_s, overhead_share):
        """Per-layer metrics, each a mean over the traced ops."""
        calls, self_s, cnt = self.calls, self.self_s, self.counters
        analyses = calls["analysis.analyze"]
        builders = calls["frame_ode.builder"]
        classify = calls["lorentz.classify"]

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "jets.mul.products_computed": cnt["jets.mul.products"] / n_ops,
            "jets.mul.bytes_computed": cnt["jets.mul.bytes"] / n_ops,
            "hypersurface.geometry_per_analysis":
                ratio(calls["hypersurface.geometry"], analyses),
            "lorentz.ambiguous_share": ratio(cnt["lorentz.ambiguous"], classify),
            "soliton.route_agreement.per_analysis":
                ratio(calls["soliton.route_agreement"], analyses),
            "frame_ode.table_hit_ratio":
                ratio(builders - calls["frame_ode.table_build"], builders),
            "canonical.misclassifications":
                cnt["canonical.misclassifications"] / n_ops,
            "trace.overhead_share": overhead_share,
            "trace.self_coverage": ratio(sum(self_s.values()), op_wall_s),
        }
        out = {}
        for name, unit, _ in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = calls[name[:-len(".calls")]] / n_ops
            else:
                value = self_s[name[:-len(".self_s")]] / n_ops
            out[name] = {"value": value, "unit": unit}
        return out
