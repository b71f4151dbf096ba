"""Small arithmetic expression language for user-supplied charts.

Grammar (documented in the README):

    expr   := term (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are chart variables (u, v, w), user parameters, or the functions
sin, cos, sinh, cosh, sqrt.  Expressions evaluate over jets or plain
numpy scalars/arrays with the same AST, so the same source serves both
the chart pipeline and finite-difference cross-checks.

A chart file may declare ``B = <expr in s and parameters>``.  Its
component expressions then also read the 20 frame components (FRAME) of
frame_ode.py, integrated for that B(s) and the parameter a, as jets in the
curve parameter s = u.
"""

from __future__ import annotations

import re
from collections import namedtuple

import numpy as np

from . import frame_ode, jets
from .hypersurface import Immersion

FUNCTIONS = {
    "sin": (jets.sin, np.sin),
    "cos": (jets.cos, np.cos),
    "sinh": (jets.sinh, np.sinh),
    "cosh": (jets.cosh, np.cosh),
    "sqrt": (jets.sqrt, np.sqrt),
}

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class ParseError(ValueError):
    """Malformed expression text."""


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot tokenize at {text[pos:pos+10]!r}")
        num, name, sym = m.groups()
        if num is not None:
            tokens.append(("num", float(m.group(0))))
        elif name is not None:
            tokens.append(("name", name))
        elif sym.strip():
            if sym not in "+-*/^()":
                raise ParseError(f"unexpected character {sym!r}")
            tokens.append(("op", sym))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


_OUTSIDE = {"=": (np.equal, "zero"), "<": (np.less, "a negative number")}


def _check_domain(node, value, what, relation):
    """Raise ``DomainError`` if ``value``, the plain number or array that
    ``node`` evaluated to, holds an entry x with x ``relation`` 0; the
    message names a parameter."""
    outside, noun = _OUTSIDE[relation]
    if not isinstance(value, jets.Jet) and np.any(outside(value, 0.0)):
        name = f"{node.payload!r} {relation} 0" if node.kind == "var" else noun
        raise jets.DomainError(f"{what} {name}")


class Expr:
    """AST node; ``eval`` dispatches on jets versus plain numerics."""

    def __init__(self, kind, payload, children=()):
        self.kind = kind
        self.payload = payload
        self.children = tuple(children)

    def eval(self, env):
        k = self.kind
        if k == "num":
            return self.payload
        if k == "var":
            try:
                return env[self.payload]
            except KeyError:
                raise ParseError(f"unknown name {self.payload!r}") from None
        a = self.children[0].eval(env)
        if k == "neg":
            return -a
        if k == "call":
            jet_fn, num_fn = FUNCTIONS[self.payload]
            if self.payload == "sqrt":
                _check_domain(self.children[0], a, "sqrt of", "<")
            return jet_fn(a) if isinstance(a, jets.Jet) else num_fn(a)
        b = self.children[1].eval(env)
        if k == "+":
            return a + b
        if k == "-":
            return a - b
        if k == "*":
            return a * b
        if k == "/":
            _check_domain(self.children[1], b, "division by", "=")
            return a / b
        if k == "^":
            if isinstance(b, jets.Jet):
                raise ParseError("exponent must be a constant")
            if b < 0:
                _check_domain(self.children[0], a, "negative power of", "=")
            b = int(b) if float(b).is_integer() else float(b)
            if isinstance(b, float):
                _check_domain(self.children[0], a, "real power of", "<")
            if isinstance(a, jets.Jet):
                return a ** b
            with np.errstate(over="ignore"):  # to inf, as a product does
                return np.float64(a) ** b
        raise ParseError(f"unknown node kind {k!r}")

    def names(self):
        if self.kind == "var":
            return {self.payload}
        out = set()
        for ch in self.children:
            out |= ch.names()
        return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, sym):
        kind, val = self.next()
        if kind != "op" or val != sym:
            raise ParseError(f"expected {sym!r}, found {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input at {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.next()
            node = Expr(op, None, (node, self.term()))
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.next()
            node = Expr(op, None, (node, self.unary()))
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.next()
            return Expr("neg", None, (self.unary(),))
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            node = Expr("^", None, (node, self.unary()))
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return Expr("num", val)
        if kind == "name":
            if self.peek() == ("op", "("):
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}")
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Expr("call", val, (arg,))
            return Expr("var", val)
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val!r}")


def parse(text):
    return _Parser(_tokenize(text)).parse()


Chart = namedtuple("Chart", "components b")


def parse_chart_file(text):
    """The Chart of chart-file text: its four component expressions, in the
    order of their labels, and its declaration of B, or None.

    Component lines are ``xK = expr`` for K = 1..4, each label once, or
    four bare expressions in order; ``B = expr`` declares B(s).  ``#``
    starts a comment.
    """
    labelled, bare = {}, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(x[1-4]|B)\s*=\s*(.+)$", line)
        if m is None:
            bare.append(parse(line))
        elif m.group(1) in labelled:
            raise ParseError(f"chart file gives {m.group(1)} twice")
        else:
            labelled[m.group(1)] = parse(m.group(2))
    b = labelled.pop("B", None)
    if labelled and bare:
        raise ParseError("chart file mixes labelled and bare component lines")
    components = bare or [labelled[k] for k in sorted(labelled)]
    if len(components) != 4:
        raise ParseError(f"chart file must hold 4 component expressions, "
                         f"found {len(components)}")
    return Chart(components, b)


VARIABLES = ("u", "v", "w")  # the chart coordinates, in argument order
# the frame vectors' components, read by a chart that declares B
FRAME = tuple(f"{vector}{k}" for vector in ("alpha", "X", "Y", "Z", "W")
              for k in range(1, 5))
RESERVED = VARIABLES + ("s",) + FRAME


def _like(value, like):
    """``value`` as a jet or an array of the shape of ``like``, which is a
    jet or an array: a plain number broadcasts."""
    if isinstance(like, jets.Jet):
        return (value if isinstance(value, jets.Jet)
                else jets.constant(value, like.shape))
    return np.broadcast_to(value, np.shape(like))


def b_function(b, parameters):
    """B(s) of the declaration ``b`` at ``parameters``, on arrays and on
    jets of s."""
    return lambda s: _like(b.eval({**parameters, "s": s}), s)


def _frame_table(b, parameters):
    """The frame table of the system with this B and the parameter a,
    whose B stays away from zero at every node and stage the steps read."""
    if "a" not in parameters:
        raise ParseError("a chart that declares B needs the parameter a")
    table = frame_ode.FrameTable(frame_ode.FrameODESpec(
        float(parameters["a"]), b_function(b, parameters)))
    lo, hi = table.b_range
    if not (lo >= 1e-9 or hi <= -1e-9):  # a NaN fails closed
        raise ValueError("B(s) must be bounded away from zero on the window")
    return table


def chart_immersion(name, chart, parameters):
    """The Immersion ``name`` of the Chart ``chart`` at ``parameters``,
    evaluating its four expressions on jets.  No parameter may take a name
    of RESERVED.  A chart that declares B is integrated: each evaluation
    reads the frame components at s = u off one FrameTable."""
    components, b = chart
    taken = sorted(set(RESERVED) & set(parameters))
    if taken:
        raise ParseError(f"parameters named after chart variables or frame "
                         f"components: {taken}")
    frame = set(FRAME) if b is not None else set()
    missing = (set().union(*(e.names() for e in components))
               - set(VARIABLES) - set(parameters) - frame)
    if b is not None:
        missing |= b.names() - {"s"} - set(parameters)
    if missing:
        raise ParseError(f"undefined names in chart expressions: "
                         f"{sorted(missing)}")
    table = None if b is None else _frame_table(b, parameters)

    def chart_map(ju, jv, jw):
        env = {"u": ju, "v": jv, "w": jw}
        env.update(parameters)
        if table is not None:
            vectors = table.component_jets(ju.value)
            env.update(zip(FRAME, (vectors[k // 4, k % 4]
                                   for k in range(len(FRAME)))))
        return [_like(e.eval(env), ju) for e in components]

    return Immersion(name, chart_map, integrated=table is not None)


def immersion_from_file(path, parameters=None):
    with open(path, "r", encoding="utf-8") as fh:
        chart = parse_chart_file(fh.read())
    return chart_immersion(str(path), chart, dict(parameters or {}))
