"""The benchmark's workloads: inputs drawn from a seed, the timed call of
each operation, and the checks that every output must pass.

A workload hands out its operations in cycles.  One cycle holds every kind
of operation the workload mixes, in an order the seed shuffles, so a run
that stops on a cycle boundary always measures the same mix of work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass
from typing import Callable

# Closed-form tolerance of the soliton fit for hyperbolic_space and
# de_sitter; held here so the check does not trust the program's own value.
TAU_SOL_CLOSED = 1e-6

# Whether a case-system draw is solvable, by the kind of draw
# (Magid's four canonical forms; only repeated eigenvalues can balance).
SOLVABLE_BY_KIND = {
    "umbilical": True, "two_equal": True, "distinct": False,
    "complex": False, "equal": True, "jordan3": False,
}

# Held here rather than read from catalog.ENTRIES, so a change to the
# program cannot change the workload.
CATALOG = ("de_sitter", "generalized_cylinder_I", "generalized_umbilical",
           "generalized_umbilical_varB", "graph_lorentzian", "graph_spacelike",
           "hyperbolic_cylinder", "hyperbolic_space", "pseudospherical_cylinder")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    label: str
    items: int                      # grid points or draws the op processes
    call: Callable[[], object]      # the timed call
    check: Callable[[object], None]  # raises CheckFailed on a wrong output


def expected_soliton(entry, params):
    """(verdict, lambda or None) a correct analysis must report."""
    c = params.get("c", 1.0)
    if entry == "hyperbolic_space":
        return "expanding", -2.0 * c * c
    if entry == "de_sitter":
        return "shrinking", 2.0 * c * c
    if entry == "pseudospherical_cylinder" and c == 1.0:
        return "shrinking", None
    return "not_a_soliton", None


def check_soliton(verdict, lam, expect):
    want_verdict, want_lam = expect
    if verdict != want_verdict:
        raise CheckFailed(f"verdict {verdict!r}, expected {want_verdict!r}")
    if want_lam is not None and not abs(lam - want_lam) <= TAU_SOL_CLOSED:
        raise CheckFailed(f"lambda_fit {lam!r}, expected {want_lam!r}")


def _cli_call(cli, argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = cli.main(argv)
        return rc, err.getvalue()
    return call


def _exit_ok(rc, err):
    if rc != 0:
        raise CheckFailed(f"exit code {rc}: {err.strip()[-300:]}")


# -- analyze_fine ---------------------------------------------------------------

class AnalyzeFine:
    """Library analyses at 21^3 points: big arrays, few calls."""

    entries = ("hyperbolic_space", "generalized_umbilical_varB",
               "graph_lorentzian")
    grid = (21, 21, 21)

    def __init__(self, ms, workdir):
        self.ms = ms

    def cycle(self, rng):
        order = list(self.entries)
        rng.shuffle(order)
        return [self._op(name) for name in order]

    def _op(self, name):
        ms, grid = self.ms, self.grid
        n_points = grid[0] * grid[1] * grid[2]
        params = dict(ms.catalog.get(name).defaults)

        def check(report):
            if report["identities"]["pass"] is not True:
                raise CheckFailed("identity checks failed")
            if report["grid"]["n_points"] != n_points:
                raise CheckFailed(f"{report['grid']['n_points']} points")
            sol = report["soliton"]
            check_soliton(sol["verdict"], sol["lambda_fit"],
                          expected_soliton(name, params))

        return Op(f"analyze_entry {name}", n_points,
                  lambda: ms.analysis.analyze_entry(name, None, grid), check)


# -- analyze_mix ----------------------------------------------------------------

# Chart files are graphs x4 = f(u, v, w) over the Lorentzian coordinate
# 3-plane.  Their normal is (f_u, -f_v, -f_w, 1) with squared norm
# 1 - f_u^2 + f_v^2 + f_w^2, and f_u = 2 k u, so |k| <= K_MAX on the box
# |u| <= CHART_HALF_WIDTH keeps that norm >= 1 - (2 K_MAX HALF)^2 > 0: the
# normal is spacelike on the whole box and the metric never degenerates.
CHART_HALF_WIDTH = 0.3
K_MAX = 1.4
CHART_TEXT = ("# generated test chart\n"
              "x1 = u\nx2 = v\nx3 = w\n"
              "x4 = k*u^2 + {q2!r}*v^2 + {q3!r}*w^2 + {q4!r}*sin(v)*w\n")
CHART_SLOTS = 3   # chart-file targets per cycle, next to the 9 catalog entries
FORMATS = ("text", "json", "csv")
MIX_POINTS = 125  # the CLI's default 5,5,5 grid


def _signed(rng, lo, hi):
    return rng.uniform(lo, hi) * rng.choice((-1.0, 1.0))


class AnalyzeMix:
    """CLI analyses at the default 5^3 grid: many small calls."""

    entries = CATALOG

    def __init__(self, ms, workdir):
        self.ms = ms
        self.workdir = workdir
        self.out = str(workdir / "report.out")

    def cycle(self, rng):
        targets = list(self.entries) + [None] * CHART_SLOTS
        pairs = [(t, f) for t in targets for f in FORMATS]
        rng.shuffle(pairs)
        ops = []
        for k, (target, fmt) in enumerate(pairs):
            if target is None:
                ops.append(self._chart_op(rng, k, fmt))
            else:
                ops.append(self._entry_op(rng, target, fmt))
        return ops

    def _entry_op(self, rng, name, fmt):
        defaults = self.ms.catalog.get(name).defaults
        # Fresh parameters per op, so every frame-ODE op misses the
        # frame-table cache as a new CLI process would.
        params = {k: rng.uniform(0.5, 2.0) for k in ("c", "a", "b_const")
                  if k in defaults}
        argv = ["analyze", "--entry", name]
        for k, v in params.items():
            argv += ["--param", f"{k}={v!r}"]
        return self._op(argv, fmt, f"analyze {name} {fmt}",
                        expected_soliton(name, params))

    def _chart_op(self, rng, slot, fmt):
        path = self.workdir / f"chart_{slot}.txt"
        path.write_text(CHART_TEXT.format(q2=_signed(rng, 0.2, 2.0),
                                          q3=_signed(rng, 0.2, 2.0),
                                          q4=rng.uniform(-1.0, 1.0)))
        k = _signed(rng, 0.2, K_MAX)
        h = CHART_HALF_WIDTH
        argv = ["analyze", "--entry", str(path),
                "--param", f"k={k!r}", f"--box=-{h}:{h},-{h}:{h},-{h}:{h}"]
        return self._op(argv, fmt, f"analyze chart {fmt}",
                        ("not_a_soliton", None))

    def _op(self, argv, fmt, label, expect):
        call = _cli_call(self.ms.cli, argv + ["--format", fmt, "--out", self.out])

        def check(result):
            _exit_ok(*result)
            with open(self.out, encoding="utf-8") as fh:
                text = fh.read()
            CHECK_REPORT[fmt](text, expect)

        return Op(label, MIX_POINTS, call, check)


_HEADLINE = re.compile(r"^soliton \(headline corrected\): verdict=(\S+) "
                       r"lambda=(\S+) ", re.MULTILINE)


def _check_text(text, expect):
    m = _HEADLINE.search(text)
    if m is None:
        raise CheckFailed("text report has no corrected headline")
    check_soliton(m.group(1), float(m.group(2)), expect)
    if "grid: 5x5x5 over" not in text:
        raise CheckFailed("text report lacks the 5x5x5 grid line")


def _check_json(text, expect):
    report = json.loads(text)
    if json.dumps(report, indent=2) + "\n" != text:
        raise CheckFailed("JSON report does not re-serialise byte-identically")
    if report["grid"]["n_points"] != MIX_POINTS:
        raise CheckFailed(f"{report['grid']['n_points']} points")
    sol = report["soliton"]
    if sol["headline_mode"] != "corrected":
        raise CheckFailed(f"headline mode {sol['headline_mode']!r}")
    check_soliton(sol["verdict"], sol["lambda_fit"], expect)


def _check_csv(text, expect):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    if len(body) != MIX_POINTS:
        raise CheckFailed(f"CSV has {len(body)} rows, expected {MIX_POINTS}")
    if any(len(r) != len(header) for r in body):
        raise CheckFailed("CSV rows differ in length from the header")
    values = [[float(x) for x in r] for r in body]
    if not all(math.isfinite(x) for r in values for x in r):
        raise CheckFailed("CSV holds a non-finite value")
    want_lam = expect[1]
    if want_lam is not None:
        col = header.index("lambda_corrected")
        lam = sum(r[col] for r in values) / len(values)
        if not abs(lam - want_lam) <= TAU_SOL_CLOSED:
            raise CheckFailed(f"mean lambda_corrected {lam!r}, "
                              f"expected {want_lam!r}")


CHECK_REPORT = {"text": _check_text, "json": _check_json, "csv": _check_csv}


# -- case_sweep -----------------------------------------------------------------

SWEEP_FORMS = ("diagonalizable", "complex_pair", "jordan2", "jordan3")
SWEEP_COUNT = 10000


class CaseSweep:
    """Randomized solvability sweeps of the four canonical forms."""

    entries = ()

    def __init__(self, ms, workdir):
        self.ms = ms
        self.out = str(workdir / "sweep.out")

    def cycle(self, rng):
        pairs = [(f, fmt) for f in SWEEP_FORMS for fmt in ("csv", "json")]
        rng.shuffle(pairs)
        return [self._op(form, fmt, rng.randrange(2 ** 31))
                for form, fmt in pairs]

    def _op(self, form, fmt, seed):
        # The CLI default --epsilon both runs diagonalizable twice.
        n_rows = SWEEP_COUNT * (2 if form == "diagonalizable" else 1)
        argv = ["case-sweep", "--form", form, "--count", str(SWEEP_COUNT),
                "--seed", str(seed), "--format", fmt, "--out", self.out]

        def check(result):
            rc, err = result
            _exit_ok(rc, err)
            if "warning" in err:
                raise CheckFailed(err.strip())
            with open(self.out, encoding="utf-8") as fh:
                if fmt == "json":
                    payload = json.load(fh)
                    if payload["misclassifications"] != 0:
                        raise CheckFailed(f"{payload['misclassifications']} "
                                          "misclassifications")
                    rows = [(r["kind"], r["solvable"]) for r in payload["rows"]]
                else:
                    reader = csv.DictReader(fh)
                    rows = [(r["kind"], {"True": True, "False": False}
                             .get(r["solvable"])) for r in reader]
            if len(rows) != n_rows:
                raise CheckFailed(f"{len(rows)} rows, expected {n_rows}")
            wrong = sum(SOLVABLE_BY_KIND.get(kind) is not solvable
                        for kind, solvable in rows)
            if wrong:
                raise CheckFailed(f"{wrong} rows contradict their kind")

        return Op(f"case-sweep {form} {fmt}", n_rows,
                  _cli_call(self.ms.cli, argv), check)


WORKLOADS = {"analyze_fine": AnalyzeFine, "analyze_mix": AnalyzeMix,
             "case_sweep": CaseSweep}
