"""Command-line entry point.

Three subcommands:

* ``analyze``    -- run the full identity/classification/soliton analysis on
                    a catalog entry or a user chart file;
* ``case-sweep`` -- randomized solvability sweep of one canonical form;
* ``list``       -- print the catalog manifest.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when the
universal identity checks fail.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import analysis, canonical, catalog, exprs
from .lorentz import FormVariant


def _fmt_float(x):
    return float(f"{x:.12g}")


def round_floats(obj):
    """12-significant-digit canonicalization, so reports re-serialize
    byte-identically after a JSON round trip."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def dump_json(report):
    return json.dumps(round_floats(report), indent=2) + "\n"


class UsageError(ValueError):
    pass


def _parse_params(items, defaults=None):
    """``--param`` values as floats.  Given a catalog entry's ``defaults``,
    a name the entry lacks keeps a value that is not a number, for the
    entry to report."""
    out = {}
    for item in items or []:
        if "=" not in item:
            raise UsageError(f"--param expects name=value, got {item!r}")
        k, v = item.split("=", 1)
        k = k.strip()
        try:
            out[k] = value = float(v)
        except ValueError:
            if defaults is None or k in defaults:
                raise UsageError(
                    f"--param {k} must be a number, got {v!r}") from None
            out[k] = v.strip()
        else:
            if not math.isfinite(value):
                raise UsageError(f"--param {k} must be finite, got {v!r}")
    return out


def _parse_grid(text):
    try:
        counts = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise UsageError(f"--grid expects N,N,N, got {text!r}") from None
    if len(counts) != 3:
        raise UsageError("--grid expects exactly three counts")
    if any(c < 2 for c in counts):
        raise UsageError("grid needs at least 2 samples per axis")
    return counts


CHART_BOX = ((-0.5, 0.5),) * 3  # sampling box of a chart file without --box


def _parse_box(text):
    box = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise UsageError(f"--box expects lo:hi,lo:hi,lo:hi, got {text!r}")
        try:
            lo, hi = float(bits[0]), float(bits[1])
        except ValueError:
            raise UsageError(
                f"--box bounds must be numbers, got {part!r}") from None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"--box bounds must be finite, got {part!r}")
        if not lo < hi:
            raise UsageError(f"--box intervals need lo < hi, got {part!r}")
        box.append((lo, hi))
    if len(box) != 3:
        raise UsageError("--box expects three intervals")
    return tuple(box)


@contextlib.contextmanager
def _output(out_path):
    """Standard output for ``-`` or no path, else ``out_path`` opened for
    writing.  An ``OSError`` from the open or from a write is a usage
    error; what was written before it stays written."""
    try:
        if not out_path or out_path == "-":
            yield sys.stdout
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                yield fh
    except OSError as err:
        raise UsageError(f"cannot write report to {out_path!r}: {err}")


# -- analyze -------------------------------------------------------------------

def _text_report(report):
    lines = []
    lines.append(f"entry: {report['entry']}")
    if report["parameters"]:
        pstr = ", ".join(f"{k}={v}" for k, v in report["parameters"].items())
        lines.append(f"parameters: {pstr}")
    grid = report["grid"]
    if "counts" in grid:
        lines.append(f"grid: {'x'.join(map(str, grid['counts']))} over "
                     f"{grid['box']}")
    ids = report["identities"]
    lines.append(f"identities (tau={ids['tau']:.1e}): "
                 f"{'PASS' if ids['pass'] else 'FAIL'}")
    for key in sorted(ids):
        if key in ("pass", "tau", "lemma1", "epsilon"):
            continue
        lines.append(f"  {key:32s} {ids[key]:.6e}")
    lines.append(f"  {'lemma1 (position/support)':32s} "
                 f"{ids['lemma1'][0]:.6e} {ids['lemma1'][1]:.6e}")
    lines.append(f"  epsilon = {ids['epsilon']:+.0f}")

    cls = report["classification"]
    hist = ", ".join(f"{k}:{v}" for k, v in sorted(cls["form_histogram"].items()))
    lines.append(f"classification: {hist}")
    if cls["center_form"]:
        cf = cls["center_form"]
        params = ", ".join(f"{p:.9g}" for p in cf["parameters"])
        lines.append(f"  center form: {cf['variant']}({params}), min poly "
                     f"{[round(c, 9) for c in cf['minimal_polynomial']]}")
    st = cls["structure"]
    lines.append("  structure: " + ", ".join(
        f"{k}={st[k]}" for k in ("totally_umbilical", "isoparametric",
                                 "generalized_constant_ratio",
                                 "constant_mean_curvature")))

    sol = report["soliton"]
    lines.append(f"soliton (headline {sol['headline_mode']}): "
                 f"verdict={sol['verdict']} lambda={sol['lambda_fit']:.12g} "
                 f"spread={sol['lambda_spread']:.3e} "
                 f"residual={sol['residual_sup']:.3e}")
    paper = sol["paper_form"]
    lines.append(f"  paper_form  lambda={paper['lambda_fit']:+.12g} "
                 f"spread={paper['lambda_spread']:.3e} "
                 f"residual={paper['residual_sup']:.3e} "
                 f"verdict={paper['verdict']}")
    if "case_system_consistency" in sol:
        cc = sol["case_system_consistency"]
        lines.append(f"  case-system consistency ({cc['convention']}): "
                     f"max residual {cc['max_residual']:.3e}")

    if report["expectations"]:
        lines.append("expectations (claimed vs computed):")
        lines.append(f"  {'key':28s} {'claimed':>22s} {'computed':>22s} "
                     f"{'source':>8s}  agrees")
        for row in report["expectations"]:
            claimed = row["claimed"]
            computed = row["computed"]
            agrees = {True: "yes", False: "NO", None: "-"}[row["agrees"]]
            lines.append(f"  {row['key']:28s} {str(claimed):>22s} "
                         f"{str(computed):>22s} {row['source']:>8s}  {agrees}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args):
    grid_counts = _parse_grid(args.grid)

    is_file = os.path.sep in args.entry or os.path.exists(args.entry)
    if is_file and args.entry not in catalog.ENTRIES:
        if not os.path.exists(args.entry):
            raise UsageError(f"chart file {args.entry!r} does not exist")
        params = _parse_params(args.param)
        taken = sorted(set(exprs.VARIABLES) & set(params))
        if taken:
            raise UsageError(f"--param {taken[0]} names a chart variable; "
                             "u, v and w are the chart coordinates")
        box = _parse_box(args.box) if args.box else CHART_BOX
        try:
            imm = exprs.immersion_from_file(args.entry, params)
        except exprs.ParseError as err:
            raise UsageError(f"bad chart file: {err}")
        if args.orientation:
            imm = imm.with_orientation(float(args.orientation))
        report = analysis.analyze_immersion(imm, box, grid_counts, params)
    else:
        if args.entry not in catalog.ENTRIES:
            raise UsageError(f"unknown catalog entry {args.entry!r}; "
                             f"try 'list'")
        if args.box:
            raise UsageError("--box is for chart files; a catalog entry is "
                             "sampled on its own safe box")
        params = _parse_params(args.param,
                               catalog.ENTRIES[args.entry].defaults)
        try:
            report = analysis.analyze_entry(
                args.entry, params, grid_counts,
                orientation_override=(float(args.orientation)
                                      if args.orientation else None))
        except (KeyError, ValueError) as err:  # str() quotes a KeyError
            raise UsageError(*err.args)

    if args.format == "json":
        text = dump_json(report)
    elif args.format == "text":
        text = _text_report(report)
    else:  # csv: pointwise scalars of the same analysis pass
        header, rows = analysis.pointwise_table(report)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{x:.12g}" if isinstance(x, float) else x
                             for x in row])
        text = buf.getvalue()

    with _output(args.out) as fh:
        fh.write(text)
    return 0 if report["identities"]["pass"] else 2


# -- case-sweep ----------------------------------------------------------------

_PARAM_KEYS = ("a1", "a2", "a3", "b1")
_SWEEP_ROWS = 2048  # draws encoded and written at a time


def _csv_cell(value):
    """``value`` as ``csv.writer`` writes it between other fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([value, ""])
    return buf.getvalue()[:-2]


def _csv_numbers(x):
    return list(map("{:.12g}".format, x.tolist()))


def _json_numbers(x):
    """What ``dump_json`` writes for each float.

    For normal floats below 1e11 in magnitude the 12-digit text already is
    the shortest repr of its value, but for the ".0" that repr puts on an
    integral value.
    """
    cells = _csv_numbers(x)
    size = np.abs(x)
    if not np.all((size < 1e11) & ((size >= 1e-300) | (size == 0.0))):
        return list(map(json.dumps, map(float, cells)))
    return [c if "." in c or "e" in c else c + ".0" for c in cells]


def _pick(cells, codes):
    return np.array(cells, dtype=object)[codes]


def _sweep_columns(summary, numbers, text):
    """The case-sweep rows of one sweep as columns of encoded cells.

    ``numbers`` encodes an array of floats and ``text`` any other value.
    Kind, branch and witness cells are encoded once per sweep; lambda and
    rho are formatted only on the rows that have them.
    """
    names = summary.names
    cols = [numbers(summary.params[:, names.index(k)])
            for k in _PARAM_KEYS if k in names]
    n = len(summary.solvable)
    cols.append([text(summary.epsilon)] * n)
    cols.append(_pick([text(k) for k in canonical.KINDS[summary.form]],
                      summary.kind))
    cols.append(_pick([text(False), text(True)], summary.solvable.astype(int)))
    cols.append(_pick([text(b) for b in canonical.BRANCHES], summary.branch))
    lam = np.full(n, text(""), dtype=object)
    rows = ~np.isnan(summary.lam)
    lam[rows] = numbers(summary.lam[rows])
    rows = ~np.isnan(summary.lam_affine[:, 0])
    # formatted floats need no quoting or escaping, so the encoded format
    # gives the encoded string
    affine = text("%.12g%+.12g*rho")
    lam[rows] = [affine % (c0, c1)
                 for c0, c1 in summary.lam_affine[rows].tolist()]
    cols.append(lam)
    rho = _pick([text(""), text("free")], summary.solvable.astype(int))
    rows = ~np.isnan(summary.rho)
    rho[rows] = numbers(summary.rho[rows])
    cols.append(rho)
    witness = [text(canonical.WITNESS[b]) for b in canonical.BRANCHES]
    cols.append(_pick(witness + [text("")], np.where(
        summary.solvable, len(witness), summary.branch)))
    return cols


def cmd_case_sweep(args):
    if args.count < 1:
        raise UsageError(f"--count must be at least 1, got {args.count}")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    form = FormVariant(args.form)
    eps_values = (1, -1) if args.epsilon == "both" else (int(args.epsilon),)
    if form is not FormVariant.DIAGONALIZABLE:
        if args.epsilon == "-1":
            raise UsageError(f"--form {args.form} takes no --epsilon -1: the "
                             "nondiagonalizable forms are Lorentzian "
                             "(epsilon=1)")
        eps_values = (1,)
    summaries = [canonical.sweep(form, args.count, seed=args.seed,
                                 epsilon=eps) for eps in eps_values]
    mis = sum(s.misclassifications for s in summaries)

    header = [k for k in _PARAM_KEYS if k in summaries[0].names] + [
        "epsilon", "kind", "solvable", "branch", "lambda", "rho", "witness"]
    if args.format == "json":
        numbers, text, sep = _json_numbers, json.dumps, ",\n"
        row = ("    {\n" + ",\n".join(f"      {json.dumps(k)}: %s"
                                      for k in header) + "\n    }")
        encode = row.__mod__
        head = {
            "form": args.form,
            "count": args.count,
            "seed": args.seed,
            "misclassifications": mis,
            "solvable": sum(s.solvable_count for s in summaries),
            "infeasible": sum(s.infeasible_count for s in summaries),
        }
        # the layout of dump_json(dict(head, rows=...)), rows encoded below
        opening = ("{\n" + "".join(f"  {json.dumps(k)}: {json.dumps(v)},\n"
                                   for k, v in head.items()) + '  "rows": [\n')
        closing = "\n  ]\n}\n"
    else:
        numbers, text, sep = _csv_numbers, _csv_cell, "\n"
        encode = ",".join
        opening = ",".join(map(_csv_cell, header)) + "\n"
        closing = "\n"
    with _output(args.out) as fh:
        fh.write(opening)
        lead = ""
        for s in summaries:
            for start in range(0, len(s.solvable), _SWEEP_ROWS):
                cols = _sweep_columns(s.rows(start, start + _SWEEP_ROWS),
                                      numbers, text)
                fh.write(lead + sep.join(map(encode, zip(*cols))))
                lead = sep
        fh.write(closing)
    if mis:
        sys.stderr.write(f"warning: {mis} draws disagree with the expected "
                         "branch structure\n")
    return 0


def cmd_list(args):
    entries = catalog.manifest()
    if args.format == "json":
        text = dump_json(entries)
    else:
        lines = []
        for e in entries:
            pstr = ", ".join(f"{k}={v}" for k, v in e["parameters"].items())
            lines.append(f"{e['name']:28s} [{pstr or 'no parameters'}] "
                         f"{e['description']}")
            for exp in e["expectations"]:
                lines.append(f"    {exp['source']:>8s}  {exp['key']} = "
                             f"{exp['claimed']}"
                             + (f"   ({exp['note']})" if exp["note"] else ""))
        text = "\n".join(lines) + "\n"
    with _output(args.out) as fh:
        fh.write(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="minksoliton",
        description="Curvature and Ricci-soliton verification for "
                    "hypersurfaces of Minkowski 4-space")
    sub = ap.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a catalog entry or chart file")
    pa.add_argument("--entry", required=True,
                    help="catalog entry name or chart expression file")
    pa.add_argument("--param", action="append", metavar="NAME=VALUE",
                    help="entry parameter (repeatable)")
    pa.add_argument("--grid", default="5,5,5", metavar="N,N,N",
                    help="samples per chart axis (default 5,5,5)")
    pa.add_argument("--format", default="text",
                    choices=["text", "json", "csv"])
    pa.add_argument("--out", default="-", help="output path (default stdout)")
    pa.add_argument("--box", default=None, metavar="LO:HI,LO:HI,LO:HI",
                    help="sampling box for chart files")
    pa.add_argument("--orientation", default=None, choices=["1", "-1"],
                    help="override the normal orientation sign")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("case-sweep",
                        help="randomized solvability sweep of one canonical form")
    ps.add_argument("--form", required=True,
                    choices=[v.value for v in FormVariant])
    ps.add_argument("--count", type=int, default=10000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--epsilon", default="both", choices=["1", "-1", "both"])
    ps.add_argument("--format", default="csv", choices=["csv", "json"])
    ps.add_argument("--out", default="-")
    ps.set_defaults(func=cmd_case_sweep)

    pl = sub.add_parser("list", help="print the catalog manifest")
    pl.add_argument("--format", default="text", choices=["text", "json"])
    pl.add_argument("--out", default="-")
    pl.set_defaults(func=cmd_list)
    return ap


# one parser per process: building one costs ten parses
_parser = functools.cache(build_parser)


def main(argv=None):
    ap = _parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1
    except Exception as err:  # geometry/config failures are config errors
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
