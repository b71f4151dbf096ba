"""The column-wise case sweep against the scalar reference.

Every row of ``canonical.sweep`` must match ``scalar_reference.solve_case``
on the same parameters exactly, the draws must keep their distributions'
contracts, and the ``case-sweep`` CLI must print the bytes that
``csv.writer`` and ``dump_json`` give for row dicts built from
``solve_case``.
"""

import csv
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scalar_reference import build_case_system, solve_case

from minksoliton import cli
from minksoliton.canonical import BRANCHES, KINDS, SOLVABLE_BY_KIND, sweep
from minksoliton.cli import _json_numbers, dump_json, main, round_floats
from minksoliton.lorentz import FormVariant

FORM_EPS = [(FormVariant.DIAGONALIZABLE, 1), (FormVariant.DIAGONALIZABLE, -1),
            (FormVariant.COMPLEX_PAIR, 1), (FormVariant.JORDAN_2, 1),
            (FormVariant.JORDAN_3, 1)]
SEEDS = (0, 1, 2, 2 ** 40 + 3)


def _scalar(summary, i):
    params = dict(zip(summary.names, summary.params[i].tolist()))
    return params, solve_case(build_case_system(summary.form, summary.epsilon,
                                                **params))


def _none_if_nan(x):
    return None if math.isnan(x) else x


@pytest.mark.parametrize("form,eps", FORM_EPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_columns_equal_scalar_solve_case(form, eps, seed):
    s = sweep(form, 601, seed=seed, epsilon=eps)
    assert s.params.shape == (601, len(s.names))
    for i in range(601):
        _, sol = _scalar(s, i)
        assert bool(s.solvable[i]) is sol.solvable
        assert BRANCHES[s.branch[i]] == sol.branch
        assert _none_if_nan(s.lam[i]) == sol.lam
        assert _none_if_nan(s.rho[i]) == sol.rho
        affine = tuple(s.lam_affine[i].tolist())
        assert (None if math.isnan(affine[0]) else affine) == sol.lam_affine
    expected = [SOLVABLE_BY_KIND[KINDS[form][k]] for k in s.kind]
    assert s.misclassifications == 0
    assert s.solvable.tolist() == expected
    assert s.solvable_count + s.infeasible_count == 601


@pytest.mark.parametrize("form,eps", FORM_EPS)
@pytest.mark.parametrize("seed", SEEDS)
def test_draw_contract(form, eps, seed):
    s = sweep(form, 900, seed=seed, epsilon=eps)
    kinds = np.array(KINDS[form])[s.kind]
    assert (s.kind == np.arange(900) % len(KINDS[form])).all()
    assert (np.abs(s.params) <= 2.0).all()
    p = dict(zip(s.names, s.params.T))
    if form is FormVariant.DIAGONALIZABLE:
        a = s.params
        umb = a[kinds == "umbilical"]
        assert (umb == umb[:, :1]).all() and (np.abs(umb) >= 0.1).all()
        two = a[kinds == "two_equal"]
        ordered = np.sort(two, axis=1)
        low_pair = ordered[:, 0] == ordered[:, 1]
        assert (low_pair != (ordered[:, 1] == ordered[:, 2])).all()
        d = np.where(low_pair, ordered[:, 0], ordered[:, 2])
        simple = np.where(low_pair, ordered[:, 2], ordered[:, 0])
        assert (np.abs(d) >= 0.1).all()
        assert (np.abs(simple - d) >= 0.1).all()
        # the simple curvature lands in every slot
        assert set(np.argmax(two == simple[:, None], axis=1)) == {0, 1, 2}
        distinct = a[kinds == "distinct"]
        assert (np.diff(distinct, axis=1) >= 0.05).all()
    elif form is FormVariant.COMPLEX_PAIR:
        assert (np.abs(p["b1"]) >= 0.1).all()
    elif form is FormVariant.JORDAN_2:
        equal = kinds == "equal"
        assert (p["a1"][equal] == p["a2"][equal]).all()
        assert (np.abs(p["a1"] - p["a2"])[~equal] >= 0.1).all()


def test_nondiagonalizable_sweep_rejects_spacelike_sign():
    with pytest.raises(ValueError):
        sweep(FormVariant.JORDAN_2, 10, epsilon=-1)


@pytest.mark.parametrize("form", [FormVariant.COMPLEX_PAIR,
                                  FormVariant.JORDAN_2, FormVariant.JORDAN_3])
def test_cli_rejects_spacelike_sign_for_nondiagonalizable_form(form, capsys):
    argv = ["case-sweep", "--form", form.value, "--count", "2"]
    assert main(argv + ["--epsilon", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Lorentzian (epsilon=1)" in err, err
    # both signs and the Lorentzian one alone give the same eps = 1 rows
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main(argv + ["--epsilon", "1"]) == 0
    assert capsys.readouterr().out == default


def test_sweep_reproduces_its_seed():
    a = sweep(FormVariant.DIAGONALIZABLE, 300, seed=17)
    b = sweep(FormVariant.DIAGONALIZABLE, 300, seed=17)
    assert a.params.tobytes() == b.params.tobytes()


# -- output bytes against the row-by-row formatter ---------------------------

def _reference_output(form, count, seed, fmt):
    """``case-sweep`` output formatted row by row from ``solve_case``."""
    eps_values = (1, -1) if form is FormVariant.DIAGONALIZABLE else (1,)
    all_rows, mis, solvable = [], 0, 0
    for eps in eps_values:
        s = sweep(form, count, seed=seed, epsilon=eps)
        for i in range(count):
            params, sol = _scalar(s, i)
            kind = KINDS[form][s.kind[i]]
            mis += sol.solvable != SOLVABLE_BY_KIND[kind]
            solvable += sol.solvable
            row = dict(params)
            row.update({
                "epsilon": eps,
                "kind": kind,
                "solvable": sol.solvable,
                "branch": sol.branch,
                "lambda": sol.lam if sol.lam is not None else (
                    f"{sol.lam_affine[0]:.12g}{sol.lam_affine[1]:+.12g}*rho"
                    if sol.lam_affine else ""),
                "rho": sol.rho if sol.rho is not None
                else "free" if sol.solvable else "",
                "witness": sol.witness if not sol.solvable else "",
            })
            all_rows.append(row)
    header = [k for k in ("a1", "a2", "a3", "b1") if k in all_rows[0]] + [
        "epsilon", "kind", "solvable", "branch", "lambda", "rho", "witness"]
    if fmt == "json":
        return dump_json({
            "form": form.value, "count": count, "seed": seed,
            "misclassifications": mis, "solvable": solvable,
            "infeasible": len(all_rows) - solvable,
            "rows": [{k: row.get(k) for k in header} for row in all_rows],
        })
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in all_rows:
        writer.writerow([f"{row[k]:.12g}" if isinstance(row.get(k), float)
                         else row.get(k) for k in header])
    return buf.getvalue()


@pytest.mark.parametrize("form", list(FormVariant))
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count,seed", [(1, 0), (2, 5), (240, 11)])
def test_cli_bytes_match_row_formatter(form, fmt, count, seed, capsys):
    code = main(["case-sweep", "--form", form.value, "--count", str(count),
                 "--seed", str(seed), "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert out == _reference_output(form, count, seed, fmt)


def test_json_numbers_match_dump_json():
    values = [0.0, -0.0, 2.0, -3.0, 0.5, 1 / 3, 1e-5, -1.5e-7, 123456.0,
              99999999999.0, 1e11 - 0.4, 1e11, 5e12, 1e16, 1e20, 1e-300,
              2.2250738585072014e-308, 1e-310, 5e-324, math.nan, math.inf,
              -math.inf]
    values += np.random.default_rng(0).uniform(-9, 9, 50).tolist()
    expected = [json.dumps(round_floats(v)) for v in values]
    # one value at a time, and all at once with values that need the repr
    assert [_json_numbers(np.array([v]))[0] for v in values] == expected
    assert _json_numbers(np.array(values)) == expected


def test_json_numbers_do_not_depend_on_the_split():
    # case-sweep encodes its rows in chunks, and each call picks the fast or
    # the fallback encoding for its own values; they must give the same text
    values = np.array([1e300, 5e-324, 1e11, -0.0, 2.0, 1e-5, 0.5, -3.0,
                       1 / 3, 123456.0])
    whole = _json_numbers(values)
    for k in range(len(values)):
        for cuts in itertools.combinations(range(1, len(values)), k):
            bounds = (0, *cuts, len(values))
            parts = [_json_numbers(values[a:b])
                     for a, b in zip(bounds, bounds[1:])]
            assert sum(parts, []) == whole, cuts


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_case_sweep_memory_does_not_grow_with_the_output(fmt, tmp_path,
                                                         monkeypatch):
    # rows are encoded and written a chunk at a time, so the peak grows only
    # by the sweep's own columns (about 60 B a draw here); encoding the
    # whole text before writing it cost 350 B a row in CSV and 802 in JSON
    monkeypatch.setattr(cli, "_SWEEP_ROWS", 256)

    def peak(count):
        argv = ["case-sweep", "--form", "jordan3", "--count", str(count),
                "--format", fmt, "--out", str(tmp_path / "sweep")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(100)  # builds the parser and first-call caches
    per_row = (peak(8000) - peak(2000)) / 6000
    assert per_row < 200, per_row
