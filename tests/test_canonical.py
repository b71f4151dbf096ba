"""Per-form soliton case systems: exact elimination and the dichotomy sweep."""

import time

import numpy as np
import pytest

from minksoliton.canonical import (build_case_system, consistency_residual,
                                   solve_case, sweep)
from minksoliton.lorentz import FormVariant


def test_diagonalizable_pair_subtraction_identity():
    # subtracting component equations reproduces the factored conditions
    # (a_i - a_j)(a_k + eps*rho) = 0
    rng = np.random.default_rng(2)
    for _ in range(100):
        a1, a2, a3 = rng.uniform(-2, 2, size=3)
        eps = int(rng.choice([1, -1]))
        lam, rho = rng.uniform(-3, 3), rng.uniform(-2, 2)
        sys_ = build_case_system(FormVariant.DIAGONALIZABLE, eps,
                                 a1=a1, a2=a2, a3=a3)
        r = sys_.residuals(lam, rho)
        assert r[0] - r[1] == pytest.approx(-(a1 - a2) * (eps * rho + a3),
                                            abs=1e-12)
        assert r[0] - r[2] == pytest.approx(-(a1 - a3) * (eps * rho + a2),
                                            abs=1e-12)


def test_umbilical_branch_lambda_family():
    for eps in (1, -1):
        for c in (0.5, 1.0, -1.3):
            sys_ = build_case_system(FormVariant.DIAGONALIZABLE, eps,
                                     a1=c, a2=c, a3=c)
            sol = solve_case(sys_)
            assert sol.solvable and sol.branch == "umbilical"
            assert sol.rho is None  # free
            for rho in (-1.7, 0.0, 2.2):
                lam = sol.lambda_at(rho)
                assert lam == pytest.approx(1 + eps * rho * c + 2 * c * c)
                assert max(abs(x) for x in sys_.residuals(lam, rho)) < 1e-12


def test_two_distinct_branch_pins_rho():
    for eps in (1, -1):
        sys_ = build_case_system(FormVariant.DIAGONALIZABLE, eps,
                                 a1=1.0, a2=1.0, a3=-0.5)
        sol = solve_case(sys_)
        assert sol.solvable and sol.branch == "two_distinct"
        assert sol.rho == pytest.approx(-eps * 1.0)
        assert sol.lam == pytest.approx(1 + 1.0 * (-0.5))
        assert max(abs(x) for x in sys_.residuals(sol.lam, sol.rho)) < 1e-12


def test_two_distinct_any_position_of_double():
    sol_a = solve_case(build_case_system(
        FormVariant.DIAGONALIZABLE, 1, a1=2.0, a2=0.3, a3=2.0))
    sol_b = solve_case(build_case_system(
        FormVariant.DIAGONALIZABLE, 1, a1=0.3, a2=2.0, a3=2.0))
    assert sol_a.solvable and sol_b.solvable
    assert sol_a.lam == pytest.approx(sol_b.lam) == pytest.approx(1 + 0.6)
    assert sol_a.rho == pytest.approx(sol_b.rho) == pytest.approx(-2.0)


def test_three_distinct_infeasible():
    sol = solve_case(build_case_system(
        FormVariant.DIAGONALIZABLE, 1, a1=0.0, a2=1.0, a3=2.0))
    assert not sol.solvable
    assert sol.witness_value > 0


def test_permutation_invariance():
    vals = (0.7, 0.7, -1.1)
    sols = []
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)):
        a = [vals[i] for i in perm]
        sols.append(solve_case(build_case_system(
            FormVariant.DIAGONALIZABLE, -1, a1=a[0], a2=a[1], a3=a[2])))
    assert all(s.solvable for s in sols)
    assert len({round(s.lam, 12) for s in sols}) == 1
    assert len({round(s.rho, 12) for s in sols}) == 1


def test_complex_pair_always_infeasible():
    sys_ = build_case_system(FormVariant.COMPLEX_PAIR, 1,
                             a1=0.4, b1=1.0, a2=-0.9)
    sol = solve_case(sys_)
    assert not sol.solvable
    assert sol.witness_value == pytest.approx((0.4 + 0.9) ** 2 + 1.0)
    # third equation forces rho = -a2 for b1 != 0
    assert abs(sys_.residuals(0.0, 0.9)[2]) < 1e-12


def test_complex_pair_rejects_zero_b1():
    with pytest.raises(ValueError):
        build_case_system(FormVariant.COMPLEX_PAIR, 1, a1=0.0, b1=0.0, a2=1.0)


def test_jordan3_contradiction():
    sol = solve_case(build_case_system(FormVariant.JORDAN_3, 1, a1=1.7))
    assert not sol.solvable
    assert sol.witness_value == 1.0


def test_jordan2_equal_eigenvalues_solvable():
    for a in (-1.2, 0.5, 2.0):
        sol = solve_case(build_case_system(FormVariant.JORDAN_2, 1,
                                           a1=a, a2=a))
        assert sol.solvable
        assert sol.lam == pytest.approx(a * a + 1.0)
        assert sol.rho == pytest.approx(-a)
        sys_ = build_case_system(FormVariant.JORDAN_2, 1, a1=a, a2=a)
        assert max(abs(x) for x in sys_.residuals(sol.lam, sol.rho)) < 1e-12


def test_jordan2_distinct_infeasible():
    sol = solve_case(build_case_system(FormVariant.JORDAN_2, 1,
                                       a1=1.0, a2=1.5))
    assert not sol.solvable
    assert sol.witness_value == pytest.approx(0.25)


def test_nondiagonalizable_forms_reject_negative_epsilon():
    with pytest.raises(ValueError):
        build_case_system(FormVariant.JORDAN_2, -1, a1=1.0, a2=1.0)


def test_sweep_dichotomy_and_speed():
    t0 = time.perf_counter()
    for form in (FormVariant.COMPLEX_PAIR, FormVariant.JORDAN_3):
        s = sweep(form, 10000, seed=1)
        assert s.infeasible_count == 10000
        assert s.misclassifications == 0
    for eps in (1, -1):
        s = sweep(FormVariant.DIAGONALIZABLE, 10000, seed=2, epsilon=eps)
        assert s.misclassifications == 0
    s = sweep(FormVariant.JORDAN_2, 10000, seed=3)
    assert s.misclassifications == 0
    assert time.perf_counter() - t0 < 1.0


def test_sweep_two_equal_rows_follow_branch_formulas():
    s = sweep(FormVariant.DIAGONALIZABLE, 300, seed=4, epsilon=-1)
    checked = 0
    for row in s.rows:
        if row["kind"] != "two_equal":
            continue
        vals = sorted([row["a1"], row["a2"], row["a3"]])
        if abs(vals[0] - vals[1]) < 1e-12:
            d, simple = vals[0], vals[2]
        else:
            d, simple = vals[2], vals[0]
        assert row["rho"] == pytest.approx(d)       # -eps*d with eps = -1
        assert row["lambda"] == pytest.approx(1 + d * simple)
        checked += 1
    assert checked > 50


def test_consistency_residual_roundtrip():
    # a solved system must have zero residual at its own solution
    sol = solve_case(build_case_system(FormVariant.JORDAN_2, 1, a1=1.0, a2=1.0))
    assert consistency_residual(FormVariant.JORDAN_2, (1.0, 1.0), 1,
                                sol.rho, sol.lam) < 1e-12


def test_consistency_residual_rows_match_per_row_calls():
    names = {FormVariant.DIAGONALIZABLE: ("a1", "a2", "a3"),
             FormVariant.COMPLEX_PAIR: ("a1", "b1", "a2"),
             FormVariant.JORDAN_2: ("a1", "a2"),
             FormVariant.JORDAN_3: ("a1",)}
    forms = list(names)
    rng = np.random.default_rng(5)
    for draw in range(20):
        # nondiagonalizable forms exist only for epsilon = 1
        eps, pool = (1, forms) if draw % 2 else (-1, forms[:1])
        variants = [pool[k] for k in rng.integers(len(pool), size=12)]
        params = rng.uniform(-2, 2, size=(12, 3))
        rho = rng.uniform(-2, 2, size=12)
        lam = rng.uniform(-3, 3)
        per_row = [np.max(np.abs(build_case_system(
            v, eps, **dict(zip(names[v], p))).residuals(lam, r)))
            for v, p, r in zip(variants, params, rho)]
        assert consistency_residual(variants, params, eps, rho, lam) \
            == max(per_row)
