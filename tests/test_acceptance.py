"""Acceptance criteria for the verification engine.

Each test prints one ``CRITERION nn PASS/FAIL`` line (visible with
``pytest -s``) and then asserts.  Criterion 6c checks the proven result for
the ruled null-curve family with minimal polynomial (t - a)^2: the quoted
soliton constant lambda = a^2 + 1 cannot hold on any open set, because a
constant support function together with an invertible shape operator forces
the totally umbilical case.  The test asserts the pointwise identity behind
that proof, the resulting not_a_soliton verdict, and that the quoted
constant is reported as disagreeing.
"""

import dataclasses
import time

import numpy as np
import pytest
from scalar_reference import identity_table

from minksoliton import analysis, catalog, frame_ode
from minksoliton.canonical import sweep
from minksoliton.hypersurface import (GeometryBatch, grid_points, ricci_gauss,
                                      ricci_intrinsic_batch)
from minksoliton.lorentz import FormVariant, classify_batch
from minksoliton.soliton import fit_lambda_pointwise, lie_closed_form_batch

CLOSED_FORM = ("hyperbolic_space", "de_sitter", "hyperbolic_cylinder",
               "pseudospherical_cylinder", "graph_lorentzian",
               "graph_spacelike")
ODE_ENTRIES = ("generalized_umbilical", "generalized_umbilical_varB",
               "generalized_cylinder_I")
ALL_SPECS = [(name, {}) for name in CLOSED_FORM + ODE_ENTRIES]
ALL_SPECS += [("hyperbolic_cylinder", {"c": 2.0}),
              ("pseudospherical_cylinder", {"c": 2.0})]


def _line(num, ok, desc):
    print(f"CRITERION {num:>3} {'PASS' if ok else 'FAIL'}: {desc}")


@pytest.fixture(scope="session")
def reports():
    out = {}
    for name, params in ALL_SPECS:
        key = (name, tuple(sorted(params.items())))
        out[key] = analysis.analyze_entry(name, params)
    return out


def _report(reports, name, **params):
    return reports[(name, tuple(sorted(params.items())))]


@pytest.fixture(scope="session")
def geometries():
    """(immersion, grid, entry) triples on the default safe boxes."""
    out = {}
    for name, params in ALL_SPECS:
        entry = catalog.get(name)
        imm, merged = entry.build(**params)
        grid = grid_points(entry.safe_box(merged), (5, 5, 5))
        out[(name, tuple(sorted(params.items())))] = (imm, grid, entry)
    return out


def test_c01_universal_identity_suite(geometries):
    frame_ode._TABLE_CACHE.clear()  # time a cold run, integration included
    t0 = time.perf_counter()
    worst = {}
    for (name, _), (imm, grid, entry) in geometries.items():
        rows = identity_table(GeometryBatch(imm, grid)).values()
        worst[name] = (max(np.max(row) for row in rows), entry.tau_identity)
    elapsed = time.perf_counter() - t0
    ok = all(v < tau for v, tau in worst.values()) and elapsed < 5.0
    _line(1, ok, f"identity suite on every entry in {elapsed:.2f}s; worst "
          + ", ".join(f"{k}={v:.1e}" for k, (v, _) in sorted(worst.items())))
    assert elapsed < 5.0
    for name, (v, tau) in worst.items():
        assert v < tau, name


def test_c02_position_field_identities(reports):
    ok = True
    detail = []
    for (name, params), rep in reports.items():
        tau = catalog.get(name).tau_identity
        first, second = rep["identities"]["lemma1"]
        detail.append(f"{name}={max(first, second):.1e}")
        ok &= first < tau and second < tau
    _line(2, ok, "position-field derivative identities; " + ", ".join(detail))
    assert ok


def test_c03_equivalence_of_formulations(reports, geometries):
    ok = all(rep["identities"]["route_agreement"] < 1e-7
             for rep in reports.values())
    rng = np.random.default_rng(42)
    keys = sorted(geometries)
    worst_gap = 0.0
    for _ in range(100):
        key = keys[rng.integers(len(keys))]
        imm, grid, _ = geometries[key]
        geo = GeometryBatch(imm, grid[::5])
        lam = rng.uniform(-3.0, 3.0)
        gv, Av = geo.g, geo.A
        h = gv @ Av
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
        ric = geo.epsilon * ricci_gauss(Av, gv)
        rho = geo.rho[:, None, None]
        scale = np.maximum(1.0, np.max(np.abs(gv), axis=(1, 2)))
        res_sol = np.max(np.abs(gv + geo.epsilon * rho * h + ric - lam * gv),
                         axis=(1, 2)) / scale
        res_ric = np.max(np.abs(ric - (lam - 1.0) * gv
                                + geo.epsilon * rho * h), axis=(1, 2)) / scale
        worst_gap = max(worst_gap, float(np.max(np.abs(res_sol - res_ric))))
    ok &= worst_gap < 1e-9
    _line(3, ok, f"Lie routes agree < 1e-7 and the soliton equation matches "
          f"the Ricci condition; worst gap {worst_gap:.1e}")
    assert ok


def test_c04_gradient_potential(reports):
    worst = max(rep["identities"]["gradient_check"]
                for rep in reports.values())
    ok = worst < 1e-7
    _line(4, ok, f"grad(<x,x>/2) = x_T on every entry; worst {worst:.1e}")
    assert ok


def test_c05_ricci_cross_validation(reports, geometries):
    ok = True
    seen_eps = set()
    factor_reported = []
    for name in CLOSED_FORM:
        ids = _report(reports, name)["identities"]
        imm, grid, _ = geometries[(name, ())]
        geo = GeometryBatch(imm, grid)
        paper = ricci_gauss(geo.A, geo.g)  # the form without eps
        ric_int = ricci_intrinsic_batch(geo)
        seen_eps.add(ids["epsilon"])
        ok &= ids["gauss_vs_intrinsic"] < 1e-7
        if ids["epsilon"] == 1.0:
            plain = float(np.max(np.max(np.abs(paper - ric_int), axis=(1, 2))
                                 / geo.metric_scale))
            ok &= plain < 1e-7
        else:
            live = np.abs(ric_int) > 1e-6
            factor = float(np.median(paper[live] / ric_int[live])) \
                if np.any(live) else 1.0
            factor_reported.append(f"{name}: {factor:+.6f}")
            ok &= abs(factor + 1.0) < 1e-6
    ok &= seen_eps == {1.0, -1.0}
    _line(5, ok, "corrected Gauss route matches the intrinsic oracle on both "
          "signatures; uncorrected form flips sign on spacelike entries ("
          + "; ".join(factor_reported) + ")")
    assert ok


def test_c06a_lorentzian_cylinder_constant(reports):
    rep = _report(reports, "pseudospherical_cylinder")
    sol = rep["soliton"]
    ok = abs(sol["lambda_fit"] - 1.0) < 1e-6 and sol["verdict"] == "shrinking"
    _line("6a", ok, f"Lorentzian cylinder fits lambda="
          f"{sol['lambda_fit']:.9f}, verdict {sol['verdict']}")
    assert ok


@pytest.mark.parametrize("name", ["generalized_umbilical",
                                  "generalized_umbilical_varB"])
def test_c06b_jordan_block_minimal_polynomial(geometries, name):
    imm, grid, entry = geometries[(name, ())]
    geo = GeometryBatch(imm, grid[::6])
    # (t - 1)^2, with a zero t^3 coefficient
    mp = classify_batch(geo.A, tol=1e-5).min_poly
    worst = float(np.max(np.abs(mp - np.array([0.0, 1.0, -2.0, 1.0]))))
    ok = worst < 1e-5
    _line("6b", ok, f"{name}: minimal polynomial is the square of (t - 1) "
          f"at rank tolerance 1e-5; worst coefficient error {worst:.1e}")
    assert ok


def test_c06c_jordan_family_soliton_constant(reports):
    """The quoted constant a^2 + 1 holds exactly where rho = -a, nowhere else.

    With eps = +1 and A = a I + N, N^2 = 0, the Gauss equation and
    grad x_T = I + rho A give, pointwise,

        L_{x_T} g / 2 + Ric - (a^2 + 1) g = (rho + a) g(A., .),

    so a constant lambda needs rho = -a on an open set.  Then
    d rho = -g(A x_T, .) = 0 with A invertible forces x_T = 0, hence the
    umbilical case, contradicting N != 0.  The family is therefore not a
    soliton, and the quoted constant is flagged, as c07 does for de Sitter.
    """
    ok = True
    detail = []
    for name in ("generalized_umbilical", "generalized_umbilical_varB"):
        rep = _report(reports, name)
        entry = catalog.get(name)
        a = rep["parameters"]["a"]
        sol = rep["soliton"]
        rows = {r["key"]: r for r in rep["expectations"]}
        claim = rows["lambda_claimed"]
        this = (sol["verdict"] == "not_a_soliton"
                and sol["lambda_spread"] > entry.tau_sol
                and claim["claimed"] == a ** 2 + 1
                and claim["agrees"] is False
                and rows["verdict"]["source"] == "derived"
                and rows["verdict"]["agrees"] is True)
        detail.append(f"{name}: {sol['verdict']}, spread "
                      f"{sol['lambda_spread']:.2e} (tau {entry.tau_sol:.0e}), "
                      f"quoted {claim['claimed']} agrees={claim['agrees']}")
        ok &= this

    # The pointwise identity, at a = 1 and at a = 0.5 (where the chart puts
    # rho = -1/a, not -a, on the s = 0 slice).
    for name, a in (("generalized_umbilical", 1.0),
                    ("generalized_umbilical_varB", 1.0),
                    ("generalized_umbilical", 0.5)):
        entry = catalog.get(name)
        imm, merged = entry.build(a=a)
        grid = grid_points(entry.safe_box(merged), (5, 5, 5))
        geo = GeometryBatch(imm, grid)
        gv, Av = geo.g, geo.A
        h = gv @ Av
        h = 0.5 * (h + np.swapaxes(h, -1, -2))
        lhs = (0.5 * lie_closed_form_batch(geo)
               + geo.epsilon * ricci_gauss(Av, gv) - (a ** 2 + 1) * gv)
        rho_plus_a = geo.rho + a
        err = float(np.max(np.abs(lhs - rho_plus_a[:, None, None] * h)))
        ok &= geo.epsilon == 1.0 and err < entry.tau_identity
        detail.append(f"{name}(a={a:g}) identity error {err:.1e}")
        if name == "generalized_umbilical" and a == 1.0:
            # rho = -a exactly on the central slice and far from it off it.
            central = np.abs(grid[:, 0]) < 1e-12
            on_slice = float(np.max(np.abs(rho_plus_a[central])))
            off_slice = float(np.max(np.abs(rho_plus_a)))
            ok &= on_slice < entry.tau_identity and off_slice > 0.1
            detail.append(f"|rho + a| {on_slice:.1e} on s = 0, "
                          f"max {off_slice:.2f}")
    _line("6c", ok, "Jordan-block family is not a soliton; quoted constant "
          "a^2+1 holds only where rho = -a; " + "; ".join(detail))
    assert ok, ("the Jordan-block family must give not_a_soliton with the "
                "quoted a^2 + 1 flagged, and satisfy L/2 + Ric - (a^2+1) g "
                "= (rho + a) g(A., .) pointwise")


def test_c06d_nilpotent_cylinder(reports):
    rep = _report(reports, "generalized_cylinder_I")
    sol = rep["soliton"]
    ric_sup = rep["identities"]["ricci_sup"]
    ok = ric_sup < 1e-5 and abs(sol["lambda_fit"] - 1.0) < 1e-4
    _line("6d", ok, f"nilpotent cylinder: Ricci sup {ric_sup:.1e}, "
          f"lambda={sol['lambda_fit']:.9f}")
    assert ok


def test_c07_de_sitter_constants(reports):
    rep = _report(reports, "de_sitter")
    sol = rep["soliton"]
    ids = rep["identities"]
    row = next(r for r in rep["expectations"] if r["key"] == "lambda_claimed")
    ok = (ids["tangent_position_sup"] < 1e-10
          and abs(sol["lambda_fit"] - 2.0) < 1e-6
          and sol["lambda_spread"] < 1e-8
          and sol["verdict"] == "shrinking"
          and row["agrees"] is False)
    _line(7, ok, f"de Sitter: x_T sup {ids['tangent_position_sup']:.1e}, "
          f"lambda={sol['lambda_fit']:.9f} (quoted {row['claimed']} flagged "
          f"as disagreeing), spread {sol['lambda_spread']:.1e}")
    assert ok


def test_c08_canonical_dichotomy():
    t0 = time.perf_counter()
    results = {}
    for form in (FormVariant.COMPLEX_PAIR, FormVariant.JORDAN_3):
        s = sweep(form, 10000, seed=11)
        results[form.value] = (s.infeasible_count, s.misclassifications)
    for eps in (1, -1):
        s = sweep(FormVariant.DIAGONALIZABLE, 10000, seed=12, epsilon=eps)
        results[f"diagonalizable(eps={eps})"] = (s.infeasible_count,
                                                 s.misclassifications)
    s = sweep(FormVariant.JORDAN_2, 10000, seed=13)
    results["jordan2"] = (s.infeasible_count, s.misclassifications)
    elapsed = time.perf_counter() - t0
    total_mis = sum(m for _, m in results.values())
    ok = (total_mis == 0 and elapsed < 1.0
          and results["complex_pair"][0] == 10000
          and results["jordan3"][0] == 10000)
    _line(8, ok, f"dichotomy sweeps, {elapsed:.2f}s, zero misclassifications "
          f"over {len(results)} x 10000 draws")
    assert ok


def test_c09_geometry_algebra_consistency(reports):
    checked = []
    ok = True
    for (name, params), rep in reports.items():
        sol = rep["soliton"]
        if "case_system_consistency" not in sol:
            continue
        cc = sol["case_system_consistency"]
        checked.append(f"{name}={cc['max_residual']:.1e}")
        ok &= cc["max_residual"] < 1e-5
    ok &= len(checked) >= 4
    _line(9, ok, "soliton-verdict entries satisfy their case systems: "
          + ", ".join(checked))
    assert ok


def test_c10_frame_ode_quality():
    # the default window runs one chain to s = 1 and one to s = -1
    spec = frame_ode.FrameODESpec(a=1.0, b=frame_ode.BFunction.constant(1.0))
    drift = frame_ode.FrameTable(spec).max_drift
    spec2 = frame_ode.FrameODESpec(a=1.0, b=frame_ode.BFunction.offset_sin(),
                                   window=(0.0, 1.0), tau_frame=1.0)

    def end_state(h):
        table = frame_ode.FrameTable(dataclasses.replace(spec2, step=h))
        return table.states[-1]

    ref = end_state(1e-4)

    def sol_err(h):
        return np.max(np.abs(end_state(h) - ref))

    order = float(np.log2(sol_err(0.1) / sol_err(0.05)))
    ok = drift < 1e-9 and abs(order - 4.0) < 0.3
    _line(10, ok, f"Gram drift {drift:.1e} at step 1e-3 over |s|<=1; "
          f"observed convergence order {order:.2f}")
    assert ok


def test_c11_falsifiability(reports):
    ok = True
    detail = []
    for name in ("graph_lorentzian", "graph_spacelike"):
        rep = _report(reports, name)
        sol = rep["soliton"]
        ids = rep["identities"]
        entry_tau = catalog.get(name).tau_identity
        ok &= sol["lambda_spread"] > 1e-2
        ok &= sol["verdict"] == "not_a_soliton"
        ok &= ids["pass"]
        ok &= max(ids["lemma1"]) < entry_tau
        ok &= ids["gradient_check"] < 1e-7
        ok &= ids["route_agreement"] < 1e-7
        detail.append(f"{name}: spread={sol['lambda_spread']:.1e}")
    _line(11, ok, "negative controls rejected while passing criteria 1-4; "
          + ", ".join(detail))
    assert ok


def _corrected_fit(geo, ric, tau):
    """(lambda, Verdict) of the fit against the corrected Ricci tensor."""
    lam, _, _, verdict, _ = fit_lambda_pointwise(
        geo, lie_closed_form_batch(geo), ric, tau)[0]
    return lam, verdict


def test_c12_normal_flip_covariance(reports):
    ok = True
    detail = []
    for name in ("de_sitter", "hyperbolic_space", "pseudospherical_cylinder",
                 "generalized_umbilical"):
        entry = catalog.get(name)
        imm, merged = entry.build()
        grid = grid_points(entry.safe_box(merged), (3, 3, 3))
        geo = GeometryBatch(imm, grid)
        geo_f = GeometryBatch(imm.with_orientation(-imm.orientation_sign), grid)
        rho_neg = float(np.max(np.abs(geo.rho + geo_f.rho)))
        a_neg = float(np.max(np.abs(geo.A + geo_f.A)))
        ric = geo.epsilon * ricci_gauss(geo.A, geo.g)
        ric_f = geo_f.epsilon * ricci_gauss(geo_f.A, geo_f.g)
        ric_inv = float(np.max(np.abs(ric - ric_f)))
        (lam, verdict), (lam_f, verdict_f) = (
            _corrected_fit(g, r, entry.tau_sol)
            for g, r in ((geo, ric), (geo_f, ric_f)))
        lam_inv = abs(lam - lam_f)
        this = (rho_neg < 1e-9 and a_neg < 1e-9 and ric_inv < 1e-9
                and lam_inv < 1e-9 and verdict is verdict_f)
        detail.append(f"{name}: dlam={lam_inv:.1e}")
        ok &= this
    _line(12, ok, "orientation flip negates rho and A, leaves the verdictal "
          "data unchanged; " + ", ".join(detail))
    assert ok
