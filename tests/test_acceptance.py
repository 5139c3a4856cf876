"""Acceptance gate: the package's published guarantees, one criterion per test.

Every test prints one PASS/FAIL line (visible under ``pytest -s`` and in
failure reports) before asserting, so a full run reads as a checklist.  All
random draws are seeded; tolerances are stated inline and never loosened to
make a run pass.
"""

import functools
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import PHI_TABLE
from lexopt import (
    CaseTemplate,
    CobbDouglasProblem,
    CostSchedule,
    GridSpec,
    HessianVariant,
    SecondOrderClass,
    StrategyGame,
    admissible,
    apply_penalty,
    best_overall,
    build_bordered_hessian,
    classify_from_determinant,
    compliance_dominant,
    default_config,
    default_sweep_grid,
    finite_diff_gradient,
    grid_max_on_budget,
    hessian_determinant,
    min_compliance_penalty,
    phi_component,
    phi_total,
    run_simulation,
    solve_closed_form,
    sweep_admin_cost,
    utility,
    utility_gradient,
)
from lexopt.alpha_search import AlphaSearchConfig, Objective, search_alpha
from lexopt.cli import main
from test_hessian import scaled_border


def _report(n: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {n}: {'PASS' if ok else 'FAIL'} - {name}")


@functools.lru_cache(maxsize=1)
def thousand_problems():
    """1000 seeded problems shared by criteria 1 and 2."""
    rng = np.random.default_rng(20260821)
    out = []
    for _ in range(1000):
        prob = CobbDouglasProblem(
            alpha=rng.uniform(0.1, 3.0),
            beta=rng.uniform(0.1, 3.0),
            p1=rng.uniform(0.1, 10.0),
            p2=rng.uniform(0.1, 10.0),
            P_C=rng.uniform(0.1, 100.0),
        )
        out.append((prob, solve_closed_form(prob)))
    return tuple(out)


def test_criterion_1_closed_form_vs_grid_oracle():
    problems = thousand_problems()
    spec = GridSpec(points_per_axis=10_000)
    start = time.monotonic()
    worst_gap = 0.0
    worst_overshoot = 0.0
    for prob, sol in problems:
        gm = grid_max_on_budget(prob, spec)
        worst_gap = max(worst_gap, abs(gm.utility - sol.U_star) / sol.U_star)
        worst_overshoot = max(worst_overshoot, (gm.utility - sol.U_star) / sol.U_star)
    elapsed = time.monotonic() - start
    ok = worst_gap <= 1e-6 and worst_overshoot <= 1e-9 and elapsed < 30.0
    _report(1, "closed form matches a 10^4-point grid oracle on 1000 problems", ok)
    assert worst_gap <= 1e-6, f"worst relative gap {worst_gap:.3g}"
    assert worst_overshoot <= 1e-9, f"oracle exceeded the closed form by {worst_overshoot:.3g}"
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_2_optimality_identities():
    from lexopt import first_order_residuals, mrs

    worst = {"identity": 0.0, "mrs": 0.0, "budget": 0.0, "foc": 0.0}
    for prob, sol in thousand_problems():
        worst["identity"] = max(worst["identity"], sol.identity_residual)
        ratio = prob.p1 / prob.p2
        worst["mrs"] = max(
            worst["mrs"], abs(mrs(prob, sol.L_C_star, sol.R_B_star) - ratio) / ratio
        )
        r_L, r_R, r_budget = first_order_residuals(prob, sol)
        worst["budget"] = max(worst["budget"], abs(r_budget) / prob.P_C)
        worst["foc"] = max(
            worst["foc"],
            abs(r_L) / (sol.lam * prob.p1),
            abs(r_R) / (sol.lam * prob.p2),
        )
    ok = (
        worst["identity"] <= 1e-9
        and worst["mrs"] <= 1e-9
        and worst["budget"] <= 1e-12
        and worst["foc"] <= 1e-9
    )
    _report(2, "value identity, tangency, budget, and stationarity residuals", ok)
    assert worst["identity"] <= 1e-9, worst
    assert worst["mrs"] <= 1e-9, worst
    assert worst["budget"] <= 1e-12, worst
    assert worst["foc"] <= 1e-9, worst


def test_criterion_3_worked_example_is_exact():
    prob = CobbDouglasProblem(alpha=2.0, beta=1.0, p1=1.0, p2=1.0, P_C=6.0)
    sol = solve_closed_form(prob)
    exact = (
        sol.L_C_star == 4.0
        and sol.R_B_star == 2.0
        and sol.lam == 16.0
        and sol.U_star == 32.0
        and (sol.lam / (prob.alpha + prob.beta)) * prob.P_C == 32.0
    )
    gm = grid_max_on_budget(prob, GridSpec(points_per_axis=10_000))
    oracle_ok = abs(gm.utility - 32.0) / 32.0 <= 1e-6 and abs(gm.L_C - 4.0) <= 6.0 / 9_999 * 1.01
    ok = exact and oracle_ok
    _report(3, "round-number worked example solves exactly and the oracle agrees", ok)
    assert exact, (sol.L_C_star, sol.R_B_star, sol.lam, sol.U_star)
    assert oracle_ok, (gm.L_C, gm.utility)


def test_criterion_4_second_order_certificates():
    rng = np.random.default_rng(77)
    det_mismatch = 0.0
    all_local_max = True
    never_flips = True
    for _ in range(1000):
        prob = CobbDouglasProblem(
            alpha=rng.uniform(0.01, 0.99),
            beta=rng.uniform(0.01, 0.99),
            p1=rng.uniform(0.1, 10.0),
            p2=rng.uniform(0.1, 10.0),
            P_C=rng.uniform(0.1, 100.0),
        )
        sol = solve_closed_form(prob)
        for variant in HessianVariant:
            h = build_bordered_hessian(prob, sol, variant)
            det = hessian_determinant(h)
            ref = float(np.linalg.det(h.entries))
            det_mismatch = max(det_mismatch, abs(det - ref) / max(abs(det), abs(ref)))
            scale = float(np.max(np.abs(h.entries)))
            label = classify_from_determinant(det, scale)
            if not (det > 0.0 and label is SecondOrderClass.LOCAL_MAX):
                all_local_max = False
            for k in (0.5, 2.0, 10.0):
                hs = scaled_border(h, k)
                label_k = classify_from_determinant(
                    hessian_determinant(hs), float(np.max(np.abs(hs.entries)))
                )
                if label_k is not label:
                    never_flips = False
    ok = all_local_max and det_mismatch <= 1e-12 and never_flips
    _report(4, "both Hessian variants certify maxima below unit exponents", ok)
    assert all_local_max
    assert det_mismatch <= 1e-12, f"cofactor vs generic determinant gap {det_mismatch:.3g}"
    assert never_flips


def test_criterion_5_transaction_cost_schedule():
    table_ok = all(
        phi_component(CostSchedule(C_b, ((ap, am),)), 0, L, with_fixed=wf) == expected
        for C_b, ap, am, L, wf, expected in PHI_TABLE
    )

    rng = np.random.default_rng(55)
    homogeneity_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 5))
        s = CostSchedule(0.0, tuple((rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)))
        L = rng.uniform(-10.0, 10.0, size=n)
        k = rng.uniform(0.1, 10.0)
        lhs, rhs = phi_total(s, k * L), k * phi_total(s, L)
        if abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs)):
            homogeneity_ok = False

    s = CostSchedule(0.0, ((1.0, 1.0),))
    strict_ok = (
        admissible(s, [1.5], R_B=3.0)
        and not admissible(s, [0.0], R_B=3.0)  # phi == 0 boundary
        and not admissible(s, [3.0], R_B=3.0)  # phi == R_B boundary
        and not admissible(s, [4.0], R_B=3.0)
    )

    ok = table_ok and homogeneity_ok and strict_ok
    _report(5, "50-case cost table, homogeneity, and strict admissibility", ok)
    assert table_ok
    assert homogeneity_ok
    assert strict_ok


def test_criterion_6_exponent_search_grid():
    grid = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    cfg = AlphaSearchConfig(
        alpha_grid=grid, beta=0.5, p1=1.0, p2=1.0, P_C=2.0, objective=Objective.MAX_UTILITY
    )
    result = search_alpha(cfg)
    rerun = search_alpha(cfg)

    all_admissible = [e.alpha for e in result.admissible] == list(grid)
    winner = next((e for e in result.admissible if e.alpha == result.alpha_star), None)
    maximizes = winner is not None and winner.solution.U_star == max(
        e.solution.U_star for e in result.admissible
    )
    deterministic = (
        rerun.alpha_star == result.alpha_star
        and rerun.L_C_opt == result.L_C_opt
        and rerun.U_star_final == result.U_star_final
    )
    final_matches = (
        winner is not None
        and abs(result.U_star_final - winner.solution.U_star) / winner.solution.U_star <= 1e-9
    )

    # independent check: a grid oracle ranks the candidates the same way
    def oracle_utility(a: float) -> float:
        prob = CobbDouglasProblem(alpha=a, beta=0.5, p1=1.0, p2=1.0, P_C=2.0)
        return grid_max_on_budget(prob, GridSpec(points_per_axis=2_000)).utility

    oracle_agrees = max(grid, key=oracle_utility) == result.alpha_star

    ok = all_admissible and maximizes and deterministic and final_matches and oracle_agrees
    _report(6, "every grid exponent is admissible and the best one wins", ok)
    assert all_admissible
    assert result.alpha_star == 0.1
    assert maximizes
    assert deterministic
    assert final_matches
    assert oracle_agrees


def test_criterion_7_compliance_penalties():
    rng = np.random.default_rng(7)
    argmax_ok = True
    minimal_ok = True
    binding_cases = 0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        names = [f"s{i:02d}" for i in range(n)]
        utilities = {name: float(rng.uniform(-100.0, 100.0)) for name in names}
        n_allowed = int(rng.integers(1, n))
        allowed = frozenset(rng.choice(names, size=n_allowed, replace=False).tolist())
        game = StrategyGame(utilities=utilities, allowed=allowed)
        margin = float(rng.uniform(1e-4, 10.0))

        tau = min_compliance_penalty(game, margin)
        penalized = apply_penalty(game, tau)
        winner, _ = best_overall(penalized)
        if winner not in allowed:
            argmax_ok = False
        if tau > 0.0:
            binding_cases += 1
            if compliance_dominant(apply_penalty(game, tau - margin / 2.0), margin):
                minimal_ok = False
    ok = argmax_ok and minimal_ok and binding_cases > 100
    _report(7, "minimal penalties flip the argmax and cannot be shaved", ok)
    assert argmax_ok
    assert minimal_ok
    assert binding_cases > 100


def test_criterion_8_simulator_determinism_and_structure(capsys):
    sweep_argv = ["sweep", "--seed", "0", "--format", "csv"]
    start = time.monotonic()
    assert main(sweep_argv) == 0
    first = capsys.readouterr().out
    elapsed = time.monotonic() - start
    assert main(sweep_argv) == 0
    second = capsys.readouterr().out
    byte_identical = first == second

    data_lines = [line for line in first.splitlines() if not line.startswith("#")]
    header = data_lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in data_lines[1:]]
    theta_a = default_config().thresholds()[0]
    below_threshold_all_trial = all(
        float(row["settlement_rate"]) == 0.0
        for row in rows
        if float(row["C_a"]) < theta_a
    )

    conservation = all(
        s.settlements + s.trials == s.filings for s in run_simulation(default_config())
    )

    high_C_b = replace(
        default_config(), case_template=CaseTemplate(p=0.5, W_B=100.0, S_B=60.0, C_b=30.0)
    )
    high_C_b_blocks_settlement = all(
        r.settlement_rate == 0.0 for r in sweep_admin_cost(high_C_b, default_sweep_grid())
    )

    ok = (
        byte_identical
        and below_threshold_all_trial
        and conservation
        and high_C_b_blocks_settlement
        and elapsed < 10.0
    )
    _report(8, "sweep output is byte-stable and settlement structure holds", ok)
    assert byte_identical
    assert below_threshold_all_trial
    assert conservation
    assert high_C_b_blocks_settlement
    assert elapsed < 10.0, f"default sweep took {elapsed:.1f} s"


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        prob = CobbDouglasProblem(
            alpha=rng.uniform(0.1, 3.0),
            beta=rng.uniform(0.1, 3.0),
            p1=rng.uniform(0.1, 10.0),
            p2=rng.uniform(0.1, 10.0),
            P_C=rng.uniform(0.1, 100.0),
        )
        point = np.array([rng.uniform(0.5, 20.0), rng.uniform(0.5, 20.0)])
        analytic = np.array(utility_gradient(prob, point[0], point[1]))
        numeric = finite_diff_gradient(
            lambda v: utility(prob, v[0], v[1]), point, 1e-6 * point
        )
        worst = max(worst, float(np.max(np.abs(numeric - analytic) / np.abs(analytic))))
    ok = worst <= 1e-5
    _report(9, "analytic partials match central differences", ok)
    assert worst <= 1e-5, f"worst relative gradient error {worst:.3g}"
