import math

import numpy as np
import pytest

from lexopt import (
    CobbDouglasProblem,
    DomainError,
    GridSpec,
    InvalidParameterError,
    OptimumSolution,
    first_order_residuals,
    grid_max_on_budget,
    mrs,
    solve_closed_form,
    utility,
    utility_gradient,
)


def random_problem(rng) -> CobbDouglasProblem:
    return CobbDouglasProblem(
        alpha=rng.uniform(0.1, 3.0),
        beta=rng.uniform(0.1, 3.0),
        p1=rng.uniform(0.1, 10.0),
        p2=rng.uniform(0.1, 10.0),
        P_C=rng.uniform(0.1, 100.0),
    )


class TestUtility:
    def test_square_root_form(self):
        assert utility(CobbDouglasProblem(0.5, 0.5, 1, 1, 2), 1.0, 1.0) == 1.0

    def test_integer_exponents(self):
        assert utility(CobbDouglasProblem(2, 1, 1, 1, 6), 4.0, 2.0) == 32.0

    def test_zero_argument_gives_zero(self):
        prob = CobbDouglasProblem(0.5, 0.5, 1, 1, 2)
        assert utility(prob, 0.0, 5.0) == 0.0
        assert utility(prob, 5.0, 0.0) == 0.0

    def test_overflowing_power_is_a_domain_error(self):
        with pytest.raises(DomainError) as info:
            utility(CobbDouglasProblem(300, 1, 1, 1, 6), 1e300, 1.0)
        assert str(info.value) == (
            "utility leaves the float range at L_C=1e+300, R_B=1.0: a power overflows")

    def test_negative_argument_rejected(self):
        prob = CobbDouglasProblem(0.5, 0.5, 1, 1, 2)
        with pytest.raises(InvalidParameterError, match="L_C"):
            utility(prob, -1.0, 1.0)
        with pytest.raises(InvalidParameterError, match="R_B"):
            utility(prob, 1.0, -1.0)


class TestMrs:
    def test_worked_values(self):
        assert mrs(CobbDouglasProblem(2, 1, 1, 1, 6), 4.0, 2.0) == 1.0
        assert mrs(CobbDouglasProblem(1, 3, 1, 1, 4), 1.0, 6.0) == 2.0

    def test_zero_L_C_is_a_domain_error(self):
        with pytest.raises(DomainError, match="L_C"):
            mrs(CobbDouglasProblem(1, 1, 1, 1, 2), 0.0, 1.0)

    @pytest.mark.parametrize("point", [(-1.0, 1.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_point_off_the_interior_is_a_domain_error(self, point):
        with pytest.raises(DomainError) as info:
            mrs(CobbDouglasProblem(0.5, 0.5, 1, 1, 2), *point)
        assert str(info.value) == (
            "mrs needs finite, strictly positive L_C and R_B, "
            f"got L_C={point[0]!r}, R_B={point[1]!r}")

    @pytest.mark.parametrize("exponents, point", [
        ((0.5, 0.5), (1e-320, 1e300)),  # the quotient overflows to inf
        ((1.0, 1e-300), (1e-300, 1.0)),  # beta * L_C underflows to 0
    ])
    def test_quotient_past_the_float_range_is_a_domain_error(self, exponents, point):
        with pytest.raises(DomainError) as info:
            mrs(CobbDouglasProblem(*exponents, 1, 1, 2), *point)
        assert str(info.value) == (
            f"mrs leaves the float range at L_C={point[0]!r}, R_B={point[1]!r}")

    def test_equals_price_ratio_at_optimum(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            ratio = prob.p1 / prob.p2
            assert mrs(prob, sol.L_C_star, sol.R_B_star) == pytest.approx(ratio, rel=1e-9)


class TestSolveClosedForm:
    def test_symmetric_unit_problem(self):
        sol = solve_closed_form(CobbDouglasProblem(0.5, 0.5, 1, 1, 2))
        assert sol.L_C_star == 1.0
        assert sol.R_B_star == 1.0
        assert sol.lam == 0.5
        assert sol.U_star == 1.0
        assert sol.kkt_ok

    def test_worked_example_exact(self):
        sol = solve_closed_form(CobbDouglasProblem(2, 1, 1, 1, 6))
        assert sol.L_C_star == 4.0
        assert sol.R_B_star == 2.0
        assert sol.lam == 16.0
        assert sol.U_star == 32.0
        assert (sol.lam / 3.0) * 6.0 == 32.0

    def test_worked_example_against_grid_oracle(self):
        prob = CobbDouglasProblem(2, 1, 1, 1, 6)
        sol = solve_closed_form(prob)
        gm = grid_max_on_budget(prob, GridSpec(points_per_axis=60_001))
        assert gm.L_C == pytest.approx(sol.L_C_star, abs=1e-3)
        assert gm.utility <= sol.U_star * (1 + 1e-9)
        assert gm.utility == pytest.approx(sol.U_star, rel=1e-6)

    def test_asymmetric_prices(self):
        sol = solve_closed_form(CobbDouglasProblem(1, 1, 2, 1, 8))
        assert sol.L_C_star == 2.0
        assert sol.R_B_star == 4.0

    def test_budget_binds(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            spent = prob.p1 * sol.L_C_star + prob.p2 * sol.R_B_star
            assert spent == pytest.approx(prob.P_C, rel=1e-12)

    def test_identity_residual_small_and_kkt_holds(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            sol = solve_closed_form(random_problem(rng))
            assert sol.identity_residual <= 1e-9
            assert sol.kkt_ok
            assert sol.lam > 0.0

    def test_demands_scale_linearly_with_resources(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            prob = random_problem(rng)
            k = rng.uniform(0.5, 4.0)
            scaled = CobbDouglasProblem(prob.alpha, prob.beta, prob.p1, prob.p2, k * prob.P_C)
            a, b = solve_closed_form(prob), solve_closed_form(scaled)
            assert b.L_C_star == pytest.approx(k * a.L_C_star, rel=1e-12)
            assert b.R_B_star == pytest.approx(k * a.R_B_star, rel=1e-12)

    def test_beats_grid_oracle_never_loses(self):
        rng = np.random.default_rng(25)
        points = 10_000
        for _ in range(50):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            gm = grid_max_on_budget(prob, GridSpec(points_per_axis=points))
            assert gm.utility <= sol.U_star * (1 + 1e-9)
            assert gm.utility == pytest.approx(sol.U_star, rel=1e-6)
            # the grid argmax brackets the true optimum within one grid step
            step = (prob.P_C / prob.p1) / (points - 1)
            assert abs(gm.L_C - sol.L_C_star) <= step * 1.0000001
            assert abs(gm.R_B - sol.R_B_star) <= step * (prob.p1 / prob.p2) * 1.0000001

    @pytest.mark.parametrize("field", ["alpha", "beta", "p1", "p2", "P_C"])
    def test_nonpositive_parameters_rejected(self, field):
        kw = dict(alpha=1.0, beta=1.0, p1=1.0, p2=1.0, P_C=1.0)
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match=field):
                CobbDouglasProblem(**{**kw, field: bad})


    def test_underflowing_utility_is_a_domain_error(self):
        # U* = L_C**2000 * R_B underflows to 0, leaving the identity residual undefined
        with pytest.raises(DomainError, match="U\\* underflows"):
            solve_closed_form(CobbDouglasProblem(2000.0, 1.0, 1.0, 1.0, 0.5))

    def test_underflowing_demand_is_a_domain_error(self):
        # L_C* underflows to 0, which cannot be raised to alpha - 1 < 0
        with pytest.raises(DomainError) as info:
            solve_closed_form(CobbDouglasProblem(1e-320, 1.0, 1.0, 1.0, 1e-10))
        assert str(info.value) == ("optimum leaves the float range at L_C*=0.0, R_B*=1e-10: "
                                   "0.0 cannot be raised to a negative power")

    @pytest.mark.parametrize("prob, point", [
        ((3.0, 3.0, 1.0, 1.0, 1e200), "L_C*=5e+199, R_B*=5e+199"),  # L_C* ** 3
        ((1e-320, 1.0, 1.0, 1.0, 6.0), "L_C*=6e-320, R_B*=6.0"),  # L_C* ** (alpha - 1)
    ])
    def test_overflowing_power_is_a_domain_error(self, prob, point):
        with pytest.raises(DomainError) as info:
            solve_closed_form(CobbDouglasProblem(*prob))
        # worded alike on every platform, not as the errno tuple of the OverflowError
        assert str(info.value) == f"optimum leaves the float range at {point}: a power overflows"

    @pytest.mark.parametrize(
        "prob",
        [
            # alpha * P_C overflows: L_C* = inf, and lambda and U* with it
            (1e308, 1.0, 1.0, 1.0, 6.0),
            # R_B* = inf
            (1.0, 1e308, 1.0, 1.0, 6.0),
            # L_C* = inf / inf = nan
            (1e308, 1.0, 1e308, 1.0, 6.0),
            # finite demands and U* = 1e300, but lambda = R_B* / p1 overflows to inf
            (1.0, 1.0, 1e-160, 2.5e-161, 1e-10),
        ],
    )
    def test_non_finite_optimum_is_a_domain_error(self, prob):
        with pytest.raises(DomainError, match="optimum is not finite"):
            solve_closed_form(CobbDouglasProblem(*prob))

    def test_zero_over_zero_demand_is_a_domain_error(self):
        # alpha * P_C and (alpha + beta) * p1 both underflow to 0
        with pytest.raises(DomainError, match="demands are undefined"):
            solve_closed_form(CobbDouglasProblem(1e-300, 1e-300, 1e-300, 1.0, 1e-300))


class TestFirstOrderResiduals:
    def test_vanish_at_optimum(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            r1, r2, r3 = first_order_residuals(prob, sol)
            assert abs(r1) <= 1e-9 * sol.lam * prob.p1
            assert abs(r2) <= 1e-9 * sol.lam * prob.p2
            assert abs(r3) <= 1e-9 * prob.P_C

    def test_perturbed_multiplier_shifts_by_prices(self):
        prob = CobbDouglasProblem(0.5, 0.5, 1, 1, 2)
        sol = solve_closed_form(prob)
        bumped = OptimumSolution(
            L_C_star=sol.L_C_star, R_B_star=sol.R_B_star, lam=sol.lam + 1.0,
            U_star=sol.U_star, kkt_ok=sol.kkt_ok, identity_residual=sol.identity_residual,
        )
        r1, r2, _ = first_order_residuals(prob, bumped)
        assert r1 == pytest.approx(-prob.p1, rel=1e-12)
        assert r2 == pytest.approx(-prob.p2, rel=1e-12)

    def test_off_optimum_point_has_nonzero_residual(self):
        prob = CobbDouglasProblem(0.5, 0.5, 1, 1, 2)
        sol = solve_closed_form(prob)
        off = OptimumSolution(
            L_C_star=1.5, R_B_star=0.5, lam=sol.lam,
            U_star=sol.U_star, kkt_ok=True, identity_residual=0.0,
        )
        r1, _, _ = first_order_residuals(prob, off)
        assert abs(r1) > 1e-3


class TestUtilityGradient:
    def test_matches_finite_differences(self):
        from lexopt import finite_diff_gradient

        rng = np.random.default_rng(27)
        for _ in range(20):
            prob = random_problem(rng)
            point = np.array([rng.uniform(0.5, 10.0), rng.uniform(0.5, 10.0)])
            analytic = utility_gradient(prob, point[0], point[1])
            numeric = finite_diff_gradient(
                lambda v: utility(prob, v[0], v[1]), point, 1e-6 * point
            )
            assert numeric[0] == pytest.approx(analytic[0], rel=1e-5)
            assert numeric[1] == pytest.approx(analytic[1], rel=1e-5)

    @pytest.mark.parametrize("point", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0),
                                       (1.0, math.nan), (math.inf, 1.0)])
    def test_boundary_is_a_domain_error(self, point):
        with pytest.raises(DomainError) as info:
            utility_gradient(CobbDouglasProblem(0.5, 0.5, 1, 1, 2), *point)
        assert str(info.value) == (
            "utility gradient needs finite, strictly positive L_C and R_B, "
            f"got L_C={point[0]!r}, R_B={point[1]!r}")

    @pytest.mark.parametrize(
        "exponents, point",
        [
            ((300, 300), (1e300, 1.0)),  # L_C**alpha
            ((300, 300), (1.0, 1e300)),  # R_B**beta
            ((300, 300), (np.float64(1e300), 1.0)),  # a numpy float overflows to inf instead
            ((0.01, 1), (5e-324, 1.0)),  # L_C**(alpha - 1) at a subnormal L_C
        ],
    )
    def test_overflowing_power_is_a_domain_error(self, exponents, point):
        with pytest.raises(DomainError) as info:
            utility_gradient(CobbDouglasProblem(*exponents, 1, 1, 6), *point)
        L_C, R_B = map(float, point)
        assert str(info.value) == (
            f"utility gradient leaves the float range at L_C={L_C!r}, R_B={R_B!r}: "
            "a power overflows")
