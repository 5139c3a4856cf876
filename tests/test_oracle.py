"""The grid maximizer and finite-difference check are the reference routes
for everything else, so they get validated first, against problems whose
answers are known without any calculus on the package side."""

import math

import numpy as np
import pytest

from lexopt import (
    CobbDouglasProblem,
    DomainError,
    GridSpec,
    InvalidParameterError,
    default_clamp_epsilon,
    finite_diff_gradient,
    grid_max_on_budget,
    solve_closed_form,
)


class TestGridMaxOnBudget:
    def test_symmetric_problem_peaks_at_center(self):
        prob = CobbDouglasProblem(0.5, 0.5, 1.0, 1.0, 2.0)
        gm = grid_max_on_budget(prob, GridSpec(points_per_axis=10_000))
        assert gm.L_C == pytest.approx(1.0, abs=1e-3)
        assert gm.R_B == pytest.approx(1.0, abs=1e-3)
        assert gm.utility == pytest.approx(1.0, rel=1e-6)

    def test_worked_example_fine_grid(self):
        # step 1e-4 along L_C in [0, 6]
        prob = CobbDouglasProblem(2.0, 1.0, 1.0, 1.0, 6.0)
        gm = grid_max_on_budget(prob, GridSpec(points_per_axis=60_001))
        assert gm.L_C == pytest.approx(4.0, abs=1e-3)
        assert gm.R_B == pytest.approx(2.0, abs=1e-3)
        assert gm.utility == pytest.approx(32.0, rel=1e-6)

    def test_never_exceeds_true_maximum(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            prob = CobbDouglasProblem(
                rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0),
                rng.uniform(0.1, 100.0),
            )
            sol = solve_closed_form(prob)
            gm = grid_max_on_budget(prob, GridSpec(points_per_axis=2_000))
            assert gm.utility <= sol.U_star * (1.0 + 1e-9)

    def test_samples_stay_strictly_interior(self):
        # the optimum hugs the L_C end of the line; the clamp must still hold
        prob = CobbDouglasProblem(3.0, 0.1, 1.0, 1.0, 10.0)
        spec = GridSpec(points_per_axis=500)
        gm = grid_max_on_budget(prob, spec)
        eps = default_clamp_epsilon(prob)
        assert eps <= gm.L_C <= prob.P_C / prob.p1 - eps
        assert gm.R_B > 0.0

    def test_doubling_density_halves_argmax_error_in_aggregate(self):
        # O(1/N) convergence: per-problem ratios are noisy when a coarse grid
        # point happens to land on the optimum, so the halving is asserted on
        # the summed error over the 20 draws.
        rng = np.random.default_rng(1234)
        err_n, err_2n = 0.0, 0.0
        for _ in range(20):
            prob = CobbDouglasProblem(
                rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0),
                rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0),
                rng.uniform(0.1, 100.0),
            )
            sol = solve_closed_form(prob)
            g1 = grid_max_on_budget(prob, GridSpec(points_per_axis=500))
            g2 = grid_max_on_budget(prob, GridSpec(points_per_axis=1_000))
            err_n += abs(g1.L_C - sol.L_C_star)
            err_2n += abs(g2.L_C - sol.L_C_star)
        assert err_2n <= 0.5 * err_n

    def test_deterministic(self):
        prob = CobbDouglasProblem(1.3, 0.7, 2.0, 3.0, 17.0)
        assert grid_max_on_budget(prob) == grid_max_on_budget(prob)

    def test_default_clamp_epsilon_value(self):
        prob = CobbDouglasProblem(1.0, 1.0, 0.5, 2.0, 8.0)
        assert default_clamp_epsilon(prob) == pytest.approx(1e-9 * (8.0 / 0.5), rel=1e-15)

    def test_clamp_wider_than_the_budget_line_is_a_domain_error(self):
        # eps = 1e-9 is more than half of P_C / p1 = 1e-10: no interior point
        # is left, and the grid would run backwards past zero
        prob = CobbDouglasProblem(0.5, 0.5, 1e10, 1.0, 1.0)
        with pytest.raises(DomainError, match="L_C range"):
            grid_max_on_budget(prob, GridSpec(points_per_axis=100))


class TestGridSpecValidation:
    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidParameterError, match="points_per_axis"):
            GridSpec(points_per_axis=99)

    def test_non_integer_points_rejected(self):
        with pytest.raises(InvalidParameterError, match="points_per_axis"):
            GridSpec(points_per_axis=1000.0)


class TestFiniteDiffGradient:
    def test_linear_field_is_exact(self):
        grad = finite_diff_gradient(lambda v: 3.0 * v[0] - 2.0 * v[1], (1.0, 1.0), 1e-6)
        assert grad[0] == pytest.approx(3.0, abs=1e-9)
        assert grad[1] == pytest.approx(-2.0, abs=1e-9)

    def test_constant_field_is_zero(self):
        grad = finite_diff_gradient(lambda v: 42.0, (5.0, -3.0), 1e-6)
        assert grad[0] == 0.0
        assert grad[1] == 0.0

    def test_cubic_matches_analytic(self):
        grad = finite_diff_gradient(lambda v: v[0] ** 3 + v[0] * v[1] ** 2, (2.0, 3.0), 1e-6)
        assert grad[0] == pytest.approx(3 * 4.0 + 9.0, rel=1e-9)
        assert grad[1] == pytest.approx(2 * 2.0 * 3.0, rel=1e-9)

    def test_per_coordinate_steps(self):
        grad = finite_diff_gradient(lambda v: v[0] * v[1], (2.0, 4.0), (1e-6, 1e-7))
        assert grad[0] == pytest.approx(4.0, rel=1e-8)
        assert grad[1] == pytest.approx(2.0, rel=1e-8)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(InvalidParameterError, match="h"):
            finite_diff_gradient(lambda v: v[0], (1.0,), 0.0)

    @pytest.mark.parametrize("h, shown", [("x", "'x'"), (10**400, "1" + "0" * 400),
                                          ([[1]], "[[1]]"), ([1e-6] * 3, "[1e-06, 1e-06, 1e-06]")])
    def test_step_that_is_not_numbers_rejected(self, h, shown):
        with pytest.raises(InvalidParameterError) as info:
            finite_diff_gradient(lambda v: v[0], (1.0, 2.0), h)
        assert info.value.field == "h"
        assert str(info.value) == f"h must be a number or one number per coordinate, got {shown}"

    @pytest.mark.parametrize("point, field", [((1.0, math.nan), "point[1]"), ((), "point"),
                                              (("x",), "point[0]")])
    def test_point_that_is_not_finite_numbers_rejected(self, point, field):
        with pytest.raises(InvalidParameterError) as info:
            finite_diff_gradient(lambda v: 0.0, point, 1e-6)
        assert info.value.field == field

    @pytest.mark.parametrize("point, h", [((1.0,), 1e308), ((1e308,), 1e308)])
    def test_stencil_leaving_the_float_range_reports_domain_error(self, point, h):
        with pytest.raises(DomainError, match="^finite-difference stencil leaves the float range"):
            finite_diff_gradient(lambda v: v[0], point, h)

    def test_stencil_leaving_domain_reports_domain_error(self):
        def strictly_positive_log(v):
            if v[0] <= 0.0:
                raise ValueError("log domain")
            return math.log(v[0])

        with pytest.raises(DomainError, match="domain"):
            finite_diff_gradient(strictly_positive_log, (1e-9,), 1e-6)
