import math
import sys

import numpy as np
import pytest

from lexopt import (
    CostSchedule,
    DomainError,
    InvalidParameterError,
    admissible,
    phi_component,
    phi_total,
    within_budget,
)

from conftest import PHI_TABLE


class TestCostScheduleValidation:
    def test_negative_fixed_charge(self):
        with pytest.raises(InvalidParameterError, match="C_b_fixed"):
            CostSchedule(-1.0, ((0.1, 0.1),))

    def test_empty_rates(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            CostSchedule(0.0, ())

    def test_malformed_pair(self):
        with pytest.raises(InvalidParameterError, match=r"rates\[0\]"):
            CostSchedule(0.0, ((0.1, 0.2, 0.3),))

    def test_negative_rate_names_position(self):
        with pytest.raises(InvalidParameterError, match=r"rates\[1\].alpha_minus"):
            CostSchedule(0.0, ((0.1, 0.1), (0.1, -0.2)))

    def test_nan_rate_rejected(self):
        with pytest.raises(InvalidParameterError, match="alpha_plus"):
            CostSchedule(0.0, ((math.nan, 0.1),))

    def test_non_numeric_rate_names_the_field(self):
        with pytest.raises(InvalidParameterError, match=r"rates\[0\].alpha_plus must be a number"):
            CostSchedule(0.0, (("a", "b"),))


class TestPhiComponent:
    @pytest.mark.parametrize("C_b,ap,am,L,with_fixed,expected", PHI_TABLE)
    def test_frozen_table(self, C_b, ap, am, L, with_fixed, expected):
        s = CostSchedule(C_b, ((ap, am),))
        assert phi_component(s, 0, L, with_fixed=with_fixed) == expected

    def test_direction_selects_the_rate(self):
        s = CostSchedule(0.0, ((2.0, 3.0),))
        assert phi_component(s, 0, 1.0) == 2.0
        assert phi_component(s, 0, -1.0) == 3.0

    def test_zero_activity_is_free_even_with_fixed_charge(self):
        s = CostSchedule(5.0, ((2.0, 3.0),))
        assert phi_component(s, 0, 0.0, with_fixed=True) == 0.0

    @pytest.mark.parametrize("i", [1, -1])
    def test_out_of_range_component(self, i):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        with pytest.raises(IndexError, match=f"component {i} is out of range for 1 rate pairs"):
            phi_component(s, i, 1.0)

    def test_component_index_past_the_digit_limit_is_shown_by_size(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        digits = sys.get_int_max_str_digits()
        if digits == 0:
            pytest.skip("this interpreter has no integer digit limit")
        with pytest.raises(IndexError, match=f"^component an integer of more than {digits} digits"):
            phi_component(s, -10**5000, 1.0)

    def test_nonfinite_activity_rejected(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        with pytest.raises(InvalidParameterError, match=r"L\[0\]"):
            phi_component(s, 0, math.inf)

    @pytest.mark.parametrize("C_b,ap,L,with_fixed", [
        (1e308, 1e308, 2.0, True),  # the rate term alone overflows
        (1e308, 1e308, -2.0, False),
        (1.7e308, 1e308, 1.0, True),  # each term fits, their sum does not
    ])
    def test_cost_past_the_float_range_is_a_domain_error(self, C_b, ap, L, with_fixed):
        s = CostSchedule(C_b, ((ap, ap),))
        with pytest.raises(DomainError, match=r"phi of component 0 leaves the float range"):
            phi_component(s, 0, L, with_fixed)
        with pytest.raises(DomainError):
            phi_total(s, [L], with_fixed)

    def test_largest_cost_keeps_its_bits(self):
        big = sys.float_info.max
        assert phi_component(CostSchedule(0.0, ((big, 0.0),)), 0, 1.0) == big
        assert phi_component(CostSchedule(big, ((0.0, 0.0),)), 0, -1.0, True) == big


class TestPhiTotal:
    def test_sums_components(self):
        s = CostSchedule(0.0, ((1.0, 2.0), (0.5, 0.25)))
        assert phi_total(s, [2.0, -4.0]) == 3.0

    def test_fixed_charge_applies_per_active_component(self):
        s = CostSchedule(1.0, ((1.0, 1.0), (1.0, 1.0), (1.0, 1.0)))
        assert phi_total(s, [2.0, 0.0, -3.0], with_fixed=True) == 7.0

    def test_adds_in_component_order(self):
        # a compensated sum would give 1e16 + 2; left to right, each + 1 rounds away
        s = CostSchedule(0.0, ((1.0, 0.0),) * 3)
        L = [1e16, 1.0, 1.0]
        total = 0.0
        for i, L_i in enumerate(L):
            total = total + phi_component(s, i, L_i)
        assert phi_total(s, L).hex() == total.hex() == (1e16).hex()

    def test_sum_past_the_float_range_is_a_domain_error(self):
        s = CostSchedule(0.0, ((1e308, 1e308),) * 2)
        assert phi_component(s, 1, 1.0) == 1e308
        with pytest.raises(DomainError, match="phi_total of 2 component costs leaves the"):
            phi_total(s, [1.0, -1.0])
        with pytest.raises(DomainError):
            admissible(s, [1.0, 1.0], 1.0)

    def test_length_mismatch(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        with pytest.raises(InvalidParameterError, match="components"):
            phi_total(s, [1.0, 2.0])

    def test_degree_one_homogeneity_without_fixed_charge(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            s = CostSchedule(0.0, tuple((rng.uniform(0, 3), rng.uniform(0, 3)) for _ in range(n)))
            L = rng.uniform(-10, 10, size=n)
            k = rng.uniform(0.1, 10)
            lhs = phi_total(s, k * L)
            rhs = k * phi_total(s, L)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    def test_fixed_charge_breaks_homogeneity(self):
        s = CostSchedule(1.0, ((1.0, 1.0),))
        assert phi_total(s, [2.0], with_fixed=True) == 3.0
        assert phi_total(s, [4.0], with_fixed=True) == 5.0


class TestAdmissible:
    def test_interior_cost_is_admissible(self):
        s = CostSchedule(0.0, ((0.2, 0.2),))
        assert admissible(s, [5.0], R_B=11.0)

    def test_zero_cost_is_not(self):
        s = CostSchedule(0.0, ((0.2, 0.2),))
        assert not admissible(s, [0.0], R_B=11.0)

    def test_cost_equal_to_bargain_is_not(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        assert not admissible(s, [3.0], R_B=3.0)

    def test_cost_above_bargain_is_not(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        assert not admissible(s, [3.5], R_B=3.0)

    def test_negative_bargain_admits_nothing(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        assert not admissible(s, [1.0], R_B=-2.0)
        assert not admissible(s, [0.0], R_B=-2.0)


class TestWithinBudget:
    def test_boundary_is_inclusive(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        assert within_budget(s, [3.0], R_B=2.0, P_C=5.0)

    def test_over_budget(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        assert not within_budget(s, [3.5], R_B=2.0, P_C=5.0)

    def test_independent_of_admissibility(self):
        s = CostSchedule(0.0, ((1.0, 1.0),))
        assert within_budget(s, [0.0], R_B=2.0, P_C=5.0)
        assert not admissible(s, [0.0], R_B=2.0)
