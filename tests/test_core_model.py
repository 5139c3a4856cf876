import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexopt import (
    CaseParameters,
    CostRegime,
    Decision,
    DomainError,
    HandRuleInputs,
    InvalidParameterError,
    classify_scenario,
    cooperation_possible,
    default_thresholds,
    derive_wta_wtp,
    hand_liability,
    reasonable_bargain,
)

RUNNING_CASE = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=10.0, C_b=4.0)


class TestReasonableBargain:
    def test_running_example(self):
        d = reasonable_bargain(RUNNING_CASE)
        assert d.R_B == 44.0
        assert d.P_C == 55.0
        assert d.L_C == 11.0
        assert not d.negative_bargain

    def test_all_zero_benefits(self):
        d = reasonable_bargain(CaseParameters(p=0.0, W_B=100.0, S_B=0.0, C_a=0.0, C_b=0.0))
        assert (d.R_B, d.P_C, d.L_C) == (0.0, 0.0, 0.0)

    def test_certain_win_no_bargain_costs(self):
        d = reasonable_bargain(CaseParameters(p=1.0, W_B=80.0, S_B=80.0, C_a=20.0, C_b=0.0))
        assert (d.R_B, d.P_C, d.L_C) == (70.0, 80.0, 10.0)

    def test_costs_can_swamp_benefits(self):
        d = reasonable_bargain(CaseParameters(p=0.1, W_B=10.0, S_B=0.0, C_a=50.0, C_b=50.0))
        assert d.R_B < 0.0
        assert d.negative_bargain
        # reported as-is, never clamped
        assert d.R_B == d.P_C - d.L_C

    @pytest.mark.parametrize("kw", [
        dict(p=1.0, W_B=1e308, S_B=1e308, C_a=1e308, C_b=1e308),  # both halves: inf - inf
        dict(p=1.0, W_B=1e308, S_B=1e308, C_a=0.0, C_b=0.0),  # P_C
        dict(p=0.0, W_B=0.0, S_B=0.0, C_a=0.0, C_b=1e308),  # L_C
    ])
    def test_a_half_past_the_float_range_is_a_domain_error(self, kw):
        with pytest.raises(DomainError, match="reasonable bargain leaves the float range"):
            reasonable_bargain(CaseParameters(**kw))

    def test_the_largest_halves_keep_their_bits(self):
        big = sys.float_info.max
        d = reasonable_bargain(CaseParameters(p=1.0, W_B=big, S_B=0.0, C_a=big, C_b=0.0))
        assert (d.R_B, d.P_C, d.L_C) == (0.0, 0.5 * big, 0.5 * big)

    def test_identity_holds_to_ulp_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            c = CaseParameters(
                p=rng.uniform(0, 1), W_B=rng.uniform(0, 1e6), S_B=rng.uniform(0, 1e6),
                C_a=rng.uniform(0, 1e6), C_b=rng.uniform(0, 1e6),
            )
            d = reasonable_bargain(c)
            tol = 2 * max(math.ulp(abs(d.P_C)), math.ulp(abs(d.L_C)))
            assert abs(d.R_B + d.L_C - d.P_C) <= tol

    def test_monotone_in_each_primitive(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            kw = dict(
                p=rng.uniform(0, 0.9), W_B=rng.uniform(0, 100), S_B=rng.uniform(0, 100),
                C_a=rng.uniform(0, 100), C_b=rng.uniform(0, 100),
            )
            base = reasonable_bargain(CaseParameters(**kw)).R_B
            assert reasonable_bargain(CaseParameters(**{**kw, "p": kw["p"] + 0.1})).R_B >= base
            assert reasonable_bargain(CaseParameters(**{**kw, "S_B": kw["S_B"] + 1})).R_B >= base
            assert reasonable_bargain(CaseParameters(**{**kw, "C_a": kw["C_a"] + 1})).R_B <= base
            assert reasonable_bargain(CaseParameters(**{**kw, "C_b": kw["C_b"] + 1})).R_B <= base

    @pytest.mark.parametrize(
        "field,value",
        [("p", -0.1), ("p", 1.1), ("p", math.nan), ("W_B", -1.0), ("S_B", -2.0),
         ("C_a", -0.5), ("C_b", math.inf)],
    )
    def test_invalid_primitives_name_the_field(self, field, value):
        kw = dict(p=0.5, W_B=1.0, S_B=1.0, C_a=1.0, C_b=1.0)
        kw[field] = value
        with pytest.raises(InvalidParameterError, match=field):
            CaseParameters(**kw)


class TestClassifyScenario:
    def test_low_cb_high_ca_settles(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=50.0, C_b=1.0)
        s = classify_scenario(c, theta_a=10.0, theta_b=5.0)
        assert s.label is CostRegime.LOW_CB_HIGH_CA
        assert s.decision is Decision.SETTLE

    def test_low_cb_low_ca_tries(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=1.0, C_b=1.0)
        s = classify_scenario(c, theta_a=10.0, theta_b=5.0)
        assert s.label is CostRegime.LOW_CB_LOW_CA
        assert s.decision is Decision.TRIAL

    def test_high_cb_high_ca_tries(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=50.0, C_b=50.0)
        s = classify_scenario(c, theta_a=10.0, theta_b=5.0)
        assert s.label is CostRegime.HIGH_CB_HIGH_CA
        assert s.decision is Decision.TRIAL

    def test_high_cb_low_ca_tries(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=1.0, C_b=50.0)
        s = classify_scenario(c, theta_a=10.0, theta_b=5.0)
        assert s.label is CostRegime.HIGH_CB_LOW_CA
        assert s.decision is Decision.TRIAL

    def test_thresholds_default_to_half_P_C(self):
        assert default_thresholds(RUNNING_CASE) == (27.5, 27.5)
        s = classify_scenario(RUNNING_CASE)  # C_a=10 and C_b=4 both land Low
        assert s.label is CostRegime.LOW_CB_LOW_CA

    def test_threshold_boundary_counts_high(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=10.0, C_b=5.0)
        s = classify_scenario(c, theta_a=10.0, theta_b=5.0)
        assert s.label is CostRegime.HIGH_CB_HIGH_CA

    def test_settle_inequality_is_strict(self):
        # p*W_B - C_a == S_B - C_b exactly: no settlement
        c = CaseParameters(p=0.5, W_B=100.0, S_B=31.0, C_a=20.0, C_b=1.0)
        assert c.p * c.W_B - c.C_a == c.S_B - c.C_b
        s = classify_scenario(c, theta_a=10.0, theta_b=5.0)
        assert s.label is CostRegime.LOW_CB_HIGH_CA
        assert s.decision is Decision.TRIAL

    def test_settle_only_in_low_cb_high_ca(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            c = CaseParameters(
                p=rng.uniform(0, 1), W_B=rng.uniform(0, 200), S_B=rng.uniform(0, 200),
                C_a=rng.uniform(0, 100), C_b=rng.uniform(0, 100),
            )
            s = classify_scenario(c, theta_a=rng.uniform(1, 50), theta_b=rng.uniform(1, 50))
            if s.decision is Decision.SETTLE:
                assert s.label is CostRegime.LOW_CB_HIGH_CA

    @pytest.mark.parametrize("theta_a,theta_b", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0)])
    def test_nonpositive_thresholds_rejected(self, theta_a, theta_b):
        with pytest.raises(InvalidParameterError, match="theta"):
            classify_scenario(RUNNING_CASE, theta_a, theta_b)

    ZERO_POOL = CaseParameters(p=0.0, W_B=100.0, S_B=0.0, C_a=1.0, C_b=1.0)

    @pytest.mark.parametrize("case,theta_a,theta_b,message", [
        (ZERO_POOL, None, None,
         "theta_a and theta_b default to P_C / 2 = (p * W_B + S_B) / 4, which must be finite "
         "and > 0, got 0.0 from p=0.0, W_B=100.0, S_B=0.0"),
        (ZERO_POOL, 3.0, None,
         "theta_b defaults to P_C / 2 = (p * W_B + S_B) / 4, which must be finite and > 0, "
         "got 0.0 from p=0.0, W_B=100.0, S_B=0.0"),
        # (p * W_B + S_B) / 4 underflows to 0
        (CaseParameters(p=0.0, W_B=1.0, S_B=5e-324, C_a=1.0, C_b=1.0), None, 3.0,
         "theta_a defaults to P_C / 2 = (p * W_B + S_B) / 4, which must be finite and > 0, "
         "got 0.0 from p=0.0, W_B=1.0, S_B=5e-324"),
        (CaseParameters(p=1.0, W_B=1e308, S_B=1e308, C_a=1.0, C_b=1.0), None, None,
         "theta_a and theta_b default to P_C / 2 = (p * W_B + S_B) / 4, which must be finite "
         "and > 0, got inf from p=1.0, W_B=1e+308, S_B=1e+308"),
    ], ids=["zero", "zero-theta_a-given", "underflow", "inf"])
    def test_default_thresholds_that_are_not_positive_name_their_inputs(
        self, case, theta_a, theta_b, message
    ):
        # a default of 0.0 was refused as "theta_a must be > 0, got 0.0"
        with pytest.raises(InvalidParameterError) as refused:
            classify_scenario(case, theta_a, theta_b)
        assert str(refused.value) == message

    def test_given_thresholds_are_checked_before_the_defaults(self):
        with pytest.raises(InvalidParameterError, match="^theta_a must be > 0, got -1.0$"):
            classify_scenario(self.ZERO_POOL, -1.0, None)
        s = classify_scenario(self.ZERO_POOL, 1.0, 1.0)  # no default needed
        assert s.label is CostRegime.HIGH_CB_HIGH_CA


class TestHandLiability:
    def test_cheap_precaution_liable(self):
        assert hand_liability(HandRuleInputs(B_prec=10.0, P_harm=0.1, L_harm=200.0))

    def test_boundary_not_liable(self):
        assert not hand_liability(HandRuleInputs(B_prec=20.0, P_harm=0.1, L_harm=200.0))

    def test_no_expected_harm_not_liable(self):
        assert not hand_liability(HandRuleInputs(B_prec=0.0, P_harm=0.0, L_harm=100.0))

    def test_monotone_in_harm(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            h = HandRuleInputs(
                B_prec=rng.uniform(0, 50), P_harm=rng.uniform(0, 1), L_harm=rng.uniform(0, 500)
            )
            worse = HandRuleInputs(B_prec=h.B_prec, P_harm=h.P_harm, L_harm=h.L_harm + 100.0)
            if hand_liability(h):
                assert hand_liability(worse)

    @pytest.mark.parametrize(
        "field,value", [("B_prec", -1.0), ("P_harm", 1.5), ("P_harm", -0.1), ("L_harm", -3.0)]
    )
    def test_invalid_inputs_rejected(self, field, value):
        kw = dict(B_prec=1.0, P_harm=0.5, L_harm=1.0)
        kw[field] = value
        with pytest.raises(InvalidParameterError, match=field):
            HandRuleInputs(**kw)


class TestCooperation:
    def test_gap_allows_cooperation(self):
        assert cooperation_possible(40.0, 50.0)

    def test_boundary_allows_cooperation(self):
        assert cooperation_possible(50.0, 50.0)

    def test_crossed_values_block_cooperation(self):
        assert not cooperation_possible(51.0, 50.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidParameterError, match="wta"):
            cooperation_possible(math.nan, 1.0)
        with pytest.raises(InvalidParameterError, match="wtp"):
            cooperation_possible(1.0, math.nan)


class TestWtaWtp:
    def test_full_shares(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=0.0, C_a=10.0, C_b=0.0)
        assert derive_wta_wtp(c, 1.0, 1.0) == (40.0, 60.0)

    def test_zero_admin_cost_collapses_the_bracket(self):
        c = CaseParameters(p=0.5, W_B=100.0, S_B=0.0, C_a=0.0, C_b=0.0)
        wta, wtp = derive_wta_wtp(c, 1.0, 1.0)
        assert wta == wtp == 50.0
        assert cooperation_possible(wta, wtp)

    def test_half_shares_with_zero_benefit(self):
        c = CaseParameters(p=1.0, W_B=0.0, S_B=0.0, C_a=5.0, C_b=0.0)
        assert derive_wta_wtp(c, 0.5, 0.5) == (-2.5, 2.5)

    def test_bracket_always_brackets(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            c = CaseParameters(
                p=rng.uniform(0, 1), W_B=rng.uniform(0, 100), S_B=0.0,
                C_a=rng.uniform(0, 50), C_b=0.0,
            )
            wta, wtp = derive_wta_wtp(c, rng.uniform(0, 1), rng.uniform(0, 1))
            assert cooperation_possible(wta, wtp)

    BIG = sys.float_info.max

    @settings(max_examples=1000)
    @given(
        p=st.floats(0.0, 1.0),
        amounts=st.lists(st.floats(0.0, allow_infinity=False) | st.sampled_from([0.0, BIG]),
                         min_size=4, max_size=4),
        shares=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @example(p=1.0, amounts=[BIG] * 4, shares=(1.0, 1.0))
    @example(p=1.0, amounts=[BIG, 0.0, BIG, 0.0], shares=(0.0, 1e-300))
    @example(p=5e-324, amounts=[BIG, 0.0, 0.0, 0.0], shares=(0.0, 0.0))
    def test_the_bracket_holds_the_expected_judgment_or_overflows(self, p, amounts, shares):
        W_B, S_B, C_a, C_b = amounts
        c = CaseParameters(p=p, W_B=W_B, S_B=S_B, C_a=C_a, C_b=C_b)
        try:
            wta, wtp = derive_wta_wtp(c, *shares)
        except DomainError:
            # only a WTP past the largest float is refused
            assert c.p * c.W_B + shares[1] * c.C_a == math.inf
            return
        assert wta <= c.p * c.W_B <= wtp < math.inf
        assert cooperation_possible(wta, wtp) is True

    def test_wtp_past_the_float_range_is_a_domain_error(self):
        c = CaseParameters(p=1.0, W_B=1e308, S_B=1e308, C_a=1e308, C_b=1e308)
        with pytest.raises(DomainError, match="wtp leaves the float range"):
            derive_wta_wtp(c, 1.0, 1.0)
        assert derive_wta_wtp(c, 1.0, 0.5) == (0.0, 1.5e308)

    @pytest.mark.parametrize("plaintiff,defendant", [(-0.1, 0.5), (0.5, 1.5)])
    def test_out_of_range_shares_rejected(self, plaintiff, defendant):
        with pytest.raises(InvalidParameterError, match="cost_share"):
            derive_wta_wtp(RUNNING_CASE, plaintiff, defendant)
