"""An integer past the float range is an invalid field at every library entry point.

float() refuses such an integer with a bare OverflowError, and str() refuses
one past the interpreter's digit limit with a bare ValueError; each entry
point must instead raise InvalidParameterError naming the field.
"""

import dataclasses
import sys

import pytest

from lexopt.alpha_search import AlphaSearchConfig
from lexopt.cobb_douglas import CobbDouglasProblem, utility
from lexopt.compliance import (StrategyGame, apply_penalty, compliance_dominant,
                               min_compliance_penalty)
from lexopt.core_model import (CaseParameters, HandRuleInputs, classify_scenario,
                               cooperation_possible)
from lexopt.cost_schedule import CostSchedule
from lexopt.errors import InvalidParameterError
from lexopt.oracle import GridSpec
from lexopt.sim import ExponentialHarm, default_config

HUGE = 10**400  # 401 digits
CASE = CaseParameters(p=0.5, W_B=100.0, S_B=60.0, C_a=10.0, C_b=4.0)
PROBLEM = CobbDouglasProblem(alpha=2.0, beta=1.0, p1=1.0, p2=1.0, P_C=6.0)
GAME = StrategyGame(utilities={"a": 3.0, "b": 1.0}, allowed=frozenset({"b"}))

# field named in the error -> a call that passes HUGE there
CASES = {
    "CaseParameters.W_B": ("W_B", lambda: CaseParameters(p=0.5, W_B=HUGE, S_B=1, C_a=1, C_b=1)),
    "CobbDouglasProblem.alpha": (
        "alpha", lambda: CobbDouglasProblem(alpha=HUGE, beta=1, p1=1, p2=1, P_C=6)),
    "HandRuleInputs.B_prec": ("B_prec", lambda: HandRuleInputs(B_prec=HUGE, P_harm=0.5, L_harm=1)),
    "CostSchedule.C_b_fixed": ("C_b_fixed", lambda: CostSchedule(C_b_fixed=HUGE, rates=((1, 1),))),
    "CostSchedule.rates": (
        r"rates\[0\].alpha_minus", lambda: CostSchedule(C_b_fixed=0, rates=((1, HUGE),))),
    "AlphaSearchConfig.beta": (
        "beta", lambda: AlphaSearchConfig(alpha_grid=(1.0,), beta=HUGE, p1=1, p2=1, P_C=1)),
    "AlphaSearchConfig.alpha_grid": (
        r"alpha_grid\[0\]", lambda: AlphaSearchConfig(alpha_grid=(HUGE,), beta=1, p1=1, p2=1, P_C=1)),
    "ExponentialHarm.decay": ("decay", lambda: ExponentialHarm(p0=0.1, decay=HUGE)),
    "StrategyGame.utilities": (
        r"utilities\['a'\]",
        lambda: StrategyGame(utilities={"a": HUGE, "b": 1}, allowed=frozenset({"b"}))),
    "classify_scenario.theta_a": ("theta_a", lambda: classify_scenario(CASE, theta_a=HUGE)),
    "cooperation_possible.wtp": ("wtp", lambda: cooperation_possible(1.0, HUGE)),
    "utility.L_C": ("L_C", lambda: utility(PROBLEM, HUGE, 1.0)),
    "min_compliance_penalty.margin": ("margin", lambda: min_compliance_penalty(GAME, HUGE)),
    "apply_penalty.tau": ("tau", lambda: apply_penalty(GAME, HUGE)),
    "compliance_dominant.margin": ("margin", lambda: compliance_dominant(GAME, HUGE)),
}


@pytest.mark.parametrize("case", CASES)
def test_integer_past_float_range_is_a_named_invalid_field(case):
    field, call = CASES[case]
    with pytest.raises(InvalidParameterError,
                       match=f"^{field} must be within the float range, got an integer of 401 digits$"):
        call()


# case -> (a call that passes an integer n to the field, its message up to the value)
PAST_DIGIT_LIMIT = {
    "n_injurers": (lambda n: dataclasses.replace(default_config(), n_injurers=n),
                   "n_injurers must be within the float range, got"),
    "negative n_injurers": (lambda n: dataclasses.replace(default_config(), n_injurers=-n),
                            "n_injurers must be >= 1, got"),
    "negative ticks": (lambda n: dataclasses.replace(default_config(), ticks=-n),
                       "ticks must be >= 1, got"),
    "negative stochastic seed": (
        lambda n: dataclasses.replace(default_config(), seed=-n, stochastic=True),
        "seed must be >= 0 in stochastic mode, got"),
    "stochastic n_injurers": (
        lambda n: dataclasses.replace(default_config(), n_injurers=n, stochastic=True),
        "n_injurers must be <= 9223372036854775807 in stochastic mode, got"),
    "GridSpec.points_per_axis": (lambda n: GridSpec(points_per_axis=-n),
                                 "points_per_axis must be an integer >= 100, got"),
}


@pytest.mark.parametrize("case", PAST_DIGIT_LIMIT)
def test_integer_past_str_digit_limit_is_a_named_invalid_field(case):
    limit = sys.get_int_max_str_digits()
    if limit == 0:
        pytest.skip("this interpreter has no integer digit limit")
    call, check = PAST_DIGIT_LIMIT[case]
    with pytest.raises(InvalidParameterError,
                       match=f"^{check} an integer of more than {limit} digits$"):
        call(10 ** (limit + 700))
