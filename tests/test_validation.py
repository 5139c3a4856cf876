"""An integer past the float range is an invalid field at every library entry point,
and a mode of the wrong type a TypeError naming it.

float() refuses such an integer with a bare OverflowError, and str() refuses
one past the interpreter's digit limit with a bare ValueError; each entry
point must instead raise InvalidParameterError naming the field.

A grid of plain floats is checked in C; it must give what the per-element
path gives, the same grid or the same error text.

Every InvalidParameterError carries the field it names, and every public
callable keeps the README's input contract (its "Errors" section) for
arguments of any kind.
"""

import ast
import dataclasses
import enum
import inspect
import itertools
import math
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexopt.alpha_search import AlphaSearchConfig, Objective, search_alpha
from lexopt.cobb_douglas import CobbDouglasProblem, solve_closed_form, utility
from lexopt.compliance import (StrategyGame, apply_penalty, compliance_dominant,
                               min_compliance_penalty)
from lexopt.core_model import (CaseParameters, HandRuleInputs, classify_scenario,
                               cooperation_possible, derive_wta_wtp, hand_liability,
                               reasonable_bargain)
from lexopt.cost_schedule import CostSchedule, admissible, phi_component, phi_total, within_budget
from lexopt._validation import (as_float, require_count, require_each, require_finite,
                                require_increasing, require_nonnegative, require_positive,
                                require_unit_interval)
from lexopt.errors import InvalidParameterError, LexoptError, invalid
from lexopt.hessian import (BorderedHessian, HessianVariant, build_bordered_hessian,
                            classify_second_order, hessian_determinant)
from lexopt.oracle import GridSpec
from lexopt.sim import INITIAL_STATE, CaseTemplate, ExponentialHarm, default_config, step

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


GRID = (0.25, 0.5, 1.0, 2.0, 3.0)
SCHEDULE = CostSchedule(1.0, ((0.5, 0.5),))


def search(beta=0.5, **modes):
    return search_alpha(AlphaSearchConfig(GRID, beta=beta, p1=1, p2=1, P_C=1, **modes))


# case -> (the message, a call that passes a mode of the wrong type); a str or an
# int is truthy and an enum's value is not its member, so each would pick a mode
WRONG_TYPES = {
    "AlphaSearchConfig.objective": (
        "objective must be an Objective, got 'MaxUtility'", lambda: search(objective="MaxUtility")),
    "AlphaSearchConfig.hessian_variant": (
        "hessian_variant must be a HessianVariant, got 'DirectForm'",
        lambda: search(hessian_variant="DirectForm")),
    "AlphaSearchConfig.include_cross_terms": (
        "include_cross_terms must be a bool, got 'false'",
        lambda: search(1.0, hessian_variant=HessianVariant.DIRECT_FORM, include_cross_terms="false")),
    "build_bordered_hessian.include_cross_terms": (
        "include_cross_terms must be a bool, got 1",
        lambda: build_bordered_hessian(PROBLEM, solve_closed_form(PROBLEM),
                                       HessianVariant.SHADOW_FORM, 1)),
    "build_bordered_hessian.variant": (
        "variant must be a HessianVariant, got 'ShadowForm'",
        lambda: build_bordered_hessian(PROBLEM, solve_closed_form(PROBLEM), "ShadowForm")),
    "hessian_determinant.variant": (
        "variant must be a HessianVariant, got 'x'",
        lambda: hessian_determinant(BorderedHessian(np.eye(3) - 1, "x", "no"))),
    "hessian_determinant.include_cross_terms": (
        "include_cross_terms must be a bool, got 'no'",
        lambda: hessian_determinant(BorderedHessian(np.eye(3) - 1, HessianVariant.SHADOW_FORM,
                                                    "no"))),
    "classify_second_order.include_cross_terms": (
        "include_cross_terms must be a bool, got None",
        lambda: classify_second_order(PROBLEM, solve_closed_form(PROBLEM), None)),
    "phi_component.with_fixed": (
        "with_fixed must be a bool, got 'no'", lambda: phi_component(SCHEDULE, 0, 2.0, "no")),
    "phi_total.with_fixed": (
        "with_fixed must be a bool, got 0", lambda: phi_total(SCHEDULE, [2.0], 0)),
    "admissible.with_fixed": (
        "with_fixed must be a bool, got 'False'",
        lambda: admissible(SCHEDULE, [2.0], 5.0, "False")),
    "within_budget.with_fixed": (
        "with_fixed must be a bool, got 1.0",
        lambda: within_budget(SCHEDULE, [2.0], 1.0, 5.0, with_fixed=1.0)),
    "SimConfig.stochastic": (
        "stochastic must be a bool, got 'false'",
        lambda: dataclasses.replace(default_config(), stochastic="false")),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_a_mode_of_the_wrong_type_is_a_named_type_error(case):
    message, call = WRONG_TYPES[case]
    with pytest.raises(TypeError) as info:
        call()
    assert str(info.value) == message


def test_the_modes_of_the_right_type_give_their_answers():
    # what each wrongly typed reproduction above would have had to give
    assert search(objective=Objective.MAX_UTILITY).alpha_star == 0.25
    assert search(objective=Objective.MAX_LAMBDA).alpha_star == 3.0
    for cross, admitted in [(False, [0.25, 0.5]), (True, list(GRID))]:
        direct = search(1.0, hessian_variant=HessianVariant.DIRECT_FORM, include_cross_terms=cross)
        assert [e.alpha for e in direct.admissible] == admitted
    assert phi_component(SCHEDULE, 0, 2.0, False) == 1.0
    assert phi_component(SCHEDULE, 0, 2.0, True) == 2.0


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


# ---------------------------------------------------------------------------
# the float-grid fast path of require_increasing


def reference_increasing(name, values, check):
    """require_increasing as it was before its fast path: each value, then the order."""
    grid = require_each(name, values, check)
    if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
        raise InvalidParameterError(f"{name} must be strictly increasing")
    return grid


def grid_outcome(fn, values, check):
    """The grid fn returns, each value by type and bits, or its error's type and text."""
    try:
        grid = fn("grid", values, check)
    except (InvalidParameterError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    return type(grid).__name__, [(type(v).__name__, v.hex()) for v in grid]


#: One value that the fast path must not take as a plain float in range.
BAD_VALUES = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.5, -5e-324, 3, True, False,
              np.float64(0.5), "1.0", None]


@settings(max_examples=400)
@given(
    grid=st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8, unique=True).map(sorted),
    check=st.sampled_from([require_positive, require_nonnegative]),
    container=st.sampled_from([list, tuple, iter]),
    data=st.data(),
)
@example(grid=[0.5], check=require_positive, container=tuple, data=None)  # one point
@example(grid=[0.0, 1.0], check=require_nonnegative, container=list, data=None)
@example(grid=[0.0, 1.0], check=require_positive, container=tuple, data=None)
def test_fast_path_gives_the_per_element_result(grid, check, container, data):
    if data is not None:
        change = data.draw(st.sampled_from(["none", "bad", "swap", "repeat"]))
        i = data.draw(st.integers(0, len(grid) - 1))
        j = min(i, len(grid) - 2)  # the pair (j, j + 1) of a grid of two or more
        if change == "bad":
            grid[i] = data.draw(st.sampled_from(BAD_VALUES))
        elif change == "swap" and len(grid) > 1:
            grid[j], grid[j + 1] = grid[j + 1], grid[j]
        elif change == "repeat" and len(grid) > 1:
            grid[j + 1] = grid[j]
    assert grid_outcome(require_increasing, container(grid), check) == grid_outcome(
        reference_increasing, container(grid), check)


def test_a_valid_float_grid_is_checked_at_its_ends():
    grid = tuple(0.05 + i * (4.95 / 999) for i in range(1000))
    seen = []

    def check(name, value):
        seen.append(value)
        return require_positive(name, value)

    assert require_increasing("grid", grid, check) == list(grid)
    assert seen == [grid[0], grid[-1]]
    seen.clear()
    assert require_increasing("grid", (*grid[:-1], 5), check) == [*grid[:-1], 5.0]
    assert len(seen) == 1000  # an int takes the per-element path


# ---------------------------------------------------------------------------
# the field of an InvalidParameterError

# helper -> an argument it refuses
REFUSED = {as_float: 10**400, require_finite: math.nan, require_nonnegative: -1.0,
           require_positive: 0.0, require_unit_interval: 2.0, require_count: 0}


@pytest.mark.parametrize("helper", REFUSED, ids=lambda h: h.__name__)
def test_each_helper_names_the_field_it_was_given(helper):
    with pytest.raises(InvalidParameterError) as info:
        helper("theta_a", REFUSED[helper])
    assert info.value.field == "theta_a" and str(info.value).startswith("theta_a ")


@pytest.mark.parametrize("helper", [require_each, require_increasing])
@pytest.mark.parametrize("values, field", [([1.0, -1.0], "grid[1]"), ([], "grid")])
def test_a_grid_names_the_element_at_fault(helper, values, field):
    with pytest.raises(InvalidParameterError) as info:
        helper("grid", values, require_nonnegative)
    assert info.value.field == field and str(info.value).startswith(field + " ")


def test_a_grid_out_of_order_names_the_grid():
    with pytest.raises(InvalidParameterError) as info:
        require_increasing("grid", (1.0, 1.0), require_nonnegative)
    assert (info.value.field, str(info.value)) == ("grid", "grid must be strictly increasing")


def test_every_invalid_parameter_error_in_the_package_names_its_field():
    # the others are made by errors.invalid, which always does
    import lexopt

    for path in pathlib.Path(lexopt.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", "") == "InvalidParameterError"):
                assert "field" in {k.arg for k in node.keywords}, f"{path.name}:{node.lineno}"


def test_an_error_without_a_field_is_the_plain_exception():
    exc = InvalidParameterError("text")
    assert (exc.field, str(exc), exc.args) == (None, "text", ("text",))


def test_a_renamed_error_replaces_the_field_in_its_message():
    exc = invalid("precaution_cost_grid[2]", "must be >= 0, got -1.0")
    renamed = exc.renamed("precaution_grid[2]")
    assert renamed.field == "precaution_grid[2]"
    assert str(renamed) == "precaution_grid[2] must be >= 0, got -1.0"


# ---------------------------------------------------------------------------
# the input contract of every public callable


def _gradient_sum(v):
    return float(sum(v))


def _generator():
    return (x for x in (1.0, 2.0))


SOLUTION = solve_closed_form(PROBLEM)
SIM_CONFIG = dataclasses.replace(default_config(), n_injurers=100, ticks=3)
MATRIX = build_bordered_hessian(PROBLEM, SOLUTION, HessianVariant.DIRECT_FORM)

#: valid values of each parameter, by name
VALID = {
    "p": [0.5], "W_B": [100.0], "S_B": [60.0], "C_a": [10.0], "C_b": [4.0],
    "B_prec": [1.0], "P_harm": [0.5], "L_harm": [10.0],
    "alpha": [2.0], "beta": [1.0], "p1": [1.0], "p2": [1.0], "P_C": [6.0],
    "L_C": [4.0], "R_B": [2.0, 11.0], "theta_a": [None, 20.0], "theta_b": [None, 20.0],
    "wta": [1.0], "wtp": [2.0], "plaintiff_cost_share": [0.5], "defendant_cost_share": [0.5],
    "variant": list(HessianVariant), "include_cross_terms": [False, True],
    "entries": [MATRIX.entries], "det": [1.0, -1.0], "matrix_scale": [1.0],
    "C_b_fixed": [1.0], "rates": [((0.5, 0.5),)], "i": [0], "L_i": [2.0],
    "L": [[2.0]], "with_fixed": [False, True],
    "alpha_grid": [(0.5, 1.0, 2.0)], "objective": list(Objective),
    "hessian_variant": list(HessianVariant), "alpha_star": [0.5], "phi_sum": [1.0],
    "utilities": [{"a": 3.0, "b": 1.0}], "allowed": [frozenset({"b"})], "margin": [None, 1e-3],
    "tau": [2.0], "points_per_axis": [100],
    "f": [_gradient_sum], "point": [(1.0, 2.0)],
    "n_injurers": [100], "precaution_cost_grid": [(0.0, 5.0)],
    "harm_probability_fn": [ExponentialHarm(0.1, 0.1)],
    "case_template": [CaseTemplate(0.5, 100.0, 60.0, 4.0)], "C_a_policy": [10.0],
    "settlement_liability_discount": [0.5], "ticks": [3], "seed": [0], "stochastic": [False],
    "p0": [0.1], "decay": [0.1], "settlement_rate": [0.0], "C_a_grid": [(0.0, 10.0)],
}
#: a parameter that takes one of the package's records (or a generator), by name or by
#: (callable, name): only these values are passed to it
RECORDS = {
    "c": [CASE], "prob": [PROBLEM], "sol": [SOLUTION], "s": [SCHEDULE], "g": [GAME],
    "spec": [GridSpec(points_per_axis=100)], "state": [INITIAL_STATE], "cfg": [SIM_CONFIG],
    "rng": [None, np.random.default_rng(0)],
    ("search_alpha", "cfg"): [AlphaSearchConfig((0.5, 1.0, 2.0), 1.0, 1.0, 1.0, 6.0)],
    ("hand_liability", "h"): [HandRuleInputs(1.0, 0.5, 10.0)],
    ("hessian_determinant", "h"): [MATRIX],
}
VALID[("finite_diff_gradient", "h")] = [1e-6, (1e-6, 1e-7)]
#: one value of each kind that a caller might pass in error; a generator is made per call
JUNK = [-0.0, 5e-324, sys.float_info.max, math.inf, -math.inf, math.nan, 10**400, -10**5000,
        True, "text", None, [[1.0, [2.0]], []], [[1]], _generator]


def _public_callables():
    """Every callable of lexopt.__all__ but the exceptions and the enums, whose
    lookup by value is Python's."""
    import lexopt

    for name in lexopt.__all__:
        obj = getattr(lexopt, name)
        if callable(obj) and not (isinstance(obj, type)
                                  and issubclass(obj, (enum.Enum, BaseException))):
            yield name, obj


PUBLIC = dict(_public_callables())


def parameters(name):
    """(parameter, its valid values, whether it takes a record) for PUBLIC[name]."""
    fn = PUBLIC[name]
    for param in inspect.signature(fn).parameters:
        record = RECORDS.get((name, param), RECORDS.get(param))
        if record is not None:
            yield param, record, True
        elif isinstance(fn, type) and issubclass(fn, tuple):  # a NamedTuple takes anything
            yield param, VALID.get(param, [1.0]), False
        else:
            yield param, VALID.get((name, param), VALID.get(param)), False


def _fields_of(values):
    """The field names of the records among ``values``."""
    names = set()
    for v in values:
        if dataclasses.is_dataclass(v):
            names |= {f.name for f in dataclasses.fields(v)}
        names |= set(getattr(v, "_fields", ()))
    return names


#: (callable, field root) -> the parameter it stands for: phi_component names its
#: activity as the component L[i] of the vector phi_total passes it
STANDS_FOR = {("phi_component", "L"): "L_i"}


def check_contract(name, kwargs):
    """Call PUBLIC[name]: it returns, or raises a LexoptError or a TypeError.

    An InvalidParameterError names a parameter or a path into one, or the
    field of a record it was given.  A component index out of range is an
    IndexError, as it is for a sequence.  A warning fails, as it does under
    the suite's filterwarnings setting.
    """
    try:
        PUBLIC[name](**kwargs)
    except InvalidParameterError as exc:
        assert exc.field is not None, (name, str(exc))
        root = re.match(r"\w+", exc.field).group()
        root = STANDS_FOR.get((name, root), root)
        assert root in kwargs or root in _fields_of(kwargs.values()), (name, exc.field)
    except (LexoptError, TypeError):
        pass
    except IndexError:
        assert name == "phi_component" and kwargs["i"] != 0, kwargs


def test_every_public_callable_has_its_valid_values():
    assert len(PUBLIC) > 50
    for name in PUBLIC:
        for param, values, _ in parameters(name):
            assert values, (name, param)


def single_junk_calls():
    """(callable, arguments) with one argument junk and the rest valid, for every
    callable, every non-record parameter, every junk value and every valid rest."""
    for name in sorted(PUBLIC):
        params = list(parameters(name))
        for valid in itertools.product(*(values for _, values, _ in params)):
            for param, _, record in params:
                for value in [] if record else JUNK:
                    args = {p: v for (p, _, _), v in zip(params, valid)}
                    args[param] = value() if value is _generator else value
                    yield name, args


def test_every_public_callable_keeps_the_input_contract_for_each_junk_argument():
    calls = 0
    for name, kwargs in single_junk_calls():
        check_contract(name, kwargs)
        calls += 1
    assert calls > 3958


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(data=st.data())
def test_every_public_callable_keeps_the_input_contract(data):
    name = data.draw(st.sampled_from(sorted(PUBLIC)), label="callable")
    kwargs = {}
    for param, values, record in parameters(name):
        junk = not record and data.draw(st.booleans(), label=f"{param} is junk")
        value = data.draw(st.sampled_from(JUNK if junk else values), label=param)
        kwargs[param] = value() if value is _generator else value
    check_contract(name, kwargs)


# ---------------------------------------------------------------------------
# the type-checked record parameters

STOCHASTIC = dataclasses.replace(SIM_CONFIG, stochastic=True)
HAND = HandRuleInputs(1.0, 0.5, 10.0)

#: (callable, record parameter) -> (a call with every other argument valid, what the
#: TypeError says the parameter must be, the type of the values that are not refused so)
RECORD_PARAMETERS = {
    ("build_bordered_hessian", "prob"): (
        lambda v: build_bordered_hessian(v, SOLUTION, HessianVariant.SHADOW_FORM),
        "be a CobbDouglasProblem", CobbDouglasProblem),
    ("build_bordered_hessian", "sol"): (
        lambda v: build_bordered_hessian(PROBLEM, v, HessianVariant.SHADOW_FORM),
        "be an OptimumSolution", type(SOLUTION)),
    ("classify_second_order", "prob"): (
        lambda v: classify_second_order(v, SOLUTION), "be a CobbDouglasProblem",
        CobbDouglasProblem),
    ("classify_second_order", "sol"): (
        lambda v: classify_second_order(PROBLEM, v), "be an OptimumSolution", type(SOLUTION)),
    ("hessian_determinant", "h"): (hessian_determinant, "be a BorderedHessian", BorderedHessian),
    ("reasonable_bargain", "c"): (reasonable_bargain, "be a CaseParameters", CaseParameters),
    ("classify_scenario", "c"): (classify_scenario, "be a CaseParameters", CaseParameters),
    ("derive_wta_wtp", "c"): (
        lambda v: derive_wta_wtp(v, 0.5, 0.5), "be a CaseParameters", CaseParameters),
    ("hand_liability", "h"): (hand_liability, "be a HandRuleInputs", HandRuleInputs),
    # no rng at all (None) is the InvalidParameterError of a missing rng
    ("step", "rng"): (lambda v: step(INITIAL_STATE, STOCHASTIC, v),
                      "have a binomial method, as a numpy Generator has", type(None)),
}


@pytest.mark.parametrize("case", RECORD_PARAMETERS, ids="-".join)
def test_a_record_parameter_of_another_type_is_a_named_type_error(case):
    param = case[1]
    call, must, kind = RECORD_PARAMETERS[case]
    # each junk value, and the package's other records (a record of another class)
    for value in [*JUNK, PROBLEM, SOLUTION, MATRIX, CASE, HAND, STOCHASTIC, INITIAL_STATE,
                  tuple(SOLUTION), MATRIX.entries]:
        if isinstance(value, kind):
            continue
        with pytest.raises(TypeError) as info:
            call(value() if value is _generator else value)
        assert str(info.value).startswith(f"{param} must {must}, got "), value


def test_junk_entries_of_a_bordered_hessian_are_an_invalid_field():
    for value in JUNK:
        entries = value() if value is _generator else value
        with pytest.raises(InvalidParameterError) as info:
            hessian_determinant(BorderedHessian(entries, HessianVariant.SHADOW_FORM))
        assert info.value.field == "entries" and str(info.value).startswith("entries must be ")
