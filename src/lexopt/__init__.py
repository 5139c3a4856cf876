"""Settlement-bargain analysis and optimal transaction-cost search.

The package decomposes dispute value into benefit and transaction-cost
components, solves the Cobb-Douglas allocation between them in closed form,
certifies optima with bordered-Hessian checks, prices rule compliance, and
simulates how administration-cost policy moves a litigation market.
"""

__version__ = "0.1.0"

from .alpha_search import (
    AdmissibleAlpha,
    AlphaSearchConfig,
    AlphaSearchResult,
    Objective,
    final_utility,
    search_alpha,
)
from .cobb_douglas import (
    CobbDouglasProblem,
    OptimumSolution,
    first_order_residuals,
    mrs,
    solve_closed_form,
    utility,
    utility_gradient,
)
from .compliance import (
    MARGIN_SCALE_FRACTION,
    StrategyGame,
    apply_penalty,
    best_allowed,
    best_overall,
    compliance_dominant,
    default_margin,
    min_compliance_penalty,
)
from .core_model import (
    BargainDecomposition,
    CaseParameters,
    CostRegime,
    Decision,
    HandRuleInputs,
    ScenarioLabel,
    classify_scenario,
    cooperation_possible,
    default_thresholds,
    derive_wta_wtp,
    hand_liability,
    reasonable_bargain,
)
from .cost_schedule import CostSchedule, admissible, phi_component, phi_total, within_budget
from .errors import DomainError, InvalidParameterError, LexoptError
from .hessian import (
    DET_NOISE_RTOL,
    BorderedHessian,
    HessianVariant,
    SecondOrderClass,
    build_bordered_hessian,
    classify_from_determinant,
    classify_second_order,
    hessian_determinant,
    scale_border,
)
from .oracle import (
    GridMax,
    GridSpec,
    default_clamp_epsilon,
    finite_diff_gradient,
    grid_max_on_budget,
    grid_max_on_rectangle,
)
from .sim import (
    CaseTemplate,
    ExponentialHarm,
    SimConfig,
    SimState,
    SweepRow,
    choose_precaution,
    default_config,
    default_sweep_grid,
    run_simulation,
    step,
    sweep_admin_cost,
)

__all__ = [
    "__version__",
    # errors
    "LexoptError", "InvalidParameterError", "DomainError",
    # core model
    "CaseParameters", "BargainDecomposition", "CostRegime", "Decision", "ScenarioLabel",
    "HandRuleInputs", "reasonable_bargain", "classify_scenario", "default_thresholds",
    "hand_liability", "cooperation_possible", "derive_wta_wtp",
    # allocation problem
    "CobbDouglasProblem", "OptimumSolution", "utility", "utility_gradient", "mrs",
    "solve_closed_form", "first_order_residuals",
    # second-order checks
    "BorderedHessian", "HessianVariant", "SecondOrderClass", "build_bordered_hessian",
    "hessian_determinant", "classify_from_determinant", "classify_second_order",
    "scale_border", "DET_NOISE_RTOL",
    # transaction costs
    "CostSchedule", "phi_component", "phi_total", "admissible", "within_budget",
    # exponent search
    "AlphaSearchConfig", "AlphaSearchResult", "AdmissibleAlpha", "Objective",
    "search_alpha", "final_utility",
    # compliance
    "StrategyGame", "best_allowed", "best_overall", "min_compliance_penalty",
    "apply_penalty", "compliance_dominant", "default_margin", "MARGIN_SCALE_FRACTION",
    # oracle
    "GridSpec", "GridMax", "grid_max_on_budget", "grid_max_on_rectangle",
    "finite_diff_gradient", "default_clamp_epsilon",
    # simulator
    "SimConfig", "SimState", "SweepRow", "CaseTemplate", "ExponentialHarm",
    "choose_precaution", "step", "run_simulation", "sweep_admin_cost",
    "default_config", "default_sweep_grid",
]
