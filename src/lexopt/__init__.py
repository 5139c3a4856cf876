"""Settlement-bargain analysis and optimal transaction-cost search.

The package decomposes dispute value into benefit and transaction-cost
components, solves the Cobb-Douglas allocation between them in closed form,
certifies optima with bordered-Hessian checks, prices rule compliance, and
simulates how administration-cost policy moves a litigation market.

``import lexopt`` loads no submodule: each public name is imported from the
submodule below on first use, so a caller pays only for what it touches.
"""

import importlib

__version__ = "0.1.0"

# every public name, by the submodule that defines it
_EXPORTS = {
    "errors": ("LexoptError", "InvalidParameterError", "DomainError"),
    "core_model": (
        "CaseParameters", "BargainDecomposition", "CostRegime", "Decision", "ScenarioLabel",
        "HandRuleInputs", "reasonable_bargain", "classify_scenario", "default_thresholds",
        "hand_liability", "cooperation_possible", "derive_wta_wtp",
    ),
    "cobb_douglas": ("CobbDouglasProblem", "OptimumSolution", "utility", "utility_gradient",
                     "mrs", "solve_closed_form", "first_order_residuals"),
    "hessian": (
        "BorderedHessian", "HessianVariant", "SecondOrderClass", "build_bordered_hessian",
        "hessian_determinant", "classify_from_determinant", "classify_second_order",
        "DET_NOISE_RTOL",
    ),
    "cost_schedule": ("CostSchedule", "phi_component", "phi_total", "admissible",
                      "within_budget"),
    "alpha_search": ("AlphaSearchConfig", "AlphaSearchResult", "AdmissibleAlpha", "Objective",
                     "search_alpha", "final_utility"),
    "compliance": (
        "StrategyGame", "best_allowed", "best_overall", "min_compliance_penalty",
        "apply_penalty", "compliance_dominant", "default_margin", "MARGIN_SCALE_FRACTION",
    ),
    "oracle": ("GridSpec", "GridMax", "grid_max_on_budget", "finite_diff_gradient",
               "default_clamp_epsilon", "CLAMP_RTOL"),
    "sim": (
        "SimConfig", "SimState", "SweepRow", "CaseTemplate", "ExponentialHarm",
        "choose_precaution", "step", "run_simulation", "sweep_admin_cost",
        "default_config", "default_sweep_grid", "INITIAL_STATE",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    """Import a public name, or a submodule, on first use (PEP 562)."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCE})
