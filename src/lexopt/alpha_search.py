"""Grid search for an exponent alpha* that certifies the optimum.

For each candidate alpha on a caller-supplied grid (beta and prices fixed)
the closed-form optimum is solved and kept when three predicates hold
simultaneously:

    lambda > 0,    lambda / (alpha + beta) > 0,    det(H) > 0

with det(H) taken from the selected bordered-Hessian variant.  Among the
admissible candidates, alpha* maximizes the configured objective (the
optimal utility by default, the multiplier alternatively); ties resolve to
the smallest alpha.  The winning solution is folded back through the
transaction-cost identity

    U_final = (lambda* / (alpha* + beta)) * (phi_sum + R_B)

which coincides with U* when evaluated at phi_sum = L_C* under unit prices.

Candidate evaluations are independent of one another; results are reported
in grid order regardless of evaluation order.

Each candidate is one pass on plain floats: the closed-form solver returns
(L_C*, R_B*, lambda, U*, identity residual) and the second-order kernel
certifies that point.  Only a candidate that passes all three predicates is
wrapped in an ``OptimumSolution`` and an ``AdmissibleAlpha``, so rejected
candidates build no records.  The first candidate, in grid order, that
leaves the float range raises the DomainError that ``classify_second_order``
raises for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from ._validation import require_finite, require_increasing, require_positive
from .cobb_douglas import OptimumSolution, _solution, _solve
from .errors import DomainError
from .hessian import _LOCAL_MAX, HessianVariant, _second_order


class Objective(Enum):
    MAX_UTILITY = "MaxUtility"
    MAX_LAMBDA = "MaxLambda"


@dataclass(frozen=True)
class AlphaSearchConfig:
    alpha_grid: tuple[float, ...]
    beta: float
    p1: float
    p2: float
    P_C: float
    objective: Objective = Objective.MAX_UTILITY
    hessian_variant: HessianVariant = HessianVariant.SHADOW_FORM
    include_cross_terms: bool = field(default=False)

    def __post_init__(self) -> None:
        grid = require_increasing("alpha_grid", self.alpha_grid, require_positive)
        object.__setattr__(self, "alpha_grid", tuple(grid))
        object.__setattr__(self, "beta", require_positive("beta", self.beta))
        object.__setattr__(self, "p1", require_positive("p1", self.p1))
        object.__setattr__(self, "p2", require_positive("p2", self.p2))
        object.__setattr__(self, "P_C", require_positive("P_C", self.P_C))


@dataclass(frozen=True)
class AdmissibleAlpha:
    """One grid candidate that passed all three admissibility predicates."""

    alpha: float
    solution: OptimumSolution
    det_H: float


@dataclass(frozen=True)
class AlphaSearchResult:
    """Admissible table in grid order plus the selected candidate, if any."""

    admissible: tuple[AdmissibleAlpha, ...]
    alpha_star: float | None
    L_C_opt: float | None
    U_star_final: float | None


def final_utility(
    sol: OptimumSolution, alpha_star: float, beta: float, phi_sum: float, R_B: float
) -> float:
    """U = (lambda / (alpha* + beta)) * (phi_sum + R_B); requires lambda > 0.

    phi_sum and R_B must be finite, and a U that overflows is a DomainError.
    """
    phi_sum = require_finite("phi_sum", phi_sum)
    R_B = require_finite("R_B", R_B)
    if not sol.lam > 0.0:
        raise DomainError(f"final utility needs lambda > 0, got {sol.lam!r}")
    u = (sol.lam / (alpha_star + beta)) * (phi_sum + R_B)
    if not math.isfinite(u):
        raise DomainError(
            f"final utility overflows at lambda={sol.lam!r}, alpha*={alpha_star!r}, "
            f"beta={beta!r}, phi_sum={phi_sum!r}, R_B={R_B!r}"
        )
    return u


def _select_best(
    entries: tuple[AdmissibleAlpha, ...], key: Callable[[AdmissibleAlpha], float]
) -> AdmissibleAlpha | None:
    """First entry attaining the maximum key; entries arrive in grid order,
    and max keeps the first of equal keys: the smallest-alpha tie-break."""
    return max(entries, key=key, default=None)


def search_alpha(cfg: AlphaSearchConfig) -> AlphaSearchResult:
    """Evaluate the grid, filter by admissibility, and pick alpha*."""
    # the config has validated beta, the prices, P_C and every grid point, so
    # candidates go straight to the float solver and second-order kernel
    beta, p1, p2, P_C = cfg.beta, cfg.p1, cfg.p2, cfg.P_C
    variant, cross = cfg.hessian_variant, cfg.include_cross_terms
    admissible: list[AdmissibleAlpha] = []
    for alpha in cfg.alpha_grid:
        optimum = L, R, lam, _, _ = _solve(alpha, beta, p1, p2, P_C)
        _, det, cls = _second_order(alpha, beta, p1, p2, P_C, L, R, lam, variant, cross)
        if lam > 0.0 and lam / (alpha + beta) > 0.0 and cls is _LOCAL_MAX:
            admissible.append(AdmissibleAlpha(alpha, _solution(*optimum), det))

    entries = tuple(admissible)
    by_utility = cfg.objective is Objective.MAX_UTILITY
    best = _select_best(entries, lambda e: e.solution.U_star if by_utility else e.solution.lam)
    if best is None:
        return AlphaSearchResult(admissible=entries, alpha_star=None, L_C_opt=None, U_star_final=None)

    sol = best.solution
    u_final = final_utility(sol, best.alpha, cfg.beta, phi_sum=sol.L_C_star, R_B=sol.R_B_star)
    return AlphaSearchResult(
        admissible=entries,
        alpha_star=best.alpha,
        L_C_opt=sol.L_C_star,
        U_star_final=u_final,
    )
