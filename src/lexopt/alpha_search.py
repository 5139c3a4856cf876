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

Each candidate is one fused pass on plain floats (``_admitted``): the
closed-form optimum (L_C*, R_B*, lambda, U*, identity residual) and the
selected variant's second-order check share one loop body and its powers,
with the operations of the scalar kernels ``solve_closed_form`` and
``_second_order`` in their order, so every bit is theirs.  A candidate
whose arithmetic leaves the float range is run again through those scalar
kernels, the only error path, so the first such candidate in grid order
raises the DomainError that the single-point path raises for it.  A
candidate that passes all three predicates is kept as one tuple of floats,
so rejected candidates build no records.  alpha* is picked from the kept U*
(or lambda) column, its first maximum, before any record is built.  The
kept tuples then become ``OptimumSolution`` and ``AdmissibleAlpha`` records
with one ``tuple.__new__`` call per record, in C.

The result records (``OptimumSolution``, ``AdmissibleAlpha`` and
``AlphaSearchResult``) are NamedTuples: they unpack and index, compare
equal to a plain tuple of the same values, and offer ``_fields``,
``_asdict()`` and ``_replace()``; ``dataclasses.fields``, ``asdict`` and
``replace`` do not apply to them, and assigning a field raises
AttributeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Sequence

from ._validation import require_finite, require_increasing, require_positive, require_type
from .cobb_douglas import CobbDouglasProblem, OptimumSolution, solve_closed_form
from .errors import DomainError
from .hessian import DET_NOISE_RTOL, HessianVariant, SecondOrderClass, _second_order


class Objective(Enum):
    MAX_UTILITY = "MaxUtility"
    MAX_LAMBDA = "MaxLambda"


@dataclass(frozen=True)
class AlphaSearchConfig:
    """A strictly increasing grid of alpha > 0, the fixed beta and prices, and the rule.

    Each candidate is admitted by the ``hessian_variant`` check, with the
    mixed partial when ``include_cross_terms``, and alpha* maximizes the
    ``objective`` among the admitted.  A mode of the wrong type, such as
    the enum's value in place of its member, is a TypeError naming the field.
    """

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
        require_type("objective", self.objective, Objective)
        require_type("hessian_variant", self.hessian_variant, HessianVariant)
        require_type("include_cross_terms", self.include_cross_terms, bool)


class AdmissibleAlpha(NamedTuple):
    """One grid candidate that passed all three admissibility predicates."""

    alpha: float
    solution: OptimumSolution
    det_H: float


class AlphaSearchResult(NamedTuple):
    """Admissible table in grid order plus the selected candidate, if any."""

    admissible: tuple[AdmissibleAlpha, ...]
    alpha_star: float | None
    L_C_opt: float | None
    U_star_final: float | None


def final_utility(
    sol: OptimumSolution, alpha_star: float, beta: float, phi_sum: float, R_B: float
) -> float:
    """U = (lambda / (alpha* + beta)) * (phi_sum + R_B); requires lambda > 0.

    alpha* and beta must be finite and > 0, phi_sum and R_B finite, and a U
    that overflows is a DomainError.
    """
    alpha_star = require_positive("alpha_star", alpha_star)
    beta = require_positive("beta", beta)
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


# An admitted candidate as its OptimumSolution and AdmissibleAlpha fields:
# (alpha, L_C*, R_B*, lambda, U*, kkt_ok, identity residual, det_H).
_Row = tuple[float, float, float, float, float, bool, float, float]


def _candidate(
    alpha: float,
    beta: float,
    p1: float,
    p2: float,
    P_C: float,
    variant: HessianVariant,
    cross: bool,
) -> _Row | None:
    """One candidate through the scalar kernels: its row if admitted, else None.

    ``solve_closed_form`` then ``_second_order``, each raising the
    DomainError it raises for a point that leaves the float range.  The
    config has validated every value, so the problem record's checks pass.
    The reference for ``_admitted`` and its only error path.
    """
    L, R, lam, U, kkt_ok, residual = solve_closed_form(
        CobbDouglasProblem(alpha, beta, p1, p2, P_C))
    _, det, cls = _second_order(alpha, beta, p1, p2, P_C, L, R, lam, variant, cross)
    if lam > 0.0 and lam / (alpha + beta) > 0.0 and cls is SecondOrderClass.LOCAL_MAX:
        return alpha, L, R, lam, U, kkt_ok, residual, det
    return None


def _admitted(
    grid: Sequence[float],
    beta: float,
    p1: float,
    p2: float,
    P_C: float,
    variant: HessianVariant,
    cross: bool,
) -> list[_Row]:
    """The rows of the admitted candidates, in grid order, from one float pass each.

    The loop body is ``solve_closed_form`` and ``_second_order`` written
    out with their operations in their order, so every bit matches
    ``_candidate``: the powers R_B* ** beta, L_C* ** alpha and
    L_C* ** (alpha - 1) are each computed once for both, and the terms that
    do not vary with alpha once per grid.  Since the noise floor is >= 0 and
    never NaN, det_H above it is exactly the LocalMax class.  A candidate
    whose arithmetic raises, or whose identity residual is not finite, is
    run again through ``_candidate``, which raises the error the scalar
    kernels raise for it.  The config has checked that ``variant`` is a
    HessianVariant.
    """
    b = beta
    shadow = variant is HessianVariant.SHADOW_FORM
    b_P_C, b_b_1, b_1, b_2 = b * P_C, b * (b - 1.0), b - 1.0, b - 2.0
    rows: list[_Row] = []
    append = rows.append
    for a in grid:
        try:
            total = a + b
            L = (a * P_C) / (total * p1)
            R = b_P_C / (total * p2)
            L_a_1 = L ** (a - 1.0)
            R_b = R**b
            lam = a * L_a_1 * R_b / p1
            L_a = L**a
            U = L_a * R_b
            residual = abs(U - (lam / total) * P_C) / U  # U* = 0 raises here
            if shadow:
                h11 = -lam * (a / total) * P_C / L**2
                h22 = -lam * (b / total) * P_C / R**2
            else:
                h11 = a * (a - 1.0) * L ** (a - 2.0) * R_b
                h22 = b_b_1 * L_a * R**b_2
            h12 = a * b * L_a_1 * R**b_1 if cross else 0.0
            b1, b2 = -lam * p1, -lam * p2
            det = (
                0.0 * (h11 * h22 - h12 * h12)
                - b1 * (b1 * h22 - h12 * b2)
                + b2 * (b1 * h12 - h11 * b2)
            )
            floor = DET_NOISE_RTOL * max(0.0, abs(b1), abs(b2), abs(h11), abs(h12), abs(h22)) ** 3
        except (ZeroDivisionError, OverflowError):
            residual = math.nan
        if not residual < math.inf:
            row = _candidate(a, b, p1, p2, P_C, variant, cross)
            if row:
                append(row)
        elif lam > 0.0 and lam / total > 0.0 and det > floor:
            append((a, L, R, lam, U, True, residual, det))
    return rows


def _select_best(column: Sequence[float]) -> int | None:
    """Index of the first maximum of ``column``, None when it is empty.

    Rows arrive in grid order, so the first of equal values is the
    smallest-alpha tie-break.  An admitted row's U* and lambda are finite.
    """
    return column.index(max(column)) if column else None


def search_alpha(cfg: AlphaSearchConfig) -> AlphaSearchResult:
    """Evaluate the grid, filter by admissibility, and pick alpha*."""
    # the config has validated beta, the prices, P_C and every grid point, so
    # candidates go straight to the float pass
    rows = _admitted(cfg.alpha_grid, cfg.beta, cfg.p1, cfg.p2, cfg.P_C,
                     cfg.hessian_variant, cfg.include_cross_terms)
    if not rows:
        return AlphaSearchResult(admissible=(), alpha_star=None, L_C_opt=None, U_star_final=None)

    alphas, *optima, dets = zip(*rows)
    _, _, lams, utilities, _, _ = optima
    best = _select_best(utilities if cfg.objective is Objective.MAX_UTILITY else lams)
    # one tuple.__new__ per record, in C, as OptimumSolution(*...) would make it
    solutions = map(tuple.__new__, repeat(OptimumSolution), zip(*optima))
    entries = tuple(map(tuple.__new__, repeat(AdmissibleAlpha), zip(alphas, solutions, dets)))
    sol = entries[best].solution
    alpha_star = alphas[best]
    u_final = final_utility(sol, alpha_star, cfg.beta, phi_sum=sol.L_C_star, R_B=sol.R_B_star)
    return AlphaSearchResult(
        admissible=entries,
        alpha_star=alpha_star,
        L_C_opt=sol.L_C_star,
        U_star_final=u_final,
    )
