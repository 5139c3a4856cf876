"""Closed-form Cobb-Douglas optimum on a linear feasibility constraint.

The objective allocates the expectation-benefit component P_C between the
transaction-cost side L_C (weighted price p1) and the bargain side R_B
(weighted price p2):

    maximize   U(L_C, R_B) = L_C**alpha * R_B**beta
    subject to p1 * L_C + p2 * R_B <= P_C,   L_C, R_B >= 0

The exponent alpha always attaches to L_C and beta to R_B.  Because U is
increasing in both arguments the constraint binds, and the optimum has the
usual closed form

    L_C* = (alpha / (alpha + beta)) * P_C / p1
    R_B* = (beta  / (alpha + beta)) * P_C / p2

with the multiplier recovered from the first first-order condition,

    lambda = alpha * L_C***(alpha - 1) * R_B***beta / p1

(the second condition is a consistency cross-check, not a second
definition).  The optimal value satisfies the identity

    U* = (lambda / (alpha + beta)) * P_C

whose relative residual is carried on the solution for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from ._validation import as_float, require_positive
from .errors import DomainError, invalid


@dataclass(frozen=True)
class CobbDouglasProblem:
    """Exponents, prices, and the resource level of one allocation problem."""

    alpha: float
    beta: float
    p1: float
    p2: float
    P_C: float

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "p1", "p2", "P_C"):
            object.__setattr__(self, name, require_positive(name, getattr(self, name)))


class OptimumSolution(NamedTuple):
    """Interior optimum with its multiplier and self-consistency diagnostics.

    ``identity_residual`` is the relative gap between U* and
    (lambda / (alpha + beta)) * P_C; ``kkt_ok`` records lambda > 0.
    """

    L_C_star: float
    R_B_star: float
    lam: float
    U_star: float
    kkt_ok: bool
    identity_residual: float


def _range_error(exc: ArithmeticError) -> str:
    """Why a float operation failed, in words that do not vary by platform.

    An overflowing power's own text is an errno tuple such as
    ``(34, 'Numerical result out of range')``.
    """
    return "a power overflows" if isinstance(exc, OverflowError) else str(exc)


def _interior(what: str, L_C: float, R_B: float) -> tuple[float, float]:
    """(L_C, R_B) as plain floats; a point off (0, inf) is a DomainError."""
    # plain floats, so that a power past the float range raises, as a numpy one does not
    L_C, R_B = as_float("L_C", L_C), as_float("R_B", R_B)
    if not (0.0 < L_C < math.inf and 0.0 < R_B < math.inf):
        raise DomainError(
            f"{what} needs finite, strictly positive L_C and R_B, "
            f"got L_C={L_C!r}, R_B={R_B!r}"
        )
    return L_C, R_B


def utility(prob: CobbDouglasProblem, L_C: float, R_B: float) -> float:
    """U = L_C**alpha * R_B**beta; zero whenever either argument is zero.

    A power that leaves the float range is a DomainError.
    """
    L_C, R_B = as_float("L_C", L_C), as_float("R_B", R_B)
    if math.isnan(L_C) or L_C < 0.0:
        raise invalid("L_C", f"must be >= 0, got {L_C!r}")
    if math.isnan(R_B) or R_B < 0.0:
        raise invalid("R_B", f"must be >= 0, got {R_B!r}")
    if L_C == 0.0 or R_B == 0.0:
        return 0.0
    try:
        return L_C**prob.alpha * R_B**prob.beta
    except OverflowError as exc:
        raise DomainError(
            f"utility leaves the float range at L_C={L_C!r}, R_B={R_B!r}: {_range_error(exc)}"
        ) from None


def utility_gradient(prob: CobbDouglasProblem, L_C: float, R_B: float) -> tuple[float, float]:
    """Analytic partials (dU/dL_C, dU/dR_B) at a strictly interior point.

    A point off (0, inf) and a power that leaves the float range are each a
    DomainError.
    """
    L_C, R_B = _interior("utility gradient", L_C, R_B)
    a, b = prob.alpha, prob.beta
    try:
        return (
            a * L_C ** (a - 1.0) * R_B**b,
            b * L_C**a * R_B ** (b - 1.0),
        )
    except OverflowError as exc:
        raise DomainError(
            f"utility gradient leaves the float range at L_C={L_C!r}, R_B={R_B!r}: "
            f"{_range_error(exc)}"
        ) from None


def mrs(prob: CobbDouglasProblem, L_C: float, R_B: float) -> float:
    """Marginal rate of substitution alpha * R_B / (beta * L_C).

    Equals the price ratio p1 / p2 at the optimum.  A point off (0, inf)
    and a quotient that leaves the float range are each a DomainError.
    """
    L_C, R_B = _interior("mrs", L_C, R_B)
    try:
        value = prob.alpha * R_B / (prob.beta * L_C)
    except ZeroDivisionError:  # beta * L_C underflows to 0
        value = math.inf
    if not math.isfinite(value):  # float division overflows to inf without raising
        raise DomainError(f"mrs leaves the float range at L_C={L_C!r}, R_B={R_B!r}")
    return value


def solve_closed_form(prob: CobbDouglasProblem) -> OptimumSolution:
    """Closed-form constrained maximum of the problem.

    The budget binds, demands split P_C in proportion alpha : beta, and the
    multiplier comes from the L_C first-order condition.  A quotient or
    power that leaves the float range, U* underflowing to zero (which leaves
    the identity residual undefined), and a demand, multiplier or U* that is
    not finite are each a DomainError.  U* is the plain power product of the
    demands, without ``utility``'s argument checks.
    ``alpha_search._admitted`` repeats these operations in this order, so a
    change here is made there too.
    """
    a, b, p1, p2, P_C = prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C
    total = a + b
    try:
        # multiply before dividing so round-number inputs stay exact
        L_C_star = (a * P_C) / (total * p1)
        R_B_star = (b * P_C) / (total * p2)
    except ZeroDivisionError:
        raise DomainError("(alpha + beta) * p1 or p2 underflows to 0, so the demands "
                          "are undefined") from None
    try:
        lam = a * L_C_star ** (a - 1.0) * R_B_star**b / p1
        U_star = L_C_star**a * R_B_star**b
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(
            f"optimum leaves the float range at L_C*={L_C_star!r}, R_B*={R_B_star!r}: "
            f"{_range_error(exc)}"
        ) from None
    if U_star == 0.0:
        raise DomainError(
            f"U* underflows to 0 at L_C*={L_C_star!r}, R_B*={R_B_star!r}, "
            "so the identity residual is undefined"
        )
    identity_residual = abs(U_star - (lam / total) * P_C) / U_star
    # a demand, lambda or U* that is inf or nan leaves the residual inf or nan
    if not math.isfinite(identity_residual):
        raise DomainError(
            f"optimum is not finite: L_C*={L_C_star!r}, R_B*={R_B_star!r}, "
            f"lambda={lam!r}, U*={U_star!r}"
        )
    return OptimumSolution(L_C_star, R_B_star, lam, U_star, lam > 0.0, identity_residual)


def first_order_residuals(
    prob: CobbDouglasProblem, sol: OptimumSolution
) -> tuple[float, float, float]:
    """Stationarity and budget residuals at the point carried by ``sol``.

    Returns (dU/dL_C - lambda * p1, dU/dR_B - lambda * p2,
    P_C - p1 * L_C - p2 * R_B).  All three vanish at the true optimum; the
    point and multiplier are taken from ``sol`` verbatim so perturbed
    solutions can be probed.
    """
    g_L, g_R = utility_gradient(prob, sol.L_C_star, sol.R_B_star)
    return (
        g_L - sol.lam * prob.p1,
        g_R - sol.lam * prob.p2,
        prob.P_C - prob.p1 * sol.L_C_star - prob.p2 * sol.R_B_star,
    )
