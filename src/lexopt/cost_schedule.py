"""Piecewise per-component transaction-cost schedules.

Each component i charges a linear rate on activity L_i, with separate rates
for positive and negative directions, and optionally a fixed bargaining
charge C_b that applies to any nonzero activity:

    without fixed cost:  phi_i(L) =  alpha_plus * L    if L > 0
                                    -alpha_minus * L   if L < 0
                                     0                 if L = 0

    with fixed cost:     phi_i(L) =  C_b + alpha_i * |L|  if L != 0
                                     0                    if L = 0

where alpha_i is the direction-matched rate.  The total schedule is the sum
over components.  A cost vector is admissible when it is strictly interior
to the bargain: 0 < phi_total < R_B (both inequalities strict).  The fixed
charge makes phi discontinuous at zero, which is intended.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._validation import require_finite, require_nonnegative, require_type, shown
from .errors import DomainError, invalid


@dataclass(frozen=True)
class CostSchedule:
    """Fixed charge plus per-component (alpha_plus, alpha_minus) rate pairs."""

    C_b_fixed: float
    rates: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "C_b_fixed", require_nonnegative("C_b_fixed", self.C_b_fixed))
        if len(self.rates) == 0:
            raise invalid("rates", "must have at least one component")
        validated = []
        for i, pair in enumerate(self.rates):
            if len(pair) != 2:
                raise invalid(f"rates[{i}]",
                              f"must be an (alpha_plus, alpha_minus) pair, got {pair!r}")
            validated.append(
                (
                    require_nonnegative(f"rates[{i}].alpha_plus", pair[0]),
                    require_nonnegative(f"rates[{i}].alpha_minus", pair[1]),
                )
            )
        object.__setattr__(self, "rates", tuple(validated))


def phi_component(s: CostSchedule, i: int, L_i: float, with_fixed: bool = False) -> float:
    """Cost of component i at activity L_i under the selected form.

    ``with_fixed`` must be a bool, here and in the functions that call this
    one; any other value, such as the text "no", is a TypeError.  A cost
    that leaves the float range is a DomainError.
    """
    require_type("with_fixed", with_fixed, bool)
    if not 0 <= i < len(s.rates):  # a negative i would wrap to a component from the end
        raise IndexError(f"component {shown(i)} is out of range for {len(s.rates)} rate pairs")
    alpha_plus, alpha_minus = s.rates[i]
    L_i = require_finite(f"L[{i}]", L_i)
    if L_i == 0.0:
        return 0.0
    rate = alpha_plus if L_i > 0.0 else alpha_minus
    linear = rate * abs(L_i)
    cost = s.C_b_fixed + linear if with_fixed else linear
    if cost == math.inf:
        raise DomainError(f"phi of component {i} leaves the float range at L[{i}]={L_i!r}")
    return cost


def phi_total(s: CostSchedule, L: Sequence[float], with_fixed: bool = False) -> float:
    """Sum of component costs, one activity in L per rate pair; an overflow is a DomainError."""
    if len(L) != len(s.rates):
        raise invalid("L", f"has {len(L)} components but the schedule has {len(s.rates)}")
    total = 0.0  # explicit + in component order: sum() is compensated on Python >= 3.12
    for i, L_i in enumerate(L):
        total += phi_component(s, i, L_i, with_fixed)
    if total == math.inf:
        raise DomainError(f"phi_total of {len(L)} component costs leaves the float range")
    return total


def admissible(s: CostSchedule, L: Sequence[float], R_B: float, with_fixed: bool = False) -> bool:
    """Strict interiority: 0 < phi_total(L) < R_B.

    Both boundaries are excluded: a zero cost means no transaction happened,
    and a cost that exhausts the bargain leaves nothing to allocate.
    """
    R_B = require_finite("R_B", R_B)
    total = phi_total(s, L, with_fixed)
    return 0.0 < total < R_B


def within_budget(
    s: CostSchedule, L: Sequence[float], R_B: float, P_C: float, with_fixed: bool = False
) -> bool:
    """Companion feasibility check R_B + phi_total(L) <= P_C.

    Independent of :func:`admissible`; callers decide which binds when the
    two conflict.
    """
    R_B = require_finite("R_B", R_B)
    P_C = require_finite("P_C", P_C)
    return R_B + phi_total(s, L, with_fixed) <= P_C
