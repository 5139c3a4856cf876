"""Dispute primitives and the threshold rules built on top of them.

A dispute is summarized by five numbers: the plaintiff's probability of
winning at trial ``p``, the benefit of a win ``W_B``, the settlement benefit
``S_B``, per-case administration costs ``C_a`` (the trial-side transaction
cost), and per-case bargaining costs ``C_b`` (the settlement-side transaction
cost).  The reasonable bargain nets the expectation-benefit component

    P_C = (p * W_B + S_B) / 2

against the transaction-cost component

    L_C = (C_a + 3 * C_b) / 2

so that R_B = P_C - L_C.  The 1/2 weights and the factor of 3 on C_b are part
of the model definition and are deliberately not configurable.

The remaining operations are the classic decision rules: a four-quadrant
high/low cost classification with a settle-versus-trial verdict, the
negligence test (liable when expected harm exceeds the cost of avoiding it),
and the willingness-to-accept / willingness-to-pay bracket that determines
whether private bargaining can replace a trial at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from ._validation import (
    require_finite,
    require_nonnegative,
    require_type,
    require_unit_interval,
)
from .errors import DomainError, InvalidParameterError, invalid


@dataclass(frozen=True)
class CaseParameters:
    """Primitives of a single dispute."""

    p: float
    W_B: float
    S_B: float
    C_a: float
    C_b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", require_unit_interval("p", self.p))
        object.__setattr__(self, "W_B", require_nonnegative("W_B", self.W_B))
        object.__setattr__(self, "S_B", require_nonnegative("S_B", self.S_B))
        object.__setattr__(self, "C_a", require_nonnegative("C_a", self.C_a))
        object.__setattr__(self, "C_b", require_nonnegative("C_b", self.C_b))


class BargainDecomposition(NamedTuple):
    """Reasonable bargain split into its benefit and cost components.

    ``R_B`` may be negative when transaction costs swamp the expected
    benefit; it is reported as-is and flagged, never clamped.
    """

    R_B: float
    P_C: float
    L_C: float

    @property
    def negative_bargain(self) -> bool:
        return self.R_B < 0.0


class CostRegime(Enum):
    """Quadrant of the (C_b, C_a) plane relative to the High/Low thresholds."""

    HIGH_CB_HIGH_CA = "HighCb_HighCa"
    HIGH_CB_LOW_CA = "HighCb_LowCa"
    LOW_CB_LOW_CA = "LowCb_LowCa"
    LOW_CB_HIGH_CA = "LowCb_HighCa"


class Decision(Enum):
    TRIAL = "Trial"
    SETTLE = "Settle"


class ScenarioLabel(NamedTuple):
    label: CostRegime
    decision: Decision


@dataclass(frozen=True)
class HandRuleInputs:
    """Inputs to the negligence test: precaution burden, harm probability, harm size."""

    B_prec: float
    P_harm: float
    L_harm: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "B_prec", require_nonnegative("B_prec", self.B_prec))
        object.__setattr__(self, "P_harm", require_unit_interval("P_harm", self.P_harm))
        object.__setattr__(self, "L_harm", require_nonnegative("L_harm", self.L_harm))


def reasonable_bargain(c: CaseParameters) -> BargainDecomposition:
    """Split the reasonable bargain into benefit and cost components.

    R_B = (p * W_B + S_B) / 2 - (C_a + 3 * C_b) / 2, returned together with
    the two halves so that R_B + L_C = P_C holds by construction.  A half
    whose sum leaves the float range is a DomainError.
    """
    require_type("c", c, CaseParameters)
    P_C = 0.5 * (c.p * c.W_B + c.S_B)
    L_C = 0.5 * (c.C_a + 3.0 * c.C_b)
    R_B = P_C - L_C
    if not math.isfinite(R_B):  # both halves are >= 0, so one of them is inf
        raise DomainError(f"reasonable bargain leaves the float range: P_C={P_C!r}, L_C={L_C!r}")
    return BargainDecomposition(R_B=R_B, P_C=P_C, L_C=L_C)


def default_thresholds(c: CaseParameters) -> tuple[float, float]:
    """Default High/Low cutoffs: half the expectation-benefit component each.

    Only p, W_B and S_B are read, so a sim CaseTemplate, which has no C_a,
    does as well as a CaseParameters.
    """
    half = 0.5 * (0.5 * (c.p * c.W_B + c.S_B))  # P_C / 2, as reasonable_bargain(c).P_C
    return half, half


def resolve_thresholds(
    c: CaseParameters,
    theta_a: float | None = None,
    theta_b: float | None = None,
) -> tuple[float, float]:
    """The High/Low cutoffs to use, as floats, each finite and > 0.

    Cutoffs given are checked both finite, then both > 0.  Each one not given
    defaults to P_C / 2 = (p * W_B + S_B) / 4, which is refused, naming p,
    W_B and S_B, when it is not finite and > 0 (as when p * W_B + S_B is 0).
    """
    if theta_a is not None:
        theta_a = require_finite("theta_a", theta_a)
    if theta_b is not None:
        theta_b = require_finite("theta_b", theta_b)
    if theta_a is not None and theta_a <= 0.0:
        raise invalid("theta_a", f"must be > 0, got {theta_a!r}")
    if theta_b is not None and theta_b <= 0.0:
        raise invalid("theta_b", f"must be > 0, got {theta_b!r}")
    if theta_a is None or theta_b is None:
        default, _ = default_thresholds(c)
        if not 0.0 < default < math.inf:
            left = [name for name, theta in (("theta_a", theta_a), ("theta_b", theta_b))
                    if theta is None]
            raise InvalidParameterError(
                f"{' and '.join(left)} {'default' if len(left) == 2 else 'defaults'} to "
                f"P_C / 2 = (p * W_B + S_B) / 4, which must be finite and > 0, got {default!r} "
                f"from p={c.p!r}, W_B={c.W_B!r}, S_B={c.S_B!r}", field=left[0]
            )
        theta_a = default if theta_a is None else theta_a
        theta_b = default if theta_b is None else theta_b
    return theta_a, theta_b


def classify_scenario(
    c: CaseParameters,
    theta_a: float | None = None,
    theta_b: float | None = None,
) -> ScenarioLabel:
    """Place the dispute in a cost quadrant and decide settle versus trial.

    ``C_b >= theta_b`` reads High on the bargaining axis, ``C_a >= theta_a``
    High on the administration axis.  Settlement happens only in the
    LowCb_HighCa quadrant, and there only when

        p * W_B - C_a < S_B - C_b

    i.e. the net expected trial payoff falls short of the net settlement
    payoff.  Every other quadrant goes to trial.  Thresholds default to
    P_C / 2 and must be strictly positive.
    """
    require_type("c", c, CaseParameters)
    theta_a, theta_b = resolve_thresholds(c, theta_a, theta_b)

    high_b = c.C_b >= theta_b
    high_a = c.C_a >= theta_a
    if high_b:
        label = CostRegime.HIGH_CB_HIGH_CA if high_a else CostRegime.HIGH_CB_LOW_CA
    else:
        label = CostRegime.LOW_CB_HIGH_CA if high_a else CostRegime.LOW_CB_LOW_CA
    settles = _settles(c, c.C_a, theta_a, theta_b)
    return ScenarioLabel(label=label, decision=Decision.SETTLE if settles else Decision.TRIAL)


def _settles(c, C_a: float, theta_a: float, theta_b: float) -> bool:
    """classify_scenario's decision on floats: settle in LowCb_HighCa when trial nets less.

    ``c`` is anything with the dispute fields p, W_B, S_B and C_b as floats
    (a CaseParameters or a validated CaseTemplate); the cutoffs are resolved.
    """
    return c.C_b < theta_b and C_a >= theta_a and c.p * c.W_B - C_a < c.S_B - c.C_b


def hand_liability(h: HandRuleInputs) -> bool:
    """Negligence test: liable iff expected harm strictly exceeds precaution cost.

    The boundary P_harm * L_harm == B_prec is not liable.
    """
    require_type("h", h, HandRuleInputs)
    return h.P_harm * h.L_harm > h.B_prec


def cooperation_possible(wta: float, wtp: float) -> bool:
    """True when a bargaining range exists: WTA <= WTP (boundary counts)."""
    wta = require_finite("wta", wta)
    wtp = require_finite("wtp", wtp)
    return wta <= wtp


def derive_wta_wtp(
    c: CaseParameters,
    plaintiff_cost_share: float,
    defendant_cost_share: float,
) -> tuple[float, float]:
    """Threat points of the settlement bargain.

    The plaintiff accepts no less than the expected judgment minus the trial
    costs they would bear; the defendant pays no more than the expected
    judgment plus the trial costs they would bear:

        WTA = p * W_B - plaintiff_cost_share * C_a
        WTP = p * W_B + defendant_cost_share * C_a

    With C_a = 0 the two coincide and cooperation is exactly at the boundary.
    A WTP past the largest float is a DomainError; WTA cannot overflow.
    """
    require_type("c", c, CaseParameters)
    plaintiff_cost_share = require_unit_interval(
        "plaintiff_cost_share", plaintiff_cost_share
    )
    defendant_cost_share = require_unit_interval(
        "defendant_cost_share", defendant_cost_share
    )
    expected_judgment = c.p * c.W_B
    wta = expected_judgment - plaintiff_cost_share * c.C_a
    wtp = expected_judgment + defendant_cost_share * c.C_a
    if wtp == math.inf:
        raise DomainError(f"wtp leaves the float range: p * W_B={expected_judgment!r}, "
                          f"defendant_cost_share * C_a={defendant_cost_share * c.C_a!r}")
    return wta, wtp
