"""Rule compliance as a penalty on disallowed strategies.

A regulated actor picks from a finite strategy set S; the rule permits only
the subset P(r).  The minimal compliance penalty tau is the smallest uniform
charge on disallowed strategies that makes the best allowed strategy win by
at least ``margin``:

    tau = max(0, max_{s not in P(r)} U(s) - max_{s in P(r)} U(s) + margin)

Strict dominance needs a finite margin in floating point, so "dominant"
throughout means: best allowed utility >= best disallowed utility + margin.
Ties between strategies resolve to the lexicographically smallest
identifier, which keeps every selection deterministic.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from ._validation import as_float, require_finite
from .errors import DomainError, InvalidParameterError

#: Default margin is this fraction of the utility scale (see default_margin).
MARGIN_SCALE_FRACTION = 1e-6


@dataclass(frozen=True)
class StrategyGame:
    """Finite strategy set with utilities and the allowed subset P(r)."""

    utilities: Mapping[str, float]
    allowed: frozenset[str]

    def __post_init__(self) -> None:
        if not isinstance(self.utilities, Mapping):  # dict() would read pairs from a sequence
            raise TypeError(
                f"utilities must be a mapping of strategy names to utilities, "
                f"got {type(self.utilities).__name__}"
            )
        utilities = dict(self.utilities)
        if not utilities:
            raise InvalidParameterError("utilities must contain at least one strategy")
        for name, u in utilities.items():
            require_finite(f"utilities[{name!r}]", u)
        if isinstance(self.allowed, (str, bytes, bytearray)):  # would be read as its characters
            raise TypeError(f"allowed must be a set of strategy names, got {self.allowed!r}")
        allowed = frozenset(self.allowed)
        if not allowed:
            raise InvalidParameterError("allowed must be nonempty")
        unknown = allowed - utilities.keys()
        if unknown:
            raise InvalidParameterError(
                f"allowed contains strategies without utilities: {sorted(unknown)}"
            )
        object.__setattr__(self, "utilities", utilities)
        object.__setattr__(self, "allowed", allowed)

    @property
    def disallowed(self) -> frozenset[str]:
        return frozenset(self.utilities) - self.allowed


def _argmax(utilities: Mapping[str, float], names) -> tuple[str, float]:
    # max keeps the first of equal utilities: the smallest identifier
    best_name = max(sorted(names), key=utilities.__getitem__)
    return best_name, utilities[best_name]


def best_allowed(g: StrategyGame) -> tuple[str, float]:
    """Highest-utility allowed strategy; ties go to the smallest identifier."""
    return _argmax(g.utilities, g.allowed)


def best_overall(g: StrategyGame) -> tuple[str, float]:
    """Highest-utility strategy over the whole set (the social maximum when
    the utilities are an aggregate); same tie-break as best_allowed."""
    return _argmax(g.utilities, g.utilities.keys())


def default_margin(g: StrategyGame) -> float:
    """MARGIN_SCALE_FRACTION of the utility scale, floored at scale 1."""
    scale = max(1.0, max(abs(u) for u in g.utilities.values()))
    return MARGIN_SCALE_FRACTION * scale


def min_compliance_penalty(g: StrategyGame, margin: float | None = None) -> float:
    """Smallest uniform penalty on disallowed strategies that restores dominance."""
    if not g.disallowed:
        raise InvalidParameterError(
            "no disallowed strategy: every strategy is already allowed"
        )
    margin = default_margin(g) if margin is None else as_float("margin", margin)
    if not math.isfinite(margin) or margin <= 0.0:
        raise InvalidParameterError(f"margin must be > 0, got {margin!r}")
    _, best_in = best_allowed(g)
    _, best_out = _argmax(g.utilities, g.disallowed)
    tau = max(0.0, best_out - best_in + margin)
    if not math.isfinite(tau):
        raise DomainError(
            f"compliance penalty overflowed the float range: best disallowed utility "
            f"{best_out!r} minus best allowed utility {best_in!r} plus margin {margin!r}"
        )
    return tau


def apply_penalty(g: StrategyGame, tau: float) -> StrategyGame:
    """Game with tau subtracted from every disallowed strategy's utility."""
    tau = as_float("tau", tau)
    if not math.isfinite(tau):
        raise InvalidParameterError(f"tau must be finite, got {tau!r}")
    penalized = {
        name: (u - tau if name not in g.allowed else u) for name, u in g.utilities.items()
    }
    for name, u in penalized.items():
        if not math.isfinite(u):
            raise DomainError(
                f"penalized utility of {name!r} overflowed the float range: "
                f"{g.utilities[name]!r} minus penalty {tau!r}"
            )
    return StrategyGame(utilities=penalized, allowed=g.allowed)


def compliance_dominant(g: StrategyGame, margin: float) -> bool:
    """True when the best allowed strategy beats every disallowed one by >= margin."""
    margin = as_float("margin", margin)
    if not math.isfinite(margin):
        raise InvalidParameterError(f"margin must be finite, got {margin!r}")
    if not g.disallowed:
        return True
    _, best_in = best_allowed(g)
    _, best_out = _argmax(g.utilities, g.disallowed)
    return best_in >= best_out + margin
