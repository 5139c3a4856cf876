"""Calculus-free reference maximizer and derivative checks.

Everything here deliberately avoids the closed-form machinery: the grid
maximizer enumerates utility values on the (clamped) feasible set and the
gradient check uses central finite differences.  These are the independent
routes the rest of the package is verified against.

On the budget line, points_per_axis samples are placed at

    L_C in [eps, P_C / p1 - eps],   R_B = (P_C - p1 * L_C) / p2

where the clamp eps keeps every sample strictly interior (powers with
exponents below one have infinite slope at zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from ._validation import require_each, require_finite, shown
from .cobb_douglas import CobbDouglasProblem
from .errors import DomainError, invalid

if TYPE_CHECKING:
    import numpy as np

#: The clamp eps = CLAMP_RTOL * (P_C / min(p1, p2)).
CLAMP_RTOL = 1e-9


class GridMax(NamedTuple):
    L_C: float
    R_B: float
    utility: float


@dataclass(frozen=True)
class GridSpec:
    """The oracle's grid: ``points_per_axis`` >= 100 points on the budget line.

    The line is clamped ``default_clamp_epsilon`` of the problem in from both ends.
    """

    points_per_axis: int = 10_000

    def __post_init__(self) -> None:
        if not isinstance(self.points_per_axis, int) or self.points_per_axis < 100:
            raise invalid("points_per_axis",
                          f"must be an integer >= 100, got {shown(self.points_per_axis)}")


def default_clamp_epsilon(prob: CobbDouglasProblem) -> float:
    return CLAMP_RTOL * (prob.P_C / min(prob.p1, prob.p2))


def grid_max_on_budget(prob: CobbDouglasProblem, spec: GridSpec = GridSpec()) -> GridMax:
    """Brute-force maximum of U along the binding budget line.

    Deterministic: numpy's argmax returns the first index attaining the
    maximum, so equal utilities resolve by grid order.  A clamp that leaves
    the range [eps, P_C / p1 - eps] empty is a DomainError.
    """
    import numpy as np

    eps = default_clamp_epsilon(prob)
    high = prob.P_C / prob.p1 - eps
    if high <= eps:
        raise DomainError(f"the clamped L_C range [{eps!r}, {high!r}] is empty")
    L = np.linspace(eps, high, spec.points_per_axis)
    R = (prob.P_C - prob.p1 * L) / prob.p2
    U = L**prob.alpha * R**prob.beta
    i = int(np.argmax(U))
    return GridMax(L_C=float(L[i]), R_B=float(R[i]), utility=float(U[i]))


def finite_diff_gradient(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    h: float | Sequence[float],
) -> np.ndarray:
    """Central-difference gradient of f at point with per-coordinate step h.

    The point's coordinates must be finite numbers, and the steps (one, or
    one per coordinate) strictly positive.  A stencil that leaves the float
    range is a DomainError; so is one that leaves f's domain, where
    evaluating a stencil point raises a ValueError.
    """
    import numpy as np

    x = np.array(require_each("point", point, require_finite))
    try:
        steps = np.broadcast_to(np.asarray(h, dtype=float), x.shape).copy()
    except (ValueError, OverflowError):  # text, an integer past the float range, a wrong shape
        raise invalid("h",
                      f"must be a number or one number per coordinate, got {shown(h)}") from None
    if np.any(steps <= 0.0) or not np.all(np.isfinite(steps)):
        raise invalid("h", f"must be strictly positive and finite, got {shown(h)}")

    grad = np.empty_like(x)
    for i in range(x.size):
        if not math.isfinite(abs(float(x[i])) + 2.0 * float(steps[i])):  # numpy would warn
            raise DomainError(f"finite-difference stencil leaves the float range at coordinate {i}")
        offset = np.zeros_like(x)
        offset[i] = steps[i]
        try:
            hi = f(x + offset)
            lo = f(x - offset)
        except ValueError as exc:
            raise DomainError(
                f"finite-difference stencil left the domain at coordinate {i}: {exc}"
            ) from exc
        grad[i] = (hi - lo) / (2.0 * steps[i])
    return grad
