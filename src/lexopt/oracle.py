"""Calculus-free reference maximizer and derivative checks.

Everything here deliberately avoids the closed-form machinery: the grid
maximizer enumerates utility values on the (clamped) feasible set and the
gradient check uses central finite differences.  These are the independent
routes the rest of the package is verified against.

On the budget line, points_per_axis samples are placed at

    L_C in [eps, P_C / p1 - eps],   R_B = (P_C - p1 * L_C) / p2

where the clamp eps keeps every sample strictly interior (powers with
exponents below one have infinite slope at zero).  A full-rectangle mode
samples the same count per axis over the clamped feasible box; the line mode
is preferred because 1e4 line points buy the fidelity of 1e8 area points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from ._validation import require_positive, shown
from .cobb_douglas import CobbDouglasProblem
from .errors import DomainError, InvalidParameterError

if TYPE_CHECKING:
    import numpy as np

#: eps = CLAMP_RTOL * (P_C / min(p1, p2)) unless the caller overrides it.
CLAMP_RTOL = 1e-9


class GridMax(NamedTuple):
    L_C: float
    R_B: float
    utility: float


@dataclass(frozen=True)
class GridSpec:
    points_per_axis: int = 10_000
    clamp_epsilon: float | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.points_per_axis, int) or self.points_per_axis < 100:
            raise InvalidParameterError(
                f"points_per_axis must be an integer >= 100, got {shown(self.points_per_axis)}"
            )
        if self.clamp_epsilon is not None:
            object.__setattr__(
                self, "clamp_epsilon", require_positive("clamp_epsilon", self.clamp_epsilon)
            )


def default_clamp_epsilon(prob: CobbDouglasProblem) -> float:
    return CLAMP_RTOL * (prob.P_C / min(prob.p1, prob.p2))


def _resolve_epsilon(prob: CobbDouglasProblem, spec: GridSpec) -> float:
    return spec.clamp_epsilon if spec.clamp_epsilon is not None else default_clamp_epsilon(prob)


def _clamped_axis(name: str, upper: float, eps: float) -> tuple[float, float]:
    """The range [eps, upper - eps]; a DomainError when the clamp leaves nothing."""
    high = upper - eps
    if high <= eps:
        raise DomainError(f"the clamped {name} range [{eps!r}, {high!r}] is empty")
    return eps, high


def grid_max_on_budget(prob: CobbDouglasProblem, spec: GridSpec = GridSpec()) -> GridMax:
    """Brute-force maximum of U along the binding budget line.

    Deterministic: numpy's argmax returns the first index attaining the
    maximum, so equal utilities resolve by grid order.
    """
    import numpy as np

    eps = _resolve_epsilon(prob, spec)
    L = np.linspace(*_clamped_axis("L_C", prob.P_C / prob.p1, eps), spec.points_per_axis)
    R = (prob.P_C - prob.p1 * L) / prob.p2
    U = L**prob.alpha * R**prob.beta
    i = int(np.argmax(U))
    return GridMax(L_C=float(L[i]), R_B=float(R[i]), utility=float(U[i]))


def grid_max_on_rectangle(prob: CobbDouglasProblem, spec: GridSpec = GridSpec(points_per_axis=300)) -> GridMax:
    """Brute-force maximum of U over the clamped feasible box.

    The box ignores the budget, so this suits admissibility-style questions
    rather than constrained optima; row-major argmax keeps ties deterministic.
    """
    import numpy as np

    eps = _resolve_epsilon(prob, spec)
    L = np.linspace(*_clamped_axis("L_C", prob.P_C / prob.p1, eps), spec.points_per_axis)
    R = np.linspace(*_clamped_axis("R_B", prob.P_C / prob.p2, eps), spec.points_per_axis)
    U = np.outer(L**prob.alpha, R**prob.beta)
    flat = int(np.argmax(U))
    i, j = divmod(flat, spec.points_per_axis)
    return GridMax(L_C=float(L[i]), R_B=float(R[j]), utility=float(U[i, j]))


def finite_diff_gradient(
    f: Callable[[np.ndarray], float],
    point: Sequence[float],
    h: float | Sequence[float],
) -> np.ndarray:
    """Central-difference gradient of f at point with per-coordinate step h.

    Steps must be strictly positive.  If evaluating a stencil point raises a
    ValueError the stencil has left f's domain, and that is reported as a
    DomainError rather than a generic failure.
    """
    import numpy as np

    x = np.asarray(point, dtype=float)
    steps = np.broadcast_to(np.asarray(h, dtype=float), x.shape).copy()
    if np.any(steps <= 0.0) or not np.all(np.isfinite(steps)):
        raise InvalidParameterError(f"h must be strictly positive and finite, got {h!r}")

    grad = np.empty_like(x)
    for i in range(x.size):
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
