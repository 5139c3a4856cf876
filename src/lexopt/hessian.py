"""Bordered-Hessian second-order check for the constrained optimum.

The 3x3 matrix puts the constraint gradient on the border and the
second-order block inside:

    [ 0        -lam*p1   -lam*p2 ]
    [ -lam*p1    h11       h12   ]
    [ -lam*p2    h12       h22   ]

Two published variants of the diagonal block circulate and they do not agree
once an exponent exceeds one, so both are first-class here and every report
carries the classification per variant:

    ShadowForm:  h11 = -lam * (alpha / (alpha + beta)) * P_C / L_C**2
                 h22 = -lam * (beta  / (alpha + beta)) * P_C / R_B**2
    DirectForm:  h11 = alpha * (alpha - 1) * L_C**(alpha - 2) * R_B**beta
                 h22 = beta  * (beta  - 1) * L_C**alpha * R_B**(beta - 2)

Both printed variants set the cross partial to zero; the corrected mode
(``include_cross_terms=True``) uses the true mixed partial
alpha * beta * L_C**(alpha-1) * R_B**(beta-1) instead.

For a two-variable problem with one constraint, det > 0 certifies a local
maximum and det < 0 a local minimum.  Determinants are expanded along the
first row exactly as the cofactor derivation writes them; tests compare the
expansion against a generic determinant routine.

The check itself runs on plain floats: one private kernel computes the five
distinct entries, the determinant and the class, and every caller (the
classification report, the alpha search, the command line) goes through it.
``BorderedHessian`` and its functions wrap the same kernel in a read-only
numpy matrix for callers that want the matrix object; only they import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ._validation import require_positive
from .cobb_douglas import CobbDouglasProblem, OptimumSolution
from .errors import DomainError, InvalidParameterError

if TYPE_CHECKING:
    import numpy as np


class HessianVariant(Enum):
    SHADOW_FORM = "ShadowForm"
    DIRECT_FORM = "DirectForm"


class SecondOrderClass(Enum):
    LOCAL_MAX = "LocalMax"
    LOCAL_MIN = "LocalMin"
    INDETERMINATE = "Indeterminate"


# |det| below DET_NOISE_RTOL * (max abs entry)**3 cannot be distinguished
# from accumulated rounding and classifies as Indeterminate.
DET_NOISE_RTOL = 1e-10

# The distinct entries (b1, b2, h11, h12, h22) of a bordered Hessian; the
# corner is 0, b1 = -lam * p1 and b2 = -lam * p2 form the border.
_Entries = tuple[float, float, float, float, float]


def _entries(
    a: float,
    b: float,
    p1: float,
    p2: float,
    P_C: float,
    sol: OptimumSolution,
    variant: HessianVariant,
    include_cross_terms: bool,
) -> _Entries:
    """The bordered Hessian at the point carried by ``sol``, on plain floats.

    A power or quotient that leaves the float range (L_C**2 underflowing to
    zero, L_C**(alpha - 2) overflowing) is a DomainError.
    """
    L = require_positive("L_C_star", sol.L_C_star)
    R = require_positive("R_B_star", sol.R_B_star)
    lam = sol.lam
    try:
        if variant is HessianVariant.SHADOW_FORM:
            h11 = -lam * (a / (a + b)) * P_C / L**2
            h22 = -lam * (b / (a + b)) * P_C / R**2
        elif variant is HessianVariant.DIRECT_FORM:
            h11 = a * (a - 1.0) * L ** (a - 2.0) * R**b
            h22 = b * (b - 1.0) * L**a * R ** (b - 2.0)
        else:
            raise InvalidParameterError(f"variant must be a HessianVariant, got {variant!r}")
        h12 = a * b * L ** (a - 1.0) * R ** (b - 1.0) if include_cross_terms else 0.0
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(
            f"{variant.value} bordered Hessian leaves the float range at "
            f"L_C*={L!r}, R_B*={R!r}: {exc}"
        ) from None
    return -lam * p1, -lam * p2, h11, h12, h22


def _matrix(b1: float, b2: float, h11: float, h12: float, h22: float) -> list[list[float]]:
    """The 3x3 bordered matrix of the distinct entries, as nested lists."""
    return [[0.0, b1, b2], [b1, h11, h12], [b2, h12, h22]]


def _determinant(b1: float, b2: float, h11: float, h12: float, h22: float) -> float:
    """Cofactor expansion along the first (border) row, corner term included.

    The 0.0 * (...) term keeps the sign of a zero result and turns an
    infinite or NaN block entry into a NaN determinant, as the full
    expansion does.  A NaN entry anywhere makes the determinant NaN.
    """
    return (
        0.0 * (h11 * h22 - h12 * h12)
        - b1 * (b1 * h22 - h12 * b2)
        + b2 * (b1 * h12 - h11 * b2)
    )


def _scale(b1: float, b2: float, h11: float, h12: float, h22: float) -> float:
    """Largest absolute entry, the zero corner included.

    Unlike numpy's maximum this does not propagate NaN, but a NaN entry
    makes the determinant NaN, which classifies as LocalMin at any scale.
    """
    return max(0.0, abs(b1), abs(b2), abs(h11), abs(h12), abs(h22))


def _second_order(
    alpha: float,
    beta: float,
    p1: float,
    p2: float,
    P_C: float,
    sol: OptimumSolution,
    variant: HessianVariant,
    include_cross_terms: bool,
) -> tuple[_Entries, float, SecondOrderClass]:
    """Entries, determinant and class of one variant: the whole second-order check."""
    e = _entries(alpha, beta, p1, p2, P_C, sol, variant, include_cross_terms)
    det = _determinant(*e)
    scale = _scale(*e)
    try:
        return e, det, classify_from_determinant(det, scale)
    except OverflowError:
        raise DomainError(
            f"{variant.value} bordered Hessian: the noise floor overflows at matrix scale {scale!r}"
        ) from None


@dataclass(frozen=True, eq=False)
class BorderedHessian:
    """Symmetric 3x3 bordered matrix; entry (0, 0) is identically zero."""

    entries: np.ndarray
    variant: HessianVariant
    include_cross_terms: bool = field(default=False)

    def __post_init__(self) -> None:
        import numpy as np

        m = np.array(self.entries, dtype=float)
        if m.shape != (3, 3):
            raise InvalidParameterError(f"entries must be 3x3, got shape {m.shape}")
        if m[0, 0] != 0.0:
            raise InvalidParameterError(f"entries[0, 0] must be 0, got {m[0, 0]!r}")
        if not np.array_equal(m, m.T):
            raise InvalidParameterError("entries must be symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)


def build_bordered_hessian(
    prob: CobbDouglasProblem,
    sol: OptimumSolution,
    variant: HessianVariant,
    include_cross_terms: bool = False,
) -> BorderedHessian:
    """Assemble the bordered Hessian at the point carried by ``sol``."""
    import numpy as np

    cross = include_cross_terms
    e = _entries(prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, sol, variant, cross)
    return BorderedHessian(np.array(_matrix(*e)), variant, cross)


def hessian_determinant(h: BorderedHessian) -> float:
    """Determinant by cofactor expansion along the first (border) row."""
    (_, b1, b2), (_, h11, h12), (_, _, h22) = h.entries.tolist()
    return _determinant(b1, b2, h11, h12, h22)


def scale_border(h: BorderedHessian, k: float) -> BorderedHessian:
    """Rescale the border row and column by k > 0 (classification-invariant)."""
    import numpy as np

    k = require_positive("k", k)
    m = np.array(h.entries)
    m[0, :] *= k
    m[:, 0] *= k
    m[0, 0] = 0.0
    return BorderedHessian(entries=m, variant=h.variant, include_cross_terms=h.include_cross_terms)


def classify_from_determinant(det: float, matrix_scale: float) -> SecondOrderClass:
    """Sign test with a noise floor of DET_NOISE_RTOL * matrix_scale**3."""
    if abs(det) <= DET_NOISE_RTOL * matrix_scale**3:
        return SecondOrderClass.INDETERMINATE
    return SecondOrderClass.LOCAL_MAX if det > 0.0 else SecondOrderClass.LOCAL_MIN


def classify_second_order(
    prob: CobbDouglasProblem,
    sol: OptimumSolution,
    include_cross_terms: bool = False,
) -> dict[HessianVariant, SecondOrderClass]:
    """Evaluate and classify both variants at the solution point."""
    return {
        variant: _second_order(
            prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, sol, variant, include_cross_terms
        )[2]
        for variant in HessianVariant
    }
