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

The check itself runs on plain floats: one private kernel takes the point
(L_C*, R_B*, lambda) as three floats and returns the five distinct entries,
the determinant and the class, and every caller (the classification report,
the alpha search, the command line) goes through it.  The callers that take
an ``OptimumSolution`` from outside check that both demands are positive
before they unpack it; the alpha search passes its solver's floats straight
through.  ``BorderedHessian`` and its functions wrap the same entries and
determinant in a read-only numpy matrix for callers that want the matrix
object; only they import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from ._validation import require_positive
from .cobb_douglas import CobbDouglasProblem, OptimumSolution, _range_error
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


# A member read through its Enum class costs a metaclass attribute lookup
# (about 0.2 us on CPython 3.11), so the per-candidate code reads these.
_SHADOW_FORM, _DIRECT_FORM = HessianVariant.SHADOW_FORM, HessianVariant.DIRECT_FORM
_LOCAL_MAX, _LOCAL_MIN = SecondOrderClass.LOCAL_MAX, SecondOrderClass.LOCAL_MIN
_INDETERMINATE = SecondOrderClass.INDETERMINATE

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
    L: float,
    R: float,
    lam: float,
    variant: HessianVariant,
    include_cross_terms: bool,
) -> _Entries:
    """The bordered Hessian at the point (L_C, R_B, lambda) = (L, R, lam).

    A power or quotient that leaves the float range (L_C**2 underflowing to
    zero, L_C**(alpha - 2) overflowing) is a DomainError.
    """
    try:
        if variant is _SHADOW_FORM:
            h11 = -lam * (a / (a + b)) * P_C / L**2
            h22 = -lam * (b / (a + b)) * P_C / R**2
        elif variant is _DIRECT_FORM:
            h11 = a * (a - 1.0) * L ** (a - 2.0) * R**b
            h22 = b * (b - 1.0) * L**a * R ** (b - 2.0)
        else:
            raise InvalidParameterError(f"variant must be a HessianVariant, got {variant!r}")
        h12 = a * b * L ** (a - 1.0) * R ** (b - 1.0) if include_cross_terms else 0.0
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(
            f"{variant.value} bordered Hessian leaves the float range at "
            f"L_C*={L!r}, R_B*={R!r}: {_range_error(exc)}"
        ) from None
    return -lam * p1, -lam * p2, h11, h12, h22


def _point(sol: OptimumSolution) -> tuple[float, float, float]:
    """The point (L_C*, R_B*, lambda) that ``sol`` carries; both demands must be > 0."""
    L = require_positive("L_C_star", sol.L_C_star)
    return L, require_positive("R_B_star", sol.R_B_star), sol.lam


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


def _second_order(
    alpha: float,
    beta: float,
    p1: float,
    p2: float,
    P_C: float,
    L: float,
    R: float,
    lam: float,
    variant: HessianVariant,
    include_cross_terms: bool,
) -> tuple[_Entries, float, SecondOrderClass]:
    """Entries, determinant and class of one variant at the point (L, R, lam).

    The whole second-order check on plain floats.  The noise floor scales
    with the largest absolute entry, the zero corner included; unlike
    numpy's maximum, ``max`` does not propagate NaN, but a NaN entry makes
    the determinant NaN, which classifies as LocalMin at any scale.
    """
    e = b1, b2, h11, h12, h22 = _entries(
        alpha, beta, p1, p2, P_C, L, R, lam, variant, include_cross_terms
    )
    det = _determinant(b1, b2, h11, h12, h22)
    scale = max(0.0, abs(b1), abs(b2), abs(h11), abs(h12), abs(h22))
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
    e = _entries(prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, *_point(sol), variant, cross)
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
        return _INDETERMINATE
    return _LOCAL_MAX if det > 0.0 else _LOCAL_MIN


def classify_second_order(
    prob: CobbDouglasProblem,
    sol: OptimumSolution,
    include_cross_terms: bool = False,
) -> dict[HessianVariant, SecondOrderClass]:
    """Evaluate and classify both variants at the solution point."""
    point = _point(sol)
    return {
        variant: _second_order(
            prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, *point, variant, include_cross_terms
        )[2]
        for variant in HessianVariant
    }
