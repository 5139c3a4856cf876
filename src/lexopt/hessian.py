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

The check runs on plain floats: one private kernel takes the point
(L_C*, R_B*, lambda) as three floats and returns the five distinct entries,
the determinant and the class, and the classification report and the
command line go through it.  They take a ``CobbDouglasProblem`` and an
``OptimumSolution`` from outside, so they check the type of each and that
both demands are positive before they unpack them.  The alpha search runs
the kernel's operations, in its order, fused with the solver's in one loop
body, and calls the kernel itself for a candidate that leaves the float
range, so its errors are the kernel's.  ``build_bordered_hessian`` returns
the same entries as a ``BorderedHessian`` record of three rows of floats,
and ``hessian_determinant`` checks a caller's rows before it expands them.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from ._validation import as_float, require_positive, require_type, shown
from .cobb_douglas import CobbDouglasProblem, OptimumSolution, _range_error
from .errors import DomainError, invalid


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

# The distinct entries (b1, b2, h11, h12, h22) of a bordered Hessian, and its
# rows; the corner is 0, b1 = -lam * p1 and b2 = -lam * p2 form the border.
_Entries = tuple[float, float, float, float, float]
_Rows = tuple[tuple[float, ...], ...]


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
    zero, L_C**(alpha - 2) overflowing) is a DomainError.  The callers have
    checked that ``variant`` is a HessianVariant.
    """
    try:
        if variant is HessianVariant.SHADOW_FORM:
            h11 = -lam * (a / (a + b)) * P_C / L**2
            h22 = -lam * (b / (a + b)) * P_C / R**2
        else:
            h11 = a * (a - 1.0) * L ** (a - 2.0) * R**b
            h22 = b * (b - 1.0) * L**a * R ** (b - 2.0)
        h12 = a * b * L ** (a - 1.0) * R ** (b - 1.0) if include_cross_terms else 0.0
    except (ZeroDivisionError, OverflowError) as exc:
        raise DomainError(
            f"{variant.value} bordered Hessian leaves the float range at "
            f"L_C*={L!r}, R_B*={R!r}: {_range_error(exc)}"
        ) from None
    return -lam * p1, -lam * p2, h11, h12, h22


def _point(prob: CobbDouglasProblem, sol: OptimumSolution) -> tuple[float, ...]:
    """The parameters of ``prob``, then the point (L_C*, R_B*, lambda) of ``sol``; demands > 0."""
    require_type("prob", prob, CobbDouglasProblem)
    require_type("sol", sol, OptimumSolution)
    L = require_positive("L_C_star", sol.L_C_star)
    R = require_positive("R_B_star", sol.R_B_star)
    return prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C, L, R, sol.lam


def _matrix(b1: float, b2: float, h11: float, h12: float, h22: float) -> _Rows:
    """The 3x3 bordered matrix of the distinct entries, row by row."""
    return (0.0, b1, b2), (b1, h11, h12), (b2, h12, h22)


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
    with the largest absolute entry, the zero corner included; ``max``
    does not propagate NaN, but a NaN entry makes the determinant NaN,
    which classifies as LocalMin at any scale.
    ``alpha_search._admitted`` repeats the operations of this check, and of
    ``_entries`` and ``_determinant``, in their order, so a change here is
    made there too.
    """
    e = b1, b2, h11, h12, h22 = _entries(
        alpha, beta, p1, p2, P_C, L, R, lam, variant, include_cross_terms
    )
    det = _determinant(b1, b2, h11, h12, h22)
    scale = max(0.0, abs(b1), abs(b2), abs(h11), abs(h12), abs(h22))
    try:
        return e, det, classify_from_determinant(det, scale)
    except DomainError as exc:
        raise DomainError(f"{variant.value} bordered Hessian: {exc}") from None


class BorderedHessian(NamedTuple):
    """Three rows of three floats, and the mode that made them; it checks nothing."""

    entries: _Rows
    variant: HessianVariant
    include_cross_terms: bool = False


def build_bordered_hessian(
    prob: CobbDouglasProblem,
    sol: OptimumSolution,
    variant: HessianVariant,
    include_cross_terms: bool = False,
) -> BorderedHessian:
    """The bordered Hessian at the point of ``sol``; a mode of the wrong type is a TypeError."""
    require_type("variant", variant, HessianVariant)
    require_type("include_cross_terms", include_cross_terms, bool)
    entries = _entries(*_point(prob, sol), variant, include_cross_terms)
    return BorderedHessian(_matrix(*entries), variant, include_cross_terms)


def hessian_determinant(h: BorderedHessian) -> float:
    """Determinant by cofactor expansion along the first (border) row.

    ``h`` may be made outside the package, so its modes must be of their types
    and its entries 3x3 numbers, zero at the corner and symmetric (NaN == NaN).
    """
    require_type("h", h, BorderedHessian)
    require_type("variant", h.variant, HessianVariant)
    require_type("include_cross_terms", h.include_cross_terms, bool)
    try:
        m = [[as_float("entries", v) for v in row] for row in h.entries]
    except (TypeError, ValueError):  # text, a scalar, an integer past the float range
        m = None
    if m is None or len({len(row) for row in m}) > 1:  # or ragged rows
        raise invalid("entries", f"must be a 3x3 array of numbers, got {shown(h.entries)}")
    if len(m) != 3 or len(m[0]) != 3:
        raise invalid("entries", f"must be 3x3, got shape {(len(m), *map(len, m[:1]))}")
    (corner, b1, b2), (c1, h11, h12), (c2, c3, h22) = m
    if corner != 0.0:
        raise invalid("entries[0, 0]", f"must be 0, got {corner!r}")
    if any(a != b and (a == a or b == b) for a, b in ((b1, c1), (b2, c2), (h12, c3))):
        raise invalid("entries", "must be symmetric")  # NaN counts equal to itself
    return _determinant(b1, b2, h11, h12, h22)


def classify_from_determinant(det: float, matrix_scale: float) -> SecondOrderClass:
    """Sign test with a noise floor of DET_NOISE_RTOL * matrix_scale**3.

    A floor that overflows is a DomainError naming the matrix scale, a float
    subclass's too: the power is taken on a plain float, which raises.
    """
    matrix_scale = as_float("matrix_scale", matrix_scale)
    try:
        floor = DET_NOISE_RTOL * matrix_scale**3
    except OverflowError:
        raise DomainError(f"the noise floor overflows at matrix scale {matrix_scale!r}") from None
    if abs(det) <= floor:
        return SecondOrderClass.INDETERMINATE
    return SecondOrderClass.LOCAL_MAX if det > 0.0 else SecondOrderClass.LOCAL_MIN


def classify_second_order(
    prob: CobbDouglasProblem,
    sol: OptimumSolution,
    include_cross_terms: bool = False,
) -> dict[HessianVariant, SecondOrderClass]:
    """Evaluate and classify both variants at the solution point; the flag must be a bool."""
    require_type("include_cross_terms", include_cross_terms, bool)
    point = _point(prob, sol)
    return {v: _second_order(*point, v, include_cross_terms)[2] for v in HessianVariant}
