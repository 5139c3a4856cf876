"""Small field validators used by the public dataclasses.

Every check raises :class:`~lexopt.errors.InvalidParameterError` with the
field name in the message and returns the value coerced to ``float``.
"""

import math
from typing import Callable, Iterable

from .errors import InvalidParameterError


def as_float(name: str, value: float) -> float:
    """float(value); an integer past the float range is an invalid field."""
    try:
        return float(value)
    except OverflowError:
        raise InvalidParameterError(
            f"{name} must be within the float range, got an integer of "
            f"{len(str(abs(value)))} digits"
        ) from None


def require_finite(name: str, value: float) -> float:
    if type(value) is not float:  # the common case, a float, needs no conversion
        try:
            if isinstance(value, (str, bytes, bytearray)):
                raise TypeError("text is not a number, though float() reads it")
            value = float(value)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    value = require_finite(name, value)
    if value < 0.0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    value = require_finite(name, value)
    if value <= 0.0:
        raise InvalidParameterError(f"{name} must be > 0, got {value!r}")
    return value


def require_unit_interval(name: str, value: float) -> float:
    value = require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return value


def require_count(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value <= 0:
        raise InvalidParameterError(f"{name} must be >= 1, got {value!r}")
    return value


def require_increasing(
    name: str, values: Iterable[float], check: Callable[[str, float], float]
) -> list[float]:
    """Each value through ``check`` as ``name[i]``; nonempty and strictly increasing."""
    grid = [check(f"{name}[{i}]", v) for i, v in enumerate(values)]
    if not grid:
        raise InvalidParameterError(f"{name} must be nonempty")
    if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
        raise InvalidParameterError(f"{name} must be strictly increasing")
    return grid
