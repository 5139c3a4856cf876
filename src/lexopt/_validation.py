"""Small field validators used by the public dataclasses.

Every check raises :class:`~lexopt.errors.InvalidParameterError` with the
field name in the message and returns the value coerced to ``float``.
"""

import math
import sys
from typing import Callable, Iterable

from .errors import InvalidParameterError


def as_float(name: str, value: float) -> float:
    """float(value) of a number; an integer past the float range is an invalid field.

    Text is a TypeError, though float() reads it.
    """
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        size = shown(value, lambda v: f"an integer of {len(str(abs(v)))} digits")
        raise InvalidParameterError(f"{name} must be within the float range, got {size}") from None


def shown(value: object, text: Callable[[object], str] = repr) -> str:
    """text(value) for an error message; an integer past str()'s digit limit by its size."""
    try:
        return text(value)
    except ValueError:  # str() refuses an integer past the interpreter's digit limit
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"


def require_finite(name: str, value: float) -> float:
    if type(value) is not float:  # the common case, a float, needs no conversion
        try:
            value = as_float(name, value)
        except InvalidParameterError:  # a ValueError, but its message already names the field
            raise
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
        raise InvalidParameterError(f"{name} must be >= 1, got {shown(value)}")
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
