"""Small field validators used by the public dataclasses.

Every value check raises :class:`~lexopt.errors.InvalidParameterError`, made
by ``invalid`` with the field name as its ``field``, and returns the value
coerced to ``float``; ``require_type`` raises a TypeError naming the field.
"""

import math
import sys
from operator import countOf, lt
from typing import Callable, Iterable

from .errors import InvalidParameterError, invalid


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
        raise invalid(name, f"must be within the float range, got {size}") from None


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
            raise invalid(name, f"must be a number, got {value!r}") from None
    if not math.isfinite(value):
        raise invalid(name, f"must be finite, got {value!r}")
    return value


def require_nonnegative(name: str, value: float) -> float:
    value = require_finite(name, value)
    if value < 0.0:
        raise invalid(name, f"must be >= 0, got {value!r}")
    return value


def require_positive(name: str, value: float) -> float:
    value = require_finite(name, value)
    if value <= 0.0:
        raise invalid(name, f"must be > 0, got {value!r}")
    return value


def require_unit_interval(name: str, value: float) -> float:
    value = require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise invalid(name, f"must lie in [0, 1], got {value!r}")
    return value


def require_type(name: str, value: object, kind: type) -> None:
    """A TypeError naming the field unless value is a ``kind``; a truthy str would pick a mode."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise TypeError(f"{name} must be {article} {kind.__name__}, got {shown(value)}")


def require_count(name: str, value: int) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise invalid(name, f"must be an integer, got {value!r}")
    if value <= 0:
        raise invalid(name, f"must be >= 1, got {shown(value)}")
    return value


def require_each(
    name: str, values: Iterable[float], check: Callable[[str, float], float]
) -> list[float]:
    """Each value through ``check`` once, as ``name[i]``; nonempty.

    A generator is read once, and the first value that fails names its index.
    """
    grid = [check(f"{name}[{i}]", v) for i, v in enumerate(values)]
    if not grid:
        raise invalid(name, "must be nonempty")
    return grid


def require_increasing(
    name: str, values: Iterable[float], check: Callable[[str, float], float]
) -> list[float]:
    """``require_each``, and strictly increasing.

    A tuple or list of plain floats that strictly increases holds no NaN
    and lies between its ends, so when ``check`` (which accepts an interval
    of floats and returns a float unchanged, as every check here does)
    passes both ends, it passes every value: such a grid is checked in C,
    by the type and order of its values.  Anything else, and every failure,
    takes the per-element path, which gives every error message.
    """
    if (type(values) in (tuple, list) and values
            and countOf(map(type, values), float) == len(values)
            and all(map(lt, values, values[1:]))):
        try:
            check(name, values[0])
            check(name, values[-1])
        except InvalidParameterError:
            pass
        else:
            return list(values)
    grid = require_each(name, values, check)
    if any(later <= earlier for earlier, later in zip(grid, grid[1:])):
        raise invalid(name, "must be strictly increasing")
    return grid
