"""Exception types shared across the package."""

from __future__ import annotations


class LexoptError(Exception):
    """Base class for every error raised by this package."""


class InvalidParameterError(LexoptError, ValueError):
    """An input violates its documented domain.

    ``field`` names the offending parameter, or a path into it such as
    ``C_a_grid[3]`` or ``utilities['a']``, so callers (and the CLI) can
    report it without reading the message.  A function that takes a record
    names the record's field (``L_C_star`` of an ``OptimumSolution``).  It is
    None unless given: ``InvalidParameterError("text")`` names no field.
    """

    def __init__(self, *args: object, field: str | None = None) -> None:
        super().__init__(*args)
        self.field = field

    def renamed(self, field: str) -> InvalidParameterError:
        """The same error about ``field``: an error from ``invalid`` with the field replaced."""
        return invalid(field, str(self)[len(self.field) + 1:])


def invalid(field: str, text: str) -> InvalidParameterError:
    """The InvalidParameterError about ``field`` whose message is the field, then ``text``."""
    return InvalidParameterError(f"{field} {text}", field=field)


class DomainError(LexoptError, ArithmeticError):
    """A mathematically undefined operation was requested on otherwise valid inputs.

    Examples: a marginal-rate ratio at a zero denominator, a shadow price
    that is not strictly positive where positivity is required, or a
    finite-difference stencil that leaves the function's domain.
    """
