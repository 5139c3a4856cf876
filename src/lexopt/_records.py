"""Frozen, slotted dataclass records built column by column.

A table of records (the admitted alpha candidates, the states of a run, the
rows of a sweep) is computed as columns of plain values.  ``records`` turns
the columns into instances without an ``__init__`` call per record: each
instance is made bare and each field is set on all of them in one C-level
pass over its column.
"""

from __future__ import annotations

from collections import deque
from dataclasses import fields
from itertools import repeat
from typing import Sequence, TypeVar

_Record = TypeVar("_Record")


def records(cls: type[_Record], *columns: Sequence) -> tuple[_Record, ...]:
    """Instances of the frozen, slotted dataclass ``cls``, one per row of ``columns``.

    ``columns`` holds one sequence per field, in declaration order, all of
    one length.  The instances are made with ``object.__new__``, and each
    field is set on all of them by one map of its slot's ``__set__`` over
    its column, drained in C, so each record equals the one ``cls(*row)``
    makes, without a call to ``__init__`` per record.  A class with a
    ``__post_init__``, whose checks would be skipped, or without its own
    ``__slots__`` is a TypeError.
    """
    if hasattr(cls, "__post_init__") or "__slots__" not in vars(cls):
        raise TypeError(f"records needs a slotted dataclass without __post_init__, got {cls!r}")
    names = [f.name for f in fields(cls)]
    n = len(columns[0]) if columns else 0
    if len(columns) != len(names) or any(len(column) != n for column in columns):
        raise TypeError(f"records needs {len(names)} columns of one length for {cls.__name__}")
    built = tuple(map(object.__new__, repeat(cls, n)))
    for name, column in zip(names, columns):
        deque(map(getattr(cls, name).__set__, built, column), maxlen=0)
    return built
