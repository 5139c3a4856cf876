"""Shared test data.

PHI_TABLE rows are (C_b_fixed, alpha_plus, alpha_minus, L, with_fixed,
expected phi) for a one-component schedule.  Expected values come from exact
decimal arithmetic, not from the code under test; every row lands on a
representable double, so equality is exact.  The table covers zero activity,
both directions, zero rates, fixed-charge rows, and sub-unit boundary
magnitudes.

Every Hypothesis test runs under one profile: derandomized, with no example
database and no deadline, so a run is reproducible and a slow shared host
cannot fail it.  Each test sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("lexopt", deadline=None, derandomize=True, database=None)
settings.load_profile("lexopt")

PHI_TABLE = [
    (0.0, 0.2, 0.2, 5.0, False, 1.0),
    (1.0, 0.2, 0.3, -5.0, True, 2.5),
    (0.0, 0.5, 0.25, 0.0, False, 0.0),
    (2.5, 0.5, 0.25, 0.0, True, 0.0),
    (0.0, 0.0, 0.0, 7.5, False, 0.0),
    (3.0, 0.0, 0.0, -7.5, True, 3.0),
    (0.0, 0.25, 0.5, 1.0, False, 0.25),
    (0.0, 0.25, 0.5, -1.0, False, 0.5),
    (0.5, 1.0, 0.0, -2.5, False, 0.0),
    (1.0, 2.0, 1.5, 5.0, True, 11.0),
    (0.0, 0.125, 1.5, -5.0, False, 7.5),
    (0.5, 2.0, 0.25, -2.0, False, 0.5),
    (2.0, 0.75, 1.5, 0.5, True, 2.375),
    (0.0, 0.5, 0.75, 1.0, False, 0.5),
    (0.5, 0.5, 0.0, 8.0, True, 4.5),
    (3.0, 0.5, 0.75, -1.0, False, 0.75),
    (0.0, 0.125, 1.0, -0.25, True, 0.25),
    (0.5, 1.0, 1.5, 4.0, False, 4.0),
    (1.0, 0.2, 1.5, 2.5, False, 0.5),
    (3.0, 0.5, 2.0, -2.0, False, 4.0),
    (1.0, 0.5, 0.5, -0.25, False, 0.125),
    (4.0, 0.2, 2.0, -2.5, False, 5.0),
    (1.0, 0.2, 0.75, -2.5, False, 1.875),
    (4.0, 1.5, 0.5, 5.0, False, 7.5),
    (0.0, 1.5, 0.0, -1.0, False, 0.0),
    (2.5, 0.125, 0.2, -5.0, False, 1.0),
    (0.5, 1.0, 0.5, -1.0, True, 1.0),
    (1.0, 2.0, 0.2, 1.0, False, 2.0),
    (2.0, 0.75, 2.0, -1.0, False, 2.0),
    (1.0, 0.75, 0.125, 8.0, True, 7.0),
    (2.0, 0.75, 0.75, -0.25, True, 2.1875),
    (1.0, 2.0, 2.0, 0.25, False, 0.5),
    (1.0, 0.2, 0.75, 0.0, False, 0.0),
    (2.5, 0.0, 0.0, -8.0, False, 0.0),
    (4.0, 0.0, 0.75, -8.0, False, 6.0),
    (1.0, 0.125, 0.25, -8.0, True, 3.0),
    (2.0, 0.0, 0.0, 2.0, False, 0.0),
    (2.0, 1.0, 0.75, 1.0, False, 1.0),
    (3.0, 1.5, 0.5, -0.5, False, 0.25),
    (1.0, 1.5, 0.75, -2.5, False, 1.875),
    (2.5, 0.25, 0.0, -0.5, False, 0.0),
    (1.0, 0.125, 0.0, -4.0, True, 1.0),
    (2.0, 0.5, 0.125, 1.0, True, 2.5),
    (2.0, 2.0, 0.0, 0.25, True, 2.5),
    (0.5, 0.125, 0.5, -0.5, True, 0.75),
    (0.5, 0.25, 0.2, 0.25, True, 0.5625),
    (1.0, 0.125, 1.5, -0.5, False, 0.75),
    (2.5, 0.75, 0.5, 0.5, True, 2.875),
    (4.0, 1.0, 0.5, -2.5, False, 1.25),
    (1.0, 0.75, 0.125, 0.5, True, 1.375),
]
