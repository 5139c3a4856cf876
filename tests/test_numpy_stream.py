"""Canary for the numpy binomial stream that every stochastic byte comes from.

``simulate --stochastic``, ``sweep --stochastic`` and the cli-bulk golden
digests all read ``numpy.random.default_rng(seed).binomial``.  NEP 19 does
not promise that a Generator's draws stay the same across numpy releases,
so stochastic output is reproducible for a seed on one numpy version.  The
first draws are pinned here as numpy 2.4.6 gives them, in both of its
binomial regimes: inversion while n * min(p, 1 - p) <= 30, BTPE above it.
A failure of the pins on another numpy names the cause of any stochastic
output, digest included, that differs there.

``sim._stretches`` draws a stretch of ticks in one ``size=k`` call and, when
the lagged rate flips inside it, restores the generator's saved state and
draws the ticks up to the flip again; the other tests check the two facts
that relies on.
"""

import numpy as np
import pytest

PINNED_ON = "2.4.6"

# (seed, n, p) -> the first 8 values of default_rng(seed).binomial(n, p, size=8)
FIRST_DRAWS = {
    # inversion: n * min(p, 1 - p) = 10, and 5 with p > 1/2
    (0, 1000, 0.01): [11, 8, 5, 4, 13, 14, 11, 12],
    (0, 100, 0.95): [94, 96, 98, 99, 93, 92, 95, 94],
    (1, 1000, 0.01): [10, 15, 7, 15, 8, 9, 13, 9],
    (1, 100, 0.95): [95, 91, 97, 91, 96, 96, 93, 96],
    # BTPE: the default config's 10**4 injurers, and n * p = 3e11
    (0, 10_000, 0.1): [1038, 1002, 1007, 989, 989, 1012, 942, 1015],
    (0, 10**12, 0.3): [300000576678, 300000037927, 300000073893, 299999783217,
                       299999593777, 300000006617, 300000794774, 299999973866],
    (1, 10_000, 0.1): [985, 954, 1000, 1045, 980, 998, 987, 1001],
    (1, 10**12, 0.3): [299999725393, 299999237713, 299999989359, 299999711507,
                       300000704007, 300000461922, 299999645945, 299999947512],
}

REGIMES = [(1000, 0.01), (100, 0.95), (10_000, 0.1), (10**12, 0.3)]


@pytest.mark.parametrize("seed, n, p", list(FIRST_DRAWS))
def test_first_draws_are_pinned(seed, n, p):
    draws = np.random.default_rng(seed).binomial(n, p, size=8)
    assert draws.dtype == np.int64
    assert draws.tolist() == FIRST_DRAWS[seed, n, p], (
        f"numpy {np.__version__} draws other values than numpy {PINNED_ON}, "
        "so its stochastic output differs")


@pytest.mark.parametrize("n, p", REGIMES)
def test_one_sized_call_gives_the_values_of_scalar_calls(n, p):
    sized_rng, scalar_rng = np.random.default_rng(0), np.random.default_rng(0)
    sized = sized_rng.binomial(n, p, size=64)
    scalars = [scalar_rng.binomial(n, p) for _ in range(64)]
    assert sized.tolist() == scalars
    assert sized_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("n, p", REGIMES)
def test_a_restored_state_draws_a_prefix_again(n, p):
    rng = np.random.default_rng(1)
    rng.binomial(n, p, size=3)
    saved = rng.bit_generator.state
    chunk = rng.binomial(n, p, size=64)
    rng.bit_generator.state = saved
    assert rng.binomial(n, p, size=10).tolist() == chunk[:10].tolist()
