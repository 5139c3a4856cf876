"""Deterministic litigation-market simulator.

Each tick runs one cohort of potential injurers through the model:

1.  Every injurer picks the precaution level B from the configured grid that
    minimizes B + P_harm(B) * L_harm * (1 - discount * settlement_rate),
    where settlement_rate is the PREVIOUS tick's settlement share (one-tick
    lag; zero on the first tick).  The discount captures how routinely
    settled claims blunt the deterrent bite of expected liability.
2.  Injuries arrive as the deterministic expectation
    n_injurers * P_harm(B); a seeded stochastic mode draws them binomially
    instead.  Every injury becomes a filing.
3.  Each filing is classified with the dispute primitives (the template plus
    the policy-controlled administration cost C_a) and either settles or
    goes to trial.  All filings in a tick share one set of primitives, so a
    tick settles or tries as a block, and settlements + trials = filings
    holds exactly.
4.  Welfare accrues as realized payoffs minus all resource costs:
    settlements * S_B + trials * p * W_B
    - (settlements * C_b + trials * C_a)      (transaction costs)
    - n_injurers * B                          (precaution spending)
    - injuries * L_harm                       (harm).
    The welfare carried on the state is the running total.

The administration-cost sweep reports the full horizon's aggregate trials,
run-level settlement rate and final welfare for each C_a on a grid under
the identical configuration and seed, with the best-welfare and
fewest-trials rows flagged (ties to the smallest C_a).  Whether the welfare
argmax sits at an interior C_a is reported by the data, never asserted by
the code.

A run is compiled once before its first tick: the dispute primitives, the
thresholds and the settle/trial decision do not change over a run, and the
precaution choice depends only on the lagged settlement rate, which is 0.0
on the first tick and exactly 0.0 or 1.0 after it.  harm_probability_fn is
therefore treated as a pure function, evaluated once per distinct rate in a
walk.  One walk yields a run's ticks as stretches at one precaution level:
a deterministic run is at most two stretches, the first tick and the rest,
each one outcome and its tick count.  A stochastic run draws each stretch of
ticks at one precaution level in one numpy call, with the values of one
draw per tick; a settling run's rate flips with a zero draw, so it redraws
from the state saved before the chunk up to that draw.  ``step`` in
stochastic mode needs the caller's ``rng``, passed on every call, and makes
one scalar draw from it.

One welfare kernel, ``_RunPlan.welfare``, is the expression with the
parentheses of the sum above.  ``step`` evaluates it on floats, a
deterministic run once per stretch on the one float its ticks share, and a
stochastic run once on all its draws as one float64 array, with each
tick's B, whose elementwise + - * round as Python's float arithmetic does.
A run's running totals, aggregate_trials and welfare, are Python's + in
tick order from +0.0, as one step adds onto the previous state.  For
``simulate`` a stochastic run's count columns hold the draws as ints, and
aggregate_trials their exact running sums, when n_injurers * ticks, which
bounds every count, is below 2**53, where "%d" of the int prints the
digits "%.17g" prints for the float.

The walk reads C_a only through the settle/trial decision, made on floats,
so the sweep walks the horizon once per decision class, not once per cell.
It adds each stretch's filings once per class and its welfare once per
trial cell and once for all settling cells, whose ticks try nothing and so
do not read C_a, in tick order from +0.0 with the bits of the per-tick
loop: a drawn stretch's values in C, a deterministic stretch's one value
a binade at a time, in O(binades crossed) adds.  Settlements and trials
come from filings, as a run settles or tries every filing as a block.

The records ``SimState`` and ``SweepRow`` are NamedTuples: they unpack and
index, compare equal to a plain tuple of the same values, and offer
``_fields``, ``_asdict()`` and ``_replace()``; ``dataclasses.asdict``,
``astuple`` and ``replace`` do not apply to them, and assigning a field
raises AttributeError.  ``run_simulation`` turns the rows of its columns
into states with one ``tuple.__new__`` call per state, in C.
"""

from __future__ import annotations

import math
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, repeat
from operator import add
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

from ._validation import (
    as_float,
    require_count,
    require_each,
    require_increasing,
    require_nonnegative,
    require_type,
    require_unit_interval,
    shown,
)
from .core_model import CaseParameters, _settles, resolve_thresholds
from .errors import DomainError, InvalidParameterError, invalid

if TYPE_CHECKING:
    import numpy as np

_MAX_DRAW_COUNT = 2**63 - 1  # the largest count numpy's Generator.binomial takes (int64)
_CHUNK_MIN, _CHUNK_MAX = 32, 1 << 10  # ticks per batched binomial call (_stretches)


@dataclass(frozen=True)
class ExponentialHarm:
    """P_harm(B) = p0 * exp(-decay * B); nonincreasing in B by construction."""

    p0: float
    decay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p0", require_unit_interval("p0", self.p0))
        object.__setattr__(self, "decay", require_nonnegative("decay", self.decay))

    def __call__(self, B: float) -> float:
        return self.p0 * math.exp(-self.decay * B)


@dataclass(frozen=True)
class CaseTemplate:
    """Dispute primitives shared by every filing; C_a is supplied per policy."""

    p: float
    W_B: float
    S_B: float
    C_b: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", require_unit_interval("p", self.p))
        for name in ("W_B", "S_B", "C_b"):
            object.__setattr__(self, name, require_nonnegative(name, getattr(self, name)))

    def with_admin_cost(self, C_a: float) -> CaseParameters:
        return CaseParameters(p=self.p, W_B=self.W_B, S_B=self.S_B, C_a=C_a, C_b=self.C_b)


@dataclass(frozen=True)
class SimConfig:
    """A market of ``n_injurers`` per tick over ``ticks`` ticks at one administration cost.

    Each tick's injurers pick the precaution on ``precaution_cost_grid``
    that minimizes their expected cost, with the harm probability
    ``harm_probability_fn(B)`` and size ``L_harm``, the liability discounted
    by ``settlement_liability_discount`` times the lagged settlement rate.
    Filings settle or go to trial by the ``case_template`` dispute at
    ``C_a_policy``, with the High/Low cutoffs ``theta_a`` and ``theta_b``
    (P_C / 2 each when None).  ``stochastic`` draws the injuries binomially
    from ``seed``.
    """

    n_injurers: int
    precaution_cost_grid: tuple[float, ...]
    harm_probability_fn: Callable[[float], float]
    L_harm: float
    case_template: CaseTemplate
    C_a_policy: float
    settlement_liability_discount: float
    ticks: int
    seed: int
    theta_a: float | None = None
    theta_b: float | None = None
    stochastic: bool = field(default=False)

    def __post_init__(self) -> None:
        require_count("n_injurers", self.n_injurers)
        require_count("ticks", self.ticks)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise invalid("seed", f"must be an integer, got {self.seed!r}")
        require_type("stochastic", self.stochastic, bool)
        if self.stochastic and self.seed < 0:  # numpy's default_rng refuses negative seeds
            raise invalid("seed", f"must be >= 0 in stochastic mode, got {shown(self.seed, str)}")
        if self.stochastic and self.n_injurers > _MAX_DRAW_COUNT:
            raise invalid("n_injurers", f"must be <= {_MAX_DRAW_COUNT} in stochastic mode, "
                                        f"got {shown(self.n_injurers, str)}")
        # each tick multiplies the count by floats, so it must convert to one
        as_float("n_injurers", self.n_injurers)
        grid = require_each("precaution_cost_grid", self.precaution_cost_grid, require_nonnegative)
        object.__setattr__(self, "precaution_cost_grid", tuple(sorted(grid)))
        object.__setattr__(self, "L_harm", require_nonnegative("L_harm", self.L_harm))
        object.__setattr__(self, "C_a_policy", require_nonnegative("C_a_policy", self.C_a_policy))
        require_type("case_template", self.case_template, CaseTemplate)
        object.__setattr__(
            self,
            "settlement_liability_discount",
            require_unit_interval(
                "settlement_liability_discount", self.settlement_liability_discount
            ),
        )
        previous = None
        for B in self.precaution_cost_grid:
            p = require_unit_interval(f"harm_probability_fn({B})", self.harm_probability_fn(B))
            if previous is not None and p > previous + 1e-12:
                raise invalid("harm_probability_fn",
                              f"must be nonincreasing on the grid; rises at B={B}")
            previous = p
        # cutoffs, given or defaulted, that classify_scenario would refuse, refused
        # before any run; the default does not depend on C_a
        cutoffs = resolve_thresholds(self.case_template, self.theta_a, self.theta_b)
        object.__setattr__(self, "_thresholds", cutoffs)

    def thresholds(self) -> tuple[float, float]:
        """The (theta_a, theta_b) cutoffs as floats, resolved once when the config is made."""
        return self._thresholds


class SimState(NamedTuple):
    """The state after one tick, with the run's running totals."""

    tick: int
    injuries: float
    filings: float
    settlements: float
    trials: float
    aggregate_trials: float
    welfare: float


INITIAL_STATE = SimState(
    tick=0, injuries=0.0, filings=0.0, settlements=0.0, trials=0.0,
    aggregate_trials=0.0, welfare=0.0,
)


def choose_precaution(cfg: SimConfig, settlement_rate: float = 0.0) -> float:
    """Cost-minimizing precaution against liability discounted by settlement.

    Minimizes B + P_harm(B) * L_harm * (1 - discount * settlement_rate) over
    the sorted grid; min keeps the first of equal costs, so ties resolve to
    the smaller B.
    """
    settlement_rate = require_unit_interval("settlement_rate", settlement_rate)
    liability_weight = 1.0 - cfg.settlement_liability_discount * settlement_rate
    return min(
        cfg.precaution_cost_grid,
        key=lambda B: B + cfg.harm_probability_fn(B) * cfg.L_harm * liability_weight,
    )


def _settlement_rate(state: SimState) -> float:
    return state.settlements / state.filings if state.filings > 0.0 else 0.0


class _RunPlan:
    """The part of a run that no tick changes, built once per run or decision class.

    It holds the settle/trial decision at C_a, made on floats, and caches the
    precaution choice (B, P_harm(B)) by lagged settlement rate.  The decision
    is fixed for the run, so from the second tick on the rate is exactly 0.0
    or 1.0 and a run makes at most two precaution choices.  The cutoffs are
    the config's, resolved when it was made.
    """

    def __init__(self, cfg: SimConfig, C_a: float) -> None:
        self.cfg = cfg
        self.settles = _settles(cfg.case_template, C_a, *cfg.thresholds())
        self._precautions: dict[float, tuple[float, float]] = {}

    def precaution(self, settlement_rate: float) -> tuple[float, float]:
        """(B, P_harm(B)) chosen against the given lagged settlement rate."""
        found = self._precautions.get(settlement_rate)
        if found is None:
            B = choose_precaution(self.cfg, settlement_rate)
            found = (B, self.cfg.harm_probability_fn(B))
            self._precautions[settlement_rate] = found
        return found

    def rate_after(self, filings: float) -> float:
        """The next tick's lagged settlement rate: every filing settled, or none did."""
        return 1.0 if self.settles and filings > 0.0 else 0.0

    def welfare(self, B, x, C_a: float):
        """One tick's welfare at B, x injuries and C_a; B and x floats or float64 arrays.

        An overflow leaves an inf or a nan, which the caller reports; an array
        caller silences numpy's warnings.
        """
        case, cfg = self.cfg.case_template, self.cfg
        s, t = (x, 0.0) if self.settles else (0.0, x)  # every filing settles or none does
        return (s * case.S_B + t * case.p * case.W_B - (s * case.C_b + t * C_a)
                - cfg.n_injurers * B - x * cfg.L_harm)


def _generator(cfg: SimConfig) -> np.random.Generator | None:
    """The run's binomial stream, seeded from cfg.seed; None in deterministic mode."""
    if not cfg.stochastic:
        return None
    import numpy as np

    return np.random.default_rng(cfg.seed)


def _stretches(
    plan: _RunPlan, rng: np.random.Generator | None, rate: float, left: int
) -> Iterator[tuple[float, float | Sequence, int]]:
    """``left`` ticks' injuries from the lagged rate ``rate`` on, as (B, injuries, ticks) stretches.

    A stretch runs at one precaution level B up to a flip of the rate.  A
    trial run's rate stays 0.0; a settling run's flips when the injuries turn
    zero or nonzero.  A drawn chunk of about the ticks a stretch is expected
    to last, from P(draw == 0) = (1 - p) ** n, is one binomial call with
    ``size=k``, whose values are those of k scalar calls; if the rate flips
    inside it, the generator's saved state is restored and only the ticks up
    to the flip are redrawn.  While a flip is likely soon, or few ticks are
    left, each tick is one scalar call.  A drawn stretch's injuries are its
    integer draws, an int64 array or a list of the scalar calls' ints.  With
    no rng a stretch is the deterministic expectation n * p as one float,
    for every tick to the horizon once the rate stops flipping.
    """
    n, sizes = plan.cfg.n_injurers, {}
    while left:
        B, p_harm = plan.precaution(rate)
        if rng is not None and left >= _CHUNK_MIN and rate not in sizes:
            flip = 0.0  # the chance that a drawn tick flips the rate
            if plan.settles:
                log_zero = n * math.log1p(-p_harm) if p_harm < 1.0 else -math.inf
                flip = math.exp(log_zero) if rate else -math.expm1(log_zero)
            sizes[rate] = int(1.0 / max(flip, 1.0 / _CHUNK_MAX))
        size = min(left, sizes.get(rate, 1))
        if rng is None:  # a deterministic tick depends on the rate alone
            injuries = n * p_harm
            ticks = left if plan.rate_after(injuries) == rate else 1
        elif size < _CHUNK_MIN:
            injuries = [rng.binomial(n, p_harm)]
            while len(injuries) < left and plan.rate_after(injuries[-1]) == rate:
                injuries.append(rng.binomial(n, p_harm))
        else:
            saved = rng.bit_generator.state
            injuries = rng.binomial(n, p_harm, size=size)
            flips = ((injuries > 0) != (rate > 0.0)).nonzero()[0] if plan.settles else ()
            if len(flips) and flips[0] + 1 < size:
                rng.bit_generator.state = saved
                injuries = rng.binomial(n, p_harm, size=flips[0] + 1)
        ticks, last = (ticks, injuries) if rng is None else (len(injuries), injuries[-1])
        yield B, injuries, ticks
        left -= ticks
        rate = plan.rate_after(last)


def step(state: SimState, cfg: SimConfig, rng: np.random.Generator | None = None) -> SimState:
    """Advance one tick; the settlement rate feeding precaution lags by one tick.

    In stochastic mode the injuries are drawn from rng, which is required:
    pass one generator and keep passing it, as run_simulation does.  Each
    call makes one scalar ``rng.binomial(n, p)`` call, so any object with
    that method will do; an rng without one is a TypeError.
    """
    if cfg.stochastic and rng is None:
        raise InvalidParameterError(
            "step needs an rng in stochastic mode: pass one numpy Generator and "
            "reuse it on every tick", field="rng"
        )
    if cfg.stochastic and not callable(getattr(rng, "binomial", None)):
        raise TypeError(f"rng must have a binomial method, as a numpy Generator has, "
                        f"got {shown(rng)}")
    plan = _RunPlan(cfg, cfg.C_a_policy)
    B, p_harm = plan.precaution(_settlement_rate(state))
    n = cfg.n_injurers
    injuries = float(rng.binomial(n, p_harm)) if cfg.stochastic else n * p_harm
    settlements, trials = (injuries, 0.0) if plan.settles else (0.0, injuries)
    return SimState(state.tick + 1, injuries, injuries, settlements, trials,
                    state.aggregate_trials + trials,
                    state.welfare + plan.welfare(B, injuries, cfg.C_a_policy))


#: The most rows a per-tick list can hold: past it, sizing ``[x] * ticks``
#: fails (a MemoryError or an OverflowError) before any memory is asked for.
_MAX_ROWS = sys.maxsize // struct.calcsize("P")


def _running(terms: Iterable, start):
    """The running totals of ``terms`` from ``start``, each Python's + onto the last."""
    totals = list(accumulate(terms, initial=start))
    del totals[0]
    return totals


@contextmanager
def _per_tick_rows(ticks: int) -> Iterator[None]:
    """A MemoryError while per-tick rows are built becomes a DomainError naming ticks."""
    try:
        yield
    except MemoryError:
        raise DomainError(f"ticks={shown(ticks, str)} is more rows than this process "
                          f"can allocate") from None


def _run_columns(cfg: SimConfig, whole_counts: bool = False) -> list[Sequence]:
    """The SimState fields over the full horizon from the zero state, one column per field.

    The welfare column is ``_RunPlan.welfare`` once per deterministic stretch,
    or once on a stochastic run's draws; aggregate_trials and welfare are
    running totals, added in tick order from +0.0 as step adds onto the
    previous state.  With ``whole_counts`` a stochastic run's injuries,
    filings, settlements and trials are the draws as ints, and
    aggregate_trials their running sums, when n_injurers * ticks, the bound
    of every count, is below 2**53; otherwise they are floats.  A horizon of
    more ticks than a list can hold, or than this process can allocate, is
    a DomainError naming ticks.  One column is sized before the walk, so a
    horizon whose first column does not fit fails before any tick is run;
    memory that runs out later, in the walk or a later column, is the same
    error.  ``sweep_admin_cost`` keeps no per-tick rows and takes any horizon.
    """
    if cfg.ticks > _MAX_ROWS:
        raise DomainError(f"ticks={shown(cfg.ticks, str)} is more rows than a per-tick table "
                          f"can hold (at most {_MAX_ROWS})")
    with _per_tick_rows(cfg.ticks):
        none = [0.0] * cfg.ticks  # one per-tick column, sized before the walk draws anything
        plan = _RunPlan(cfg, cfg.C_a_policy)
        stretches = list(_stretches(plan, _generator(cfg), 0.0, cfg.ticks))
        if cfg.stochastic:
            import numpy as np

            draws = np.concatenate([drawn for _, drawn, _ in stretches])
            x = draws.astype(float)
            Bs = np.repeat([B for B, _, _ in stretches], [ticks for _, _, ticks in stretches])
            with np.errstate(all="ignore"):
                welfare = plan.welfare(Bs, x, cfg.C_a_policy).tolist()
            # each count is at most n_injurers * ticks; below 2**53 "%d" of the
            # int prints the digits "%.17g" prints for the float
            if whole_counts and cfg.n_injurers * cfg.ticks < 2**53:
                injuries, none = draws.tolist(), [0] * cfg.ticks
            else:
                injuries = x.tolist()
        else:
            injuries, welfare = [], []
            for B, x, ticks in stretches:
                injuries += [x] * ticks
                welfare += [plan.welfare(B, x, cfg.C_a_policy)] * ticks
        settlements, trials = (injuries, none) if plan.settles else (none, injuries)
        return [range(1, cfg.ticks + 1), injuries, injuries, settlements, trials,
                _running(trials, none[0]), _running(welfare, 0.0)]


def _repeat_add(x: float, c: float, n: int) -> float:
    """x after ``for _ in range(n): x += c``, with the loop's bits, a binade at a time.

    Within a binade every add rounds c to one multiple d of its ulp, once a
    round-half-even tie has made the total even.  Of four plain adds a, b, x
    the last shows d when a and x share a binade and |a| > 4|c| (no add near
    zero); x + j * d is then exact and the loop's total while it stays over
    half a step short of the binade's edge.  A total that stops moving is a
    fixed point: O(binades crossed) adds in all.
    """
    while n >= 4:
        a = x + c + c
        b = a + c
        x = b + c
        n -= 4
        if x == b or not math.isfinite(x):
            return x  # x + c is x again: c rounds away, or x is inf or nan
        m, e = math.frexp(x)
        if abs(a) > 4.0 * abs(c) and math.frexp(a)[1] == e:
            d = x - b
            room = 1.0 - abs(m) if (d > 0.0) == (x > 0.0) else abs(m) - 0.5
            j = min(n, int(room / math.ldexp(abs(d), -e)) - 1)  # steps to the edge, less one
            if j > 0:
                x += j * d
                n -= j
    for _ in range(n):
        x += c
    return x


def run_simulation(cfg: SimConfig) -> list[SimState]:
    """Full horizon from the zero state; returns the state after each tick.

    A horizon whose columns or states this process cannot allocate is a
    DomainError naming ticks.
    """
    columns = _run_columns(cfg)
    with _per_tick_rows(cfg.ticks):
        return list(map(tuple.__new__, repeat(SimState), zip(*columns)))


class SweepRow(NamedTuple):
    """One administration cost's horizon totals and flags."""

    C_a: float
    aggregate_trials: float
    settlement_rate: float
    welfare: float
    best_welfare: bool
    fewest_trials: bool


def require_admin_cost_grid(C_a_grid: Sequence[float]) -> list[float]:
    """The grid as floats: nonempty, finite, >= 0 and strictly increasing."""
    return require_increasing("C_a_grid", C_a_grid, require_nonnegative)


def sweep_admin_cost(cfg: SimConfig, C_a_grid: Sequence[float]) -> list[SweepRow]:
    """The horizon's totals at each administration cost on the grid.

    Every cell shares cfg (including the seed), so the cells that settle
    share one walk of the horizon and the cells that go to trial another:
    the precaution choice reads the lagged rate, never C_a, and each cell is
    decided on floats.  Each stretch is added to every trial cell, and once
    for all settling cells, whose ticks try nothing and so hold the same
    welfare; a deterministic one a binade at a time (``_repeat_add``), in time
    and memory that do not grow with the horizon.  The settlement rate reported
    per row is total settlements over total filings for that cell.  Exactly
    one row is flagged best_welfare and one fewest_trials (ties to the
    smallest C_a).

    A running total stalls once one tick's value is under half an ulp of
    the total, as the per-tick loop's would.  On ``default_config()`` the welfare totals
    stall past about 10**16 ticks (11 distinct values at 10**16, 1 at
    10**17), and aggregate_trials at 2**63, so at such horizons the flags
    follow float saturation and the tie rule, not the model: at 10**20 ticks
    all 20 default cells hold one welfare, and best_welfare sits on C_a = 0
    by the tie rule alone.
    """
    grid = require_admin_cost_grid(C_a_grid)
    thresholds = cfg.thresholds()  # neither cutoff reads C_a
    classes: dict[bool, list[int]] = {}
    for i, C_a in enumerate(grid):
        classes.setdefault(_settles(cfg.case_template, C_a, *thresholds), []).append(i)
    results: list[tuple] = [()] * len(grid)
    for settles, cells in classes.items():
        plan = _RunPlan(cfg, grid[cells[0]])
        summed = cells[:1] if settles else cells  # a settling cell's welfare never reads C_a
        filings, welfare = 0.0, [0.0] * len(summed)
        # from +0.0, left to right as += adds (sum() compensates); every injury is a filing
        for B, injuries, ticks in _stretches(plan, _generator(cfg), 0.0, cfg.ticks):
            if cfg.stochastic:
                import numpy as np

                x = np.asarray(injuries, dtype=float)  # the drawn stretch, converted once
                filings = reduce(add, x.tolist(), filings)
                with np.errstate(all="ignore"):
                    welfare = [reduce(add, plan.welfare(B, x, grid[i]).tolist(), total)
                               for i, total in zip(summed, welfare)]
            else:  # the one value a deterministic stretch's ticks share, added ticks times
                filings = _repeat_add(filings, injuries, ticks)
                welfare = [_repeat_add(total, plan.welfare(B, injuries, grid[i]), ticks)
                           for i, total in zip(summed, welfare)]
        settlements, trials = (filings, 0.0) if settles else (0.0, filings)  # block decision
        rate = settlements / filings if filings > 0.0 else 0.0
        for i, w in zip(cells, welfare * len(cells) if settles else welfare):
            results[i] = (grid[i], trials, rate, w)

    rows = range(len(results))
    best_welfare_at = max(rows, key=lambda i: (results[i][3], -i))
    fewest_trials_at = min(rows, key=lambda i: (results[i][1], i))
    return [SweepRow(*results[i], i == best_welfare_at, i == fewest_trials_at) for i in rows]


def default_config() -> SimConfig:
    """Desk-scale defaults: 1e4 injurers, 100 ticks, the running dispute example."""
    return SimConfig(
        n_injurers=10_000,
        precaution_cost_grid=(0.0, 5.0, 10.0, 15.0, 20.0),
        harm_probability_fn=ExponentialHarm(p0=0.1, decay=0.1),
        L_harm=200.0,
        case_template=CaseTemplate(p=0.5, W_B=100.0, S_B=60.0, C_b=4.0),
        C_a_policy=10.0,
        settlement_liability_discount=0.5,
        ticks=100,
        seed=0,
    )


def default_sweep_grid() -> tuple[float, ...]:
    """20 administration-cost levels spanning both sides of the default thresholds.

    The values of ``numpy.linspace(0.0, 55.0, 20)`` bit for bit (the same
    step, start and endpoint arithmetic), as plain floats and without numpy.
    """
    return tuple(k * (55.0 / 19) + 0.0 for k in range(19)) + (55.0,)
