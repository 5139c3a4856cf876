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

The administration-cost sweep reruns the full horizon for each C_a on a
grid under the identical configuration and seed, reporting aggregate trials,
the run-level settlement rate, and final welfare per grid point, with the
best-welfare and fewest-trials rows flagged (ties to the smallest C_a).
Whether the welfare argmax sits at an interior C_a is reported by the data,
never asserted by the code.

A run is compiled once before its first tick: the dispute primitives, the
thresholds and the settle/trial decision do not change over a run, and the
precaution choice depends only on the lagged settlement rate, which is 0.0
on the first tick and exactly 0.0 or 1.0 after it.  harm_probability_fn is
therefore treated as a pure function, evaluated once per distinct rate in a
run, and a deterministic run's outcomes are a prefix and a repeating cycle:
the sweep adds its totals in C over them, in tick order from +0.0, with the
bits of the per-tick loop, and takes settlements and trials from filings, as
a run settles or tries every filing as a block.  A stochastic run draws each
stretch of ticks at one precaution level in one numpy call, with the values
of one draw per tick; a settling run's rate flips with a zero draw, so it
redraws from the state saved before the chunk up to that draw.  ``step`` in
stochastic mode needs the caller's ``rng``, passed on every call, and makes
one scalar draw from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, cycle, islice, repeat, starmap
from operator import add
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from ._validation import (
    as_float,
    require_count,
    require_each,
    require_increasing,
    require_nonnegative,
    require_unit_interval,
    shown,
)
from .core_model import CaseParameters, Decision, classify_scenario, resolve_thresholds
from .errors import InvalidParameterError

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

    def with_admin_cost(self, C_a: float) -> CaseParameters:
        return CaseParameters(p=self.p, W_B=self.W_B, S_B=self.S_B, C_a=C_a, C_b=self.C_b)


@dataclass(frozen=True)
class SimConfig:
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
            raise InvalidParameterError(f"seed must be an integer, got {self.seed!r}")
        if not isinstance(self.stochastic, bool):  # 'false' or 1 would select the draws
            raise TypeError(f"stochastic must be a bool, got {shown(self.stochastic)}")
        if self.stochastic and self.seed < 0:  # numpy's default_rng refuses negative seeds
            raise InvalidParameterError(
                f"seed must be >= 0 in stochastic mode, got {shown(self.seed, str)}")
        if self.stochastic and self.n_injurers > _MAX_DRAW_COUNT:
            raise InvalidParameterError(
                f"n_injurers must be <= {_MAX_DRAW_COUNT} in stochastic mode, "
                f"got {shown(self.n_injurers, str)}"
            )
        # each tick multiplies the count by floats, so it must convert to one
        as_float("n_injurers", self.n_injurers)
        grid = require_each("precaution_cost_grid", self.precaution_cost_grid, require_nonnegative)
        object.__setattr__(self, "precaution_cost_grid", tuple(sorted(grid)))
        object.__setattr__(self, "L_harm", require_nonnegative("L_harm", self.L_harm))
        object.__setattr__(self, "C_a_policy", require_nonnegative("C_a_policy", self.C_a_policy))
        if not isinstance(self.case_template, CaseTemplate):
            raise TypeError(f"case_template must be a CaseTemplate, got {type(self.case_template)}")
        self.case_template.with_admin_cost(self.C_a_policy)  # validates the template fields
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
                raise InvalidParameterError(
                    f"harm_probability_fn must be nonincreasing on the grid; "
                    f"rises at B={B}"
                )
            previous = p

    def thresholds(self) -> tuple[float, float]:
        case = self.case_template.with_admin_cost(self.C_a_policy)
        return resolve_thresholds(case, self.theta_a, self.theta_b)


@dataclass(frozen=True)
class SimState:
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
    """The part of a run that no tick changes, built once per run.

    It holds the dispute primitives at the run's administration cost, the
    resolved thresholds and the settle/trial decision, and caches the
    precaution choice (B, P_harm(B)) by lagged settlement rate.  The decision
    is fixed for the run, so from the second tick on the rate is exactly 0.0
    or 1.0 and a run makes at most two precaution choices.  In deterministic
    mode a tick depends on the rate alone, so its whole outcome is cached.
    """

    def __init__(self, cfg: SimConfig, C_a: float) -> None:
        self.cfg = cfg
        self.case = cfg.case_template.with_admin_cost(C_a)
        self.thresholds = resolve_thresholds(self.case, cfg.theta_a, cfg.theta_b)
        scenario = classify_scenario(self.case, *self.thresholds)
        self.settles = scenario.decision is Decision.SETTLE
        self._precautions: dict[float, tuple[float, float]] = {}
        self._outcomes: dict[float, tuple] = {}

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

    def tick(self, settlement_rate: float) -> tuple:
        """A deterministic tick's outcome, as one tuple of ``ticks``."""
        found = self._outcomes.get(settlement_rate)
        if found is None:
            B, p_harm = self.precaution(settlement_rate)
            found = self.ticks(B, [self.cfg.n_injurers * p_harm])[0]
            self._outcomes[settlement_rate] = found
        return found

    def ticks(self, B: float, injuries: list[float]) -> list[tuple]:
        """(injuries, filings, settlements, trials, tick welfare) per injury count at B."""
        case, L_harm, spend = self.case, self.cfg.L_harm, self.cfg.n_injurers * B
        S_B, p, W_B, C_b, C_a = case.S_B, case.p, case.W_B, case.C_b, case.C_a
        settled, tried = (injuries, repeat(0.0)) if self.settles else (repeat(0.0), injuries)
        return [  # every filing settles or every filing goes to trial
            (x, x, s, t, s * S_B + t * p * W_B - (s * C_b + t * C_a) - spend - x * L_harm)
            for x, s, t in zip(injuries, settled, tried)
        ]


def _generator(cfg: SimConfig) -> np.random.Generator | None:
    """The run's binomial stream, seeded from cfg.seed; None in deterministic mode."""
    if not cfg.stochastic:
        return None
    import numpy as np

    return np.random.default_rng(cfg.seed)


def _stretches(
    plan: _RunPlan, rng: np.random.Generator | None, rate: float, left: int
) -> Iterator[tuple[float, list[float]]]:
    """``left`` ticks' injuries from the lagged rate ``rate`` on, as (B, injuries) stretches.

    A stretch runs at one precaution level B up to a flip of the rate.  A
    trial run's rate stays 0.0; a settling run's flips when the injuries turn
    zero or nonzero.  A drawn chunk of about the ticks a stretch is expected
    to last, from P(draw == 0) = (1 - p) ** n, is one binomial call with
    ``size=k``, whose values are those of k scalar calls; if the rate flips
    inside it, the generator's saved state is restored and only the ticks up
    to the flip are redrawn.  While a flip is likely soon, or few ticks are
    left, each tick is one scalar call.  With no rng the ticks are the
    deterministic expectation n * p, a stretch to the horizon once the rate
    stops flipping.
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
            injuries = [n * p_harm] * (left if plan.rate_after(n * p_harm) == rate else 1)
        elif size < _CHUNK_MIN:
            injuries = [float(rng.binomial(n, p_harm))]
            while len(injuries) < left and plan.rate_after(injuries[-1]) == rate:
                injuries.append(float(rng.binomial(n, p_harm)))
        else:
            saved = rng.bit_generator.state
            drawn = rng.binomial(n, p_harm, size=size)
            flips = ((drawn > 0) != (rate > 0.0)).nonzero()[0] if plan.settles else ()
            if len(flips) and flips[0] + 1 < size:
                rng.bit_generator.state = saved
                drawn = rng.binomial(n, p_harm, size=flips[0] + 1)
            injuries = drawn.astype(float).tolist()
        yield B, injuries
        left -= len(injuries)
        rate = plan.rate_after(injuries[-1])


def _ticks(plan: _RunPlan, rng: np.random.Generator | None) -> Iterator[tuple]:
    """A run's tick outcomes in tick order."""
    return chain.from_iterable(starmap(plan.ticks, _stretches(plan, rng, 0.0, plan.cfg.ticks)))


def step(state: SimState, cfg: SimConfig, rng: np.random.Generator | None = None) -> SimState:
    """Advance one tick; the settlement rate feeding precaution lags by one tick.

    In stochastic mode the injuries are drawn from rng, which is required:
    pass one generator and keep passing it, as run_simulation does.  Each
    call makes one scalar ``rng.binomial(n, p)`` call, so any object with
    that method will do.
    """
    if cfg.stochastic and rng is None:
        raise InvalidParameterError(
            "step needs an rng in stochastic mode: pass one numpy Generator and "
            "reuse it on every tick"
        )
    plan = _RunPlan(cfg, cfg.C_a_policy)
    stretch = next(_stretches(plan, rng if cfg.stochastic else None, _settlement_rate(state), 1))
    injuries, filings, settlements, trials, welfare = plan.ticks(*stretch)[0]
    return SimState(state.tick + 1, injuries, filings, settlements, trials,
                    state.aggregate_trials + trials, state.welfare + welfare)


def _run_rows(cfg: SimConfig) -> list[tuple]:
    """Full horizon from the zero state, one tuple of the SimState fields per tick.

    The tuples hold what run_simulation's states hold, in field order, without
    a record per tick: (tick, injuries, filings, settlements, trials,
    aggregate_trials, welfare).
    """
    plan = _RunPlan(cfg, cfg.C_a_policy)
    rows = []
    # explicit + in tick order, as step accumulates onto the previous state
    aggregate_trials = welfare = 0.0
    for tick, (injuries, filings, settlements, trials, w) in enumerate(
        _ticks(plan, _generator(cfg)), 1
    ):
        aggregate_trials += trials
        welfare += w
        rows.append((tick, injuries, filings, settlements, trials, aggregate_trials, welfare))
    return rows


def run_simulation(cfg: SimConfig) -> list[SimState]:
    """Full horizon from the zero state; returns the state after each tick."""
    return [SimState(*row) for row in _run_rows(cfg)]


@dataclass(frozen=True)
class SweepRow:
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
    """Rerun the horizon for each administration cost on the grid.

    Every run shares cfg (including the seed); the settlement rate reported
    per row is total settlements over total filings for that run.  Exactly
    one row is flagged best_welfare and one fewest_trials (ties to the
    smallest C_a).
    """
    grid = require_admin_cost_grid(C_a_grid)
    results = []
    for C_a in grid:
        plan = _RunPlan(cfg, C_a)
        filings = welfare = rate = 0.0
        if cfg.stochastic:
            for t in _ticks(plan, _generator(cfg)):  # added with + in tick order
                filings += t[1]
                welfare += t[4]
        else:  # walk to the first repeated rate, then add the prefix and cycle in C
            seen: dict[float, tuple] = {}  # each lagged rate's outcome, in the order reached
            while rate not in seen and len(seen) < cfg.ticks:
                seen[rate] = t = plan.tick(rate)
                rate = plan.rate_after(t[1])
            start = list(seen).index(rate) if rate in seen else cfg.ticks
            filings, welfare = (  # from +0.0, left to right as += adds (sum() compensates)
                reduce(add, islice(chain(c[:start], cycle(c[start:])), cfg.ticks), 0.0)
                for c in zip(*((t[1], t[4]) for t in seen.values())))
        settlements, trials = (filings, 0.0) if plan.settles else (0.0, filings)  # block decision
        results.append((C_a, trials, settlements / filings if filings > 0.0 else 0.0, welfare))

    best_welfare_at = max(range(len(results)), key=lambda i: (results[i][3], -i))
    fewest_trials_at = min(range(len(results)), key=lambda i: (results[i][1], i))
    return [
        SweepRow(
            C_a=C_a,
            aggregate_trials=trials,
            settlement_rate=rate,
            welfare=welfare,
            best_welfare=(i == best_welfare_at),
            fewest_trials=(i == fewest_trials_at),
        )
        for i, (C_a, trials, rate, welfare) in enumerate(results)
    ]


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
