import dataclasses
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lexopt import (
    CaseTemplate,
    Decision,
    ExponentialHarm,
    InvalidParameterError,
    SimConfig,
    SimState,
    SweepRow,
    choose_precaution,
    classify_scenario,
    default_config,
    default_sweep_grid,
    default_thresholds,
    reasonable_bargain,
    run_simulation,
    step,
    sweep_admin_cost,
)
from lexopt import sim
from lexopt._validation import require_unit_interval
from lexopt.sim import (
    INITIAL_STATE,
    _run_columns,
    _repeat_add,
    _RunPlan,
    _settlement_rate,
    _stretches,
    require_admin_cost_grid,
)


def small_config(**overrides) -> SimConfig:
    kw = dict(
        n_injurers=100,
        precaution_cost_grid=(0.0, 5.0, 10.0),
        harm_probability_fn=ExponentialHarm(p0=0.1, decay=0.1),
        L_harm=200.0,
        case_template=CaseTemplate(p=0.5, W_B=100.0, S_B=60.0, C_b=4.0),
        C_a_policy=10.0,
        settlement_liability_discount=0.5,
        ticks=10,
        seed=0,
    )
    kw.update(overrides)
    return SimConfig(**kw)


class TestExponentialHarm:
    def test_intercept_and_decay(self):
        fn = ExponentialHarm(p0=0.1, decay=0.1)
        assert fn(0.0) == 0.1
        assert fn(5.0) == 0.1 * math.exp(-0.5)

    def test_zero_decay_is_constant(self):
        fn = ExponentialHarm(p0=0.3, decay=0.0)
        assert fn(0.0) == fn(100.0) == 0.3

    def test_validation(self):
        with pytest.raises(InvalidParameterError, match="p0"):
            ExponentialHarm(p0=1.5, decay=0.1)
        with pytest.raises(InvalidParameterError, match="decay"):
            ExponentialHarm(p0=0.5, decay=-0.1)


class TestCaseTemplate:
    def test_with_admin_cost_forwards_fields(self):
        case = CaseTemplate(p=0.5, W_B=100.0, S_B=60.0, C_b=4.0).with_admin_cost(10.0)
        assert (case.p, case.W_B, case.S_B, case.C_a, case.C_b) == (0.5, 100.0, 60.0, 10.0, 4.0)

    def test_bad_admin_cost_names_the_field(self):
        with pytest.raises(InvalidParameterError, match="C_a"):
            CaseTemplate(p=0.5, W_B=100.0, S_B=60.0, C_b=4.0).with_admin_cost(-1.0)


class TestSimConfigValidation:
    def test_counts_must_be_positive_integers(self):
        with pytest.raises(InvalidParameterError, match="n_injurers"):
            small_config(n_injurers=0)
        with pytest.raises(InvalidParameterError, match="ticks"):
            small_config(ticks=-1)

    def test_seed_must_be_a_plain_integer(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            small_config(seed=1.5)
        with pytest.raises(InvalidParameterError, match="seed"):
            small_config(seed=True)

    @pytest.mark.parametrize("flag", ["false", 0, 1, None])
    def test_stochastic_must_be_a_bool(self, flag):
        # any truthy value used to select the binomial draws, 'false' included
        with pytest.raises(TypeError, match=f"^stochastic must be a bool, got {flag!r}$"):
            small_config(stochastic=flag)

    def test_stochastic_seed_must_be_nonnegative(self):
        # numpy's default_rng refuses a negative seed with a bare ValueError
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            small_config(seed=-1, stochastic=True)
        assert run_simulation(small_config(seed=-1))[0].tick == 1
        assert len(run_simulation(small_config(seed=0, stochastic=True))) == 10

    def test_stochastic_injurer_count_must_fit_a_binomial_draw(self):
        # numpy's binomial refuses a count above 2**63 - 1 with a bare OverflowError
        with pytest.raises(InvalidParameterError, match="n_injurers must be <= 9223372036854775807"):
            small_config(n_injurers=2**63, stochastic=True)
        assert len(run_simulation(small_config(n_injurers=2**63 - 1, stochastic=True))) == 10
        assert run_simulation(small_config(n_injurers=10**20))[0].injuries > 0

    def test_injurer_count_must_convert_to_a_float(self):
        # each tick multiplies the count by floats; past the float range that
        # was an OverflowError from inside the run, not a named field
        with pytest.raises(InvalidParameterError) as err:
            small_config(n_injurers=10**400)
        assert str(err.value) == (
            "n_injurers must be within the float range, got an integer of 401 digits")
        assert run_simulation(small_config(n_injurers=2**1023))[0].injuries > 0

    def test_grid_must_be_nonempty_and_nonnegative(self):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            small_config(precaution_cost_grid=())
        with pytest.raises(InvalidParameterError, match=r"precaution_cost_grid\[1\]"):
            small_config(precaution_cost_grid=(0.0, -5.0))

    @pytest.mark.parametrize("grid,message", [
        (("a",), "precaution_cost_grid[0] must be a number, got 'a'"),
        ((0.0, 5.0, math.nan), "precaution_cost_grid[2] must be finite, got nan"),
        ((b for b in (0.0, -5.0)), "precaution_cost_grid[1] must be >= 0, got -5.0"),
    ])
    def test_grid_messages(self, grid, message):
        with pytest.raises(InvalidParameterError) as info:
            small_config(precaution_cost_grid=grid)
        assert str(info.value) == message

    def test_grid_is_sorted_on_construction(self):
        cfg = small_config(precaution_cost_grid=(5.0, 0.0, 10.0))
        assert cfg.precaution_cost_grid == (0.0, 5.0, 10.0)
        cfg = small_config(precaution_cost_grid=(b for b in (5.0, 0.0, 10.0)))
        assert cfg.precaution_cost_grid == (0.0, 5.0, 10.0)

    def test_discount_must_be_in_unit_interval(self):
        with pytest.raises(InvalidParameterError, match="settlement_liability_discount"):
            small_config(settlement_liability_discount=1.5)

    def test_harm_fn_must_be_nonincreasing_on_grid(self):
        with pytest.raises(InvalidParameterError, match="nonincreasing"):
            small_config(harm_probability_fn=lambda B: 0.01 * (1.0 + B))

    def test_harm_fn_must_stay_in_unit_interval(self):
        with pytest.raises(InvalidParameterError, match="harm_probability_fn"):
            small_config(harm_probability_fn=lambda B: 2.0)

    def test_template_is_validated_immediately(self):
        with pytest.raises(InvalidParameterError, match="W_B"):
            small_config(case_template=CaseTemplate(p=0.5, W_B=-1.0, S_B=60.0, C_b=4.0))

    @pytest.mark.parametrize("template", [None, {"p": 0.5, "W_B": 100.0, "S_B": 60.0, "C_b": 4.0}])
    def test_template_of_another_type_is_a_type_error(self, template):
        # calling with_admin_cost on it would be an AttributeError
        with pytest.raises(TypeError, match="^case_template must be a CaseTemplate, got"):
            small_config(case_template=template)


class TestThresholds:
    def test_defaults_split_the_benefit_pool(self):
        assert default_config().thresholds() == (27.5, 27.5)

    def test_explicit_values_win(self):
        cfg = small_config(theta_a=3.0, theta_b=7.0)
        assert cfg.thresholds() == (3.0, 7.0)

    def test_mixed_override(self):
        cfg = small_config(theta_a=3.0)
        assert cfg.thresholds() == (3.0, 27.5)

    @pytest.mark.parametrize("theta_a,theta_b", [
        (math.nan, -3.0), (-1.0, math.nan), (-1.0, None), (None, 0.0), (math.inf, 1.0),
        (1.0, -math.inf), (-1.0, -2.0), ("x", 1.0),
    ])
    def test_given_cutoffs_are_refused_as_classify_scenario_refuses_them(self, theta_a, theta_b):
        # thresholds() once returned (nan, -3.0), and only a run refused them
        case = small_config().case_template.with_admin_cost(10.0)
        with pytest.raises(InvalidParameterError) as expected:
            classify_scenario(case, theta_a, theta_b)
        with pytest.raises(InvalidParameterError) as refused:
            small_config(theta_a=theta_a, theta_b=theta_b)
        assert str(refused.value) == str(expected.value)

    def test_default_cutoffs_of_zero_are_refused_on_construction(self):
        # the run refused them once, with "theta_a must be > 0, got 0.0"
        template = CaseTemplate(p=0.0, W_B=100.0, S_B=0.0, C_b=4.0)
        with pytest.raises(InvalidParameterError) as expected:
            classify_scenario(template.with_admin_cost(10.0))
        assert str(expected.value).startswith("theta_a and theta_b default to P_C / 2")
        for stochastic in (False, True):
            with pytest.raises(InvalidParameterError) as refused:
                small_config(case_template=template, stochastic=stochastic)
            assert str(refused.value) == str(expected.value)
        cfg = small_config(case_template=template, theta_a=1.0, theta_b=1.0)
        assert _hex_fields(run_simulation(cfg)) == _hex_fields(reference_run(cfg))

    def test_cutoffs_are_checked_last(self):
        with pytest.raises(InvalidParameterError, match="^harm_probability_fn"):
            small_config(theta_a=math.nan, harm_probability_fn=lambda B: 2.0)


@st.composite
def precaution_cases(draw):
    """(levels, probabilities, L_harm, discount, rate) for one precaution choice.

    Half the cases put unit-spaced levels against a weighted loss of 16 and
    probabilities in steps of 1/16, so neighbouring costs tie whenever the
    probability falls by one step; the rest draw any finite values.
    """
    if draw(st.booleans()):
        start, n = draw(st.integers(0, 4)), draw(st.integers(1, 6))
        drops = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=n, max_size=n))
        k = draw(st.integers(0, 16))
        probabilities = []
        for drop in drops:
            probabilities.append(k / 16)
            k = max(0, k - drop)
        L_harm, discount, rate = draw(st.sampled_from(
            [(16.0, 0.0, 1.0), (16.0, 1.0, 0.0), (32.0, 0.5, 1.0), (32.0, 1.0, 0.5)]))
        return [float(start + i) for i in range(n)], probabilities, L_harm, discount, rate
    levels = draw(st.lists(st.floats(0.0, 1e3), min_size=1, max_size=6, unique=True))
    probabilities = draw(st.lists(st.floats(0.0, 1.0), min_size=len(levels),
                                  max_size=len(levels)))
    return (levels, probabilities, draw(st.floats(0.0, 1e6)), draw(st.floats(0.0, 1.0)),
            draw(st.floats(0.0, 1.0)))


class TestChoosePrecaution:
    def test_full_liability_picks_interior_level(self):
        assert choose_precaution(default_config(), settlement_rate=0.0) == 5.0

    def test_discounted_liability_drops_precaution(self):
        assert choose_precaution(default_config(), settlement_rate=1.0) == 0.0

    def test_tie_resolves_to_smaller_level(self):
        table = {0.0: 0.1, 10.0: 0.05}
        cfg = small_config(
            precaution_cost_grid=(0.0, 10.0),
            harm_probability_fn=table.__getitem__,
        )
        # both levels cost exactly 20, so the smaller one wins
        assert choose_precaution(cfg, settlement_rate=0.0) == 0.0

    def test_rate_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidParameterError, match="settlement_rate"):
            choose_precaution(default_config(), settlement_rate=1.5)

    def test_all_overflowing_costs_pick_the_first_level(self):
        # every cost is B + 1 * 1.7e308 = inf, so no level is cheaper than the first
        cfg = small_config(
            precaution_cost_grid=(1.7e308, 1.75e308),
            harm_probability_fn=ExponentialHarm(p0=1.0, decay=0.0),
            L_harm=1.7e308,
            settlement_liability_discount=0.0,
        )
        assert choose_precaution(cfg, settlement_rate=0.0) == 1.7e308
        assert reference_choose_precaution(cfg, settlement_rate=0.0) is None

    @settings(max_examples=300)
    @given(case=precaution_cases())
    # every level costs 20 in the first example and 8 in the second
    @example(case=([0.0, 10.0], [0.5, 0.25], 40.0, 0.0, 0.0))
    @example(case=([0.0, 4.0, 8.0], [1.0, 0.5, 0.0], 16.0, 0.5, 1.0))
    def test_matches_the_reference_loop(self, case):
        levels, probabilities, L_harm, discount, rate = case
        levels = sorted(levels)
        table = dict(zip(levels, sorted(probabilities, reverse=True)))
        cfg = small_config(precaution_cost_grid=tuple(levels),
                           harm_probability_fn=table.__getitem__, L_harm=L_harm,
                           settlement_liability_discount=discount)
        assert choose_precaution(cfg, rate) == reference_choose_precaution(cfg, rate)


class TestStep:
    def test_settlement_rate_lags_one_tick(self):
        cfg = replace(default_config(), C_a_policy=30.0)
        s1 = step(INITIAL_STATE, cfg)
        s2 = step(s1, cfg)
        # first tick sees rate 0 (B = 5); the all-settled first tick then
        # discounts liability and the second tick drops to B = 0
        assert s1.injuries == 606.5306597126335
        assert s2.injuries == 1000.0

    def test_settle_regime_settles_everything(self):
        cfg = replace(default_config(), C_a_policy=30.0)
        s1 = step(INITIAL_STATE, cfg)
        assert s1.trials == 0.0
        assert s1.settlements == s1.filings

    def test_trial_regime_tries_everything(self):
        s1 = step(INITIAL_STATE, default_config())
        assert s1.settlements == 0.0
        assert s1.trials == s1.filings

    def test_conservation_is_exact(self):
        cfg = default_config()
        state = INITIAL_STATE
        for _ in range(5):
            state = step(state, cfg)
            assert state.settlements + state.trials == state.filings

    def test_welfare_matches_hand_computation(self):
        cfg = replace(default_config(), C_a_policy=30.0)
        s1 = step(INITIAL_STATE, cfg)
        inj = 10_000 * 0.1 * math.exp(-0.5)
        expected = inj * 60.0 - inj * 4.0 - 10_000 * 5.0 - inj * 200.0
        assert s1.welfare == expected

    def test_stochastic_step_needs_an_rng(self):
        # a generator seeded afresh on every call drew the same injuries each tick
        cfg = replace(default_config(), stochastic=True, n_injurers=1000)
        with pytest.raises(InvalidParameterError, match="rng"):
            step(INITIAL_STATE, cfg)

    def test_stochastic_step_makes_one_scalar_draw_from_any_rng(self):
        # step promises one rng.binomial(n, p) call per call, so a generator
        # of the caller's own with only that method works
        class ScalarRng:
            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def binomial(self, n, p):
                self.calls += 1
                return self.rng.binomial(n, p)

        cfg = small_config(ticks=60, n_injurers=2, settlement_liability_discount=1.0,
                           C_a_policy=30.0, stochastic=True)
        rng, reference_rng = ScalarRng(3), ScalarRng(3)
        state = reference = INITIAL_STATE
        injuries = set()
        for tick in range(1, cfg.ticks + 1):
            state = step(state, cfg, rng)
            reference = reference_step(reference, cfg, reference_rng)
            assert _hex_fields([state]) == _hex_fields([reference])
            assert rng.calls == tick
            injuries.add(state.injuries)
        assert 0.0 in injuries and len(injuries) > 1  # both lagged rates were reached

    def test_welfare_accumulates(self):
        cfg = default_config()
        s1 = step(INITIAL_STATE, cfg)
        s2 = step(s1, cfg)
        assert s2.welfare != s1.welfare
        assert s2.aggregate_trials == s1.trials + s2.trials


class TestRunSimulation:
    def test_returns_one_state_per_tick(self):
        states = run_simulation(small_config(ticks=7))
        assert len(states) == 7
        assert [s.tick for s in states] == list(range(1, 8))

    def test_deterministic_across_calls(self):
        cfg = small_config()
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_stochastic_mode_is_seed_reproducible(self):
        a = run_simulation(small_config(stochastic=True, seed=42))
        b = run_simulation(small_config(stochastic=True, seed=42))
        c = run_simulation(small_config(stochastic=True, seed=43))
        assert a == b
        assert a != c

    def test_stochastic_injuries_are_whole_counts(self):
        for state in run_simulation(small_config(stochastic=True, seed=7)):
            assert state.injuries == int(state.injuries)
            assert state.settlements + state.trials == state.filings

    @pytest.mark.parametrize("C_a", [10.0, 30.0])
    def test_harm_fn_runs_once_per_distinct_rate_not_per_tick(self, C_a):
        calls = []

        def harm(B):
            calls.append(B)
            return 0.1 * math.exp(-0.1 * B)

        cfg = replace(default_config(), harm_probability_fn=harm, C_a_policy=C_a)
        counts = {}
        for ticks in (1, 2, 500):
            run = replace(cfg, ticks=ticks)
            for call in (run_simulation, lambda run: sweep_admin_cost(run, [C_a])):
                calls.clear()  # SimConfig validation calls it once per grid level
                call(run)
                counts.setdefault(ticks, []).append(len(calls))
        # one precaution choice per distinct lagged settlement rate, and the
        # rate is 0.0 or 1.0 from the second tick on; the sweep chooses for
        # the rates its ticks reach, as the run does, and no others
        assert all(run == sweep for run, sweep in counts.values())
        assert counts[2] == counts[500]
        assert counts[2][0] <= 2 * (len(cfg.precaution_cost_grid) + 1)

    def test_settlement_rate_helper(self):
        assert _settlement_rate(INITIAL_STATE) == 0.0
        state = replace(INITIAL_STATE, filings=10.0, settlements=4.0)
        assert _settlement_rate(state) == 0.4


class TestSweepAdminCost:
    def test_grid_validation(self):
        cfg = small_config()
        with pytest.raises(InvalidParameterError, match="nonempty"):
            sweep_admin_cost(cfg, [])
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            sweep_admin_cost(cfg, [1.0, 1.0])
        with pytest.raises(InvalidParameterError, match=r"C_a_grid\[0\]"):
            sweep_admin_cost(cfg, [-1.0, 2.0])
        with pytest.raises(InvalidParameterError, match=r"C_a_grid\[1\] must be finite"):
            sweep_admin_cost(cfg, [1.0, math.nan])
        assert require_admin_cost_grid((0, 2.5)) == [0.0, 2.5]
        assert require_admin_cost_grid(c for c in (0, 2.5)) == [0.0, 2.5]

    @pytest.mark.parametrize("grid,message", [
        (("a",), "C_a_grid[0] must be a number, got 'a'"),
        ((0.0, 5.0, math.nan), "C_a_grid[2] must be finite, got nan"),
        ((c for c in (0.0, -5.0)), "C_a_grid[1] must be >= 0, got -5.0"),
    ])
    def test_grid_messages(self, grid, message):
        with pytest.raises(InvalidParameterError) as info:
            sweep_admin_cost(small_config(), grid)
        assert str(info.value) == message

    def test_rate_steps_at_the_admin_threshold(self):
        rows = sweep_admin_cost(default_config(), default_sweep_grid())
        for row in rows:
            expected = 1.0 if row.C_a >= 27.5 else 0.0
            assert row.settlement_rate == expected

    def test_exactly_one_row_per_flag(self):
        rows = sweep_admin_cost(default_config(), default_sweep_grid())
        assert sum(r.best_welfare for r in rows) == 1
        assert sum(r.fewest_trials for r in rows) == 1

    def test_flags_sit_on_the_extremes(self):
        rows = sweep_admin_cost(default_config(), default_sweep_grid())
        best = next(r for r in rows if r.best_welfare)
        fewest = next(r for r in rows if r.fewest_trials)
        assert best.welfare == max(r.welfare for r in rows)
        assert fewest.aggregate_trials == min(r.aggregate_trials for r in rows)

    def test_fewest_trials_tie_goes_to_smallest_admin_cost(self):
        # every row at or above the threshold has zero trials
        rows = sweep_admin_cost(default_config(), default_sweep_grid())
        zero_rows = [r for r in rows if r.aggregate_trials == 0.0]
        assert len(zero_rows) > 1
        assert zero_rows[0].fewest_trials
        assert not any(r.fewest_trials for r in zero_rows[1:])

    def test_total_tie_puts_both_flags_on_the_first_row(self):
        cfg = small_config(harm_probability_fn=ExponentialHarm(p0=0.0, decay=0.1))
        rows = sweep_admin_cost(cfg, [0.0, 10.0, 20.0])
        assert all(r.welfare == 0.0 and r.aggregate_trials == 0.0 for r in rows)
        assert rows[0].best_welfare and rows[0].fewest_trials
        assert not any(r.best_welfare or r.fewest_trials for r in rows[1:])

    def test_high_bargain_cost_blocks_settlement_everywhere(self):
        cfg = small_config(case_template=CaseTemplate(p=0.5, W_B=100.0, S_B=60.0, C_b=30.0))
        rows = sweep_admin_cost(cfg, [0.0, 30.0, 55.0])
        assert all(r.settlement_rate == 0.0 for r in rows)

    def test_records_hold_their_fields_in_their_instance_dict(self):
        # the CLI prints vars() of each sweep row and of the bargain split
        cfg = small_config()
        bargain = reasonable_bargain(cfg.case_template.with_admin_cost(10.0))
        for record in (run_simulation(cfg)[0], sweep_admin_cost(cfg, [0.0])[0], bargain):
            assert list(vars(record)) == [f.name for f in dataclasses.fields(record)]

    def test_default_sweep_grid_shape(self):
        grid = default_sweep_grid()
        assert len(grid) == 20
        assert grid[0] == 0.0
        assert grid[-1] == 55.0


# ---------------------------------------------------------------------------
# the per-tick loop as the reference for the compiled run


def reference_choose_precaution(cfg: SimConfig, settlement_rate: float = 0.0) -> float | None:
    """choose_precaution as the strict-< loop it was before it called min.

    Returns None when every cost is inf.
    """
    settlement_rate = require_unit_interval("settlement_rate", settlement_rate)
    liability_weight = 1.0 - cfg.settlement_liability_discount * settlement_rate
    best_B = None
    best_cost = math.inf
    for B in cfg.precaution_cost_grid:
        cost = B + cfg.harm_probability_fn(B) * cfg.L_harm * liability_weight
        if cost < best_cost:
            best_B = B
            best_cost = cost
    return best_B


def reference_step(state, cfg, rng=None):
    """One tick recomputed from scratch, as the simulator did before it compiled runs."""
    B = reference_choose_precaution(cfg, _settlement_rate(state))
    p_harm = cfg.harm_probability_fn(B)
    if cfg.stochastic:
        injuries = float(rng.binomial(cfg.n_injurers, p_harm))
    else:
        injuries = cfg.n_injurers * p_harm
    filings = injuries

    case = cfg.case_template.with_admin_cost(cfg.C_a_policy)
    default_a, default_b = default_thresholds(case)
    theta_a = default_a if cfg.theta_a is None else cfg.theta_a
    theta_b = default_b if cfg.theta_b is None else cfg.theta_b
    scenario = classify_scenario(case, theta_a, theta_b)
    if scenario.decision is Decision.SETTLE:
        settlements, trials = filings, 0.0
    else:
        settlements, trials = 0.0, filings

    payoffs = settlements * case.S_B + trials * case.p * case.W_B
    transaction_costs = settlements * case.C_b + trials * case.C_a
    tick_welfare = payoffs - transaction_costs - cfg.n_injurers * B - injuries * cfg.L_harm
    return SimState(
        tick=state.tick + 1,
        injuries=injuries,
        filings=filings,
        settlements=settlements,
        trials=trials,
        aggregate_trials=state.aggregate_trials + trials,
        welfare=state.welfare + tick_welfare,
    )


def reference_run(cfg):
    rng = np.random.default_rng(cfg.seed) if cfg.stochastic else None
    states, state = [], INITIAL_STATE
    for _ in range(cfg.ticks):
        state = reference_step(state, cfg, rng)
        states.append(state)
    return states


def reference_sweep(cfg, grid):
    results = []
    for C_a in grid:
        states = reference_run(replace(cfg, C_a_policy=C_a))
        # left to right from zero, which is what sum() does up to Python 3.11
        filings = settlements = 0.0
        for s in states:
            filings += s.filings
            settlements += s.settlements
        rate = settlements / filings if filings > 0.0 else 0.0
        results.append((C_a, states[-1].aggregate_trials, rate, states[-1].welfare))
    best = max(range(len(results)), key=lambda i: (results[i][3], -i))
    fewest = min(range(len(results)), key=lambda i: (results[i][1], i))
    return [SweepRow(*row, best_welfare=(i == best), fewest_trials=(i == fewest))
            for i, row in enumerate(results)]


def _hex_fields(items):
    """Every field of every state or row, floats as float.hex so the last bit counts."""
    return [
        [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(item)]
        for item in items
    ]


def _outcome(fn, *args):
    try:
        return _hex_fields(fn(*args))
    except InvalidParameterError as exc:
        return f"InvalidParameterError: {exc}"


@st.composite
def sim_configs(draw):
    """SimConfigs over every field, half of them with a precaution choice near a tie.

    There L_harm puts two neighbouring grid levels within 0.1% of equal cost
    at full liability, so a small change of the liability weight flips the
    choice.  A draw that SimConfig refuses (default cutoffs of 0) is rejected.
    """
    theta = st.one_of(st.none(), st.floats(0.5, 60.0))
    grid = tuple(draw(st.lists(st.floats(0.0, 30.0), min_size=1, max_size=5)))
    harm = ExponentialHarm(
        p0=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))),
        decay=draw(st.floats(0.0, 1.0)),
    )
    L_harm = draw(st.floats(0.0, 500.0))
    levels = sorted(set(grid))
    if len(levels) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(levels) - 2))
        low, high = levels[i:i + 2]
        if harm(low) > harm(high):
            L_harm = (high - low) / (harm(low) - harm(high)) * draw(st.floats(0.999, 1.001))
    try:
        return SimConfig(
            n_injurers=draw(st.one_of(st.integers(1, 3), st.integers(1, 10**6))),
            precaution_cost_grid=grid,
            harm_probability_fn=harm,
            L_harm=L_harm,
            case_template=CaseTemplate(
                p=draw(st.floats(0.0, 1.0)),
                W_B=draw(st.floats(0.0, 200.0)),
                S_B=draw(st.floats(0.0, 120.0)),
                C_b=draw(st.floats(0.0, 40.0)),
            ),
            C_a_policy=draw(st.floats(0.0, 60.0)),
            settlement_liability_discount=draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                                         st.floats(0.0, 1.0))),
            ticks=draw(st.integers(1, 40)),
            seed=draw(st.integers(0, 2**32)),
            theta_a=draw(theta),
            theta_b=draw(theta),
            stochastic=draw(st.booleans()),
        )
    except InvalidParameterError:
        assume(False)


#: Cells below the default admin threshold (27.5) go to trial, cells above settle.
BOTH_DECISIONS = [0.0, 10.0, 27.5, 30.0, 55.0]

#: A settling run whose lagged rate keeps flipping: one injurer, most draws
#: zero, and a precaution that drops from B = 10 to B = 0 once claims settle.
#: The rate-0.0 ticks (the first, and each after a zero draw) are drawn in
#: chunks that a nonzero draw ends midway, so the generator's state is
#: restored and the chunk redrawn up to that draw.
ZERO_DRAWS = small_config(n_injurers=1, harm_probability_fn=ExponentialHarm(p0=0.05, decay=0.1),
                          L_harm=1000.0, settlement_liability_discount=1.0, ticks=400,
                          stochastic=True, seed=2)

#: Costs of 20.00002 at B = 0 and 20.00001 at B = 10 at full liability (rate 0.0).
NEAR_TIE = small_config(precaution_cost_grid=(0.0, 10.0),
                        harm_probability_fn={0.0: 0.1, 10.0: 0.05}.__getitem__,
                        L_harm=200.0002)


class TestAgainstReferenceLoop:
    @settings(max_examples=200)
    @given(cfg=sim_configs(),
           grid=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6, unique=True).map(sorted))
    @example(cfg=small_config(ticks=30), grid=BOTH_DECISIONS)
    @example(cfg=small_config(ticks=30, stochastic=True, seed=5), grid=BOTH_DECISIONS)
    @example(cfg=small_config(theta_a=3.0, theta_b=7.0), grid=BOTH_DECISIONS)
    @example(cfg=small_config(theta_a=20.0), grid=BOTH_DECISIONS)
    @example(cfg=small_config(harm_probability_fn=ExponentialHarm(p0=0.0, decay=0.1)),
             grid=BOTH_DECISIONS)
    @example(cfg=small_config(settlement_liability_discount=0.0), grid=BOTH_DECISIONS)
    @example(cfg=small_config(settlement_liability_discount=1.0, stochastic=True),
             grid=BOTH_DECISIONS)
    # the drawn runs stop at 40 ticks; a deterministic run's last stretch
    # starts on tick 1 or 2 and repeats one outcome to the horizon
    @example(cfg=small_config(ticks=2000), grid=BOTH_DECISIONS)
    @example(cfg=small_config(ticks=1), grid=BOTH_DECISIONS)
    @example(cfg=small_config(ticks=2), grid=BOTH_DECISIONS)
    # every filing is -0.0, and the totals must still be +0.0
    @example(cfg=small_config(harm_probability_fn=ExponentialHarm(p0=-0.0, decay=0.1)),
             grid=BOTH_DECISIONS)
    # the batched draws: a rate that flips mid-chunk, runs longer than a chunk,
    # and the largest count a draw takes
    @example(cfg=ZERO_DRAWS, grid=BOTH_DECISIONS)
    @example(cfg=small_config(ticks=2000, stochastic=True, seed=11), grid=BOTH_DECISIONS)
    @example(cfg=small_config(n_injurers=2**63 - 1, stochastic=True), grid=BOTH_DECISIONS)
    # a precaution choice near a tie: at full liability B = 10 costs 1e-5 less
    # than B = 0, and any settlement discount of the liability flips it to B = 0
    @example(cfg=NEAR_TIE, grid=BOTH_DECISIONS)
    @example(cfg=replace(NEAR_TIE, stochastic=True, seed=3), grid=BOTH_DECISIONS)
    def test_field_by_field(self, cfg, grid):
        assert _outcome(run_simulation, cfg) == _outcome(reference_run, cfg)
        assert _outcome(sweep_admin_cost, cfg, grid) == _outcome(reference_sweep, cfg, grid)

        def chained_steps(step_fn):
            rng = np.random.default_rng(cfg.seed) if cfg.stochastic else None
            states, state = [], INITIAL_STATE
            for _ in range(cfg.ticks):
                state = step_fn(state, cfg, rng)
                states.append(state)
            return states

        assert _outcome(chained_steps, step) == _outcome(chained_steps, reference_step)

    def test_near_tie_example_flips_with_the_rate(self):
        # a precaution that read anything but the lagged rate, C_a say, would
        # move this choice, and the run would differ from the reference
        assert choose_precaution(NEAR_TIE, 0.0) == 10.0
        assert choose_precaution(NEAR_TIE, 0.01) == 0.0

    def test_examples_reach_both_decisions(self):
        cfg = small_config()
        decisions = {
            classify_scenario(cfg.case_template.with_admin_cost(C_a)).decision
            for C_a in BOTH_DECISIONS
        }
        assert decisions == {Decision.SETTLE, Decision.TRIAL}

    def test_zero_draw_example_flips_the_rate_mid_run(self):
        # without a zero draw followed by a nonzero one in a settling cell, and
        # a chunk that ends early, the restore path would go untested
        class CountingRng:
            def __init__(self, seed):
                self.rng, self.restores = np.random.default_rng(seed), 0
                self.bit_generator = self

            def binomial(self, n, p, size=None):
                return self.rng.binomial(n, p, size=size)

            @property
            def state(self):
                return self.rng.bit_generator.state

            @state.setter
            def state(self, value):
                self.restores += 1
                self.rng.bit_generator.state = value

        settling = [C_a for C_a in BOTH_DECISIONS
                    if classify_scenario(ZERO_DRAWS.case_template.with_admin_cost(C_a)).decision
                    is Decision.SETTLE]
        assert settling
        for C_a in settling:
            cfg = replace(ZERO_DRAWS, C_a_policy=C_a)
            injuries = [s.injuries for s in run_simulation(cfg)]
            assert any(a == 0.0 < b for a, b in zip(injuries[1:], injuries[2:]))
            rng = CountingRng(cfg.seed)
            plan = _RunPlan(cfg, C_a)
            stretches = list(_stretches(plan, rng, 0.0, cfg.ticks))
            assert all(len(drawn) == ticks for _, drawn, ticks in stretches)
            assert [x for _, drawn, _ in stretches for x in drawn] == injuries
            assert rng.restores > 0

    def test_default_sweep_at_benchmark_length(self):
        cfg = replace(default_config(), ticks=500)
        grid = default_sweep_grid()
        assert _hex_fields(sweep_admin_cost(cfg, grid)) == _hex_fields(reference_sweep(cfg, grid))

    def test_one_generator_per_decision_class(self, monkeypatch):
        # the cells of a class share one walk, so a sweep seeds one stream per
        # class, not one per cell
        calls = []
        generator = sim._generator

        def counting(cfg):
            calls.append(cfg)
            return generator(cfg)

        monkeypatch.setattr(sim, "_generator", counting)
        cfg = small_config(ticks=60, stochastic=True, seed=5)
        grid = [3.0 * k for k in range(20)]
        rows = sweep_admin_cost(cfg, grid)
        assert {r.settlement_rate for r in rows} == {0.0, 1.0}  # both classes
        assert len(calls) <= 2
        assert _hex_fields(rows) == _hex_fields(reference_sweep(cfg, grid))


def formula_cell(cfg, C_a):
    """(settles, aggregate_trials, settlement_rate, welfare) of a cell.

    Taken from the model's formulas, tick by tick in a deterministic run:
    the quadrant rule, the precaution that minimizes B + P_harm(B) * L_harm
    * (1 - discount * lagged rate), injuries n * P_harm(B), and the welfare
    of a tick that settles or tries every filing.
    """
    t = cfg.case_template
    half = 0.5 * (0.5 * (t.p * t.W_B + t.S_B))  # P_C / 2
    theta_a = half if cfg.theta_a is None else cfg.theta_a
    theta_b = half if cfg.theta_b is None else cfg.theta_b
    settles = t.C_b < theta_b and C_a >= theta_a and t.p * t.W_B - C_a < t.S_B - t.C_b
    rate = filings = trials = welfare = 0.0
    for _ in range(cfg.ticks):
        weight = 1.0 - cfg.settlement_liability_discount * rate
        B = min(cfg.precaution_cost_grid,
                key=lambda B: B + cfg.harm_probability_fn(B) * cfg.L_harm * weight)
        x = cfg.n_injurers * cfg.harm_probability_fn(B)
        s, tried = (x, 0.0) if settles else (0.0, x)
        filings += x
        trials += tried
        welfare += (s * t.S_B + tried * t.p * t.W_B - (s * t.C_b + tried * C_a)
                    - cfg.n_injurers * B - x * cfg.L_harm)
        rate = 1.0 if settles and x > 0.0 else 0.0
    settlement_rate = (filings if settles else 0.0) / filings if filings > 0.0 else 0.0
    return settles, trials, settlement_rate, welfare


class TestSweepFacts:
    """What the model fixes across the cells of a sweep, checked on its rows."""

    @settings(max_examples=200)
    @given(cfg=sim_configs(),
           grid=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8, unique=True).map(sorted))
    @example(cfg=small_config(ticks=30), grid=BOTH_DECISIONS)
    @example(cfg=small_config(ticks=30, stochastic=True, seed=5), grid=BOTH_DECISIONS)
    @example(cfg=small_config(harm_probability_fn=ExponentialHarm(p0=0.0, decay=0.1)),
             grid=BOTH_DECISIONS)
    @example(cfg=ZERO_DRAWS, grid=BOTH_DECISIONS)
    def test_settling_cells_share_a_row_and_trial_cells_their_trials(self, cfg, grid):
        rows = sweep_admin_cost(cfg, grid)
        cells = [formula_cell(cfg, C_a) for C_a in grid]
        settles = [cell[0] for cell in cells]
        # settling needs C_a >= theta_a and C_a > p * W_B - S_B + C_b: on an
        # increasing grid the decision switches at most once, from trial to settle
        assert settles == sorted(settles)
        settling = [_hex_fields([r])[0][1:4] for r, s in zip(rows, settles) if s]
        trying = [r for r, s in zip(rows, settles) if not s]
        # a settling tick tries nothing, so C_a never reaches a settling row
        assert all(row == settling[0] for row in settling)
        assert all(r.aggregate_trials.hex() == trying[0].aggregate_trials.hex() for r in trying)
        assert all(r.settlement_rate == 0.0 for r in trying)
        # each trial tries as many filings, and each one costs C_a
        assert all(a.welfare >= b.welfare for a, b in zip(trying, trying[1:]))

        first_settling = settles.index(True) if any(settles) else None
        best = [i for i, r in enumerate(rows) if r.best_welfare]
        assert best in ([0], [first_settling])
        fewest = [i for i, r in enumerate(rows) if r.fewest_trials]
        if first_settling is not None and (not trying or trying[0].aggregate_trials > 0.0):
            assert fewest == [first_settling]  # injured, so every trial cell tried some
        if not cfg.stochastic:
            assert [_hex_fields([r])[0][1:4] for r in rows] == [
                [v.hex() for v in cell[1:]] for cell in cells
            ]


class TestSweepAtLongHorizons:
    """Deterministic totals stepped a binade at a time, against the per-tick reference."""

    @pytest.mark.parametrize("cfg,grid", [
        (replace(default_config(), ticks=1000), default_sweep_grid()),
        (small_config(ticks=10_000), BOTH_DECISIONS),
        (replace(NEAR_TIE, ticks=30_000), BOTH_DECISIONS[1::3]),
        (replace(default_config(), ticks=100_000), [10.0, 55.0]),
    ], ids=["default-1e3", "small-1e4", "near-tie-3e4", "default-1e5"])
    def test_matches_the_reference_sweep(self, cfg, grid):
        assert _hex_fields(sweep_admin_cost(cfg, grid)) == _hex_fields(reference_sweep(cfg, grid))

    def test_peak_memory_does_not_grow_with_ticks(self):
        # a stretch is one float and a tick count: a 10**6-float list is 8 MB
        cfg, grid = replace(default_config(), ticks=10**6), default_sweep_grid()
        sweep_admin_cost(cfg, grid)  # imports and first-call caches out of the count
        tracemalloc.start()
        try:
            sweep_admin_cost(cfg, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_horizon_past_any_list_keeps_the_sweep_facts(self):
        rows = sweep_admin_cost(replace(default_config(), ticks=10**20), default_sweep_grid())
        assert all(math.isfinite(v) for r in rows for v in dataclasses.astuple(r)[1:4])
        settling = [_hex_fields([r])[0][1:4] for r in rows if r.settlement_rate == 1.0]
        trying = [r for r in rows if r.settlement_rate == 0.0]
        assert settling and trying and len(settling) + len(trying) == len(rows)
        assert all(row == settling[0] for row in settling)
        assert len({r.aggregate_trials for r in trying}) == 1
        assert all(a.welfare >= b.welfare for a, b in zip(trying, trying[1:]))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def repeated_adds(draw):
    """(x0, c, n): any floats, or a start behind zero, or a c that ties at half an ulp."""
    n = draw(st.integers(0, 10_000))
    c, x0 = draw(st.floats()), draw(st.floats())
    start = draw(st.sampled_from(["any", "behind zero", "tie"]))
    if start == "behind zero" and math.isfinite(c):
        x0 = -c * draw(st.integers(0, n)) * draw(st.floats(0.5, 1.0))
    elif start == "tie" and math.isfinite(x0):
        c = math.copysign(draw(st.integers(0, 8)) + 0.5, draw(st.floats())) * math.ulp(x0)
    return x0, c, n


class TestRepeatAdd:
    """_repeat_add(x, c, n) against n plain adds, bit for bit."""

    @staticmethod
    def loop(x, c, n):
        for _ in range(n):
            x += c
        return x

    @settings(max_examples=500)
    @given(case=repeated_adds())
    @example(case=(-1000.25, 0.5, 3000))  # crosses zero
    @example(case=(1e6, -333.3, 10_000))  # crosses zero moving down through the binades
    # half-ulp ties: from an odd total the first add rounds to even, the rest step by 2 ulps
    @example(case=(1.0 + 2**-52, 3 * 2**-53, 3000))
    @example(case=(-(1.0 + 2**-52), -3 * 2**-53, 3000))
    @example(case=(1.0, 2**-53, 3000))  # a tie that rounds to the total: a fixed point
    @example(case=(0.0, 5e-324, 3000))  # subnormals
    @example(case=(2.2250738585072014e-308, -3 * 5e-324, 3000))
    @example(case=(-0.0, -0.0, 5))  # signed zeros
    @example(case=(-0.0, 0.0, 5))
    @example(case=(0.0, -0.0, 5))
    @example(case=(1.5, 0.0, 3000))  # c = 0
    @example(case=(1.7e308, 1e306, 3000))  # overflow to inf
    @example(case=(-1.7e308, -1e306, 3000))
    @example(case=(math.inf, -math.inf, 10))
    @example(case=(math.nan, 1.0, 10))  # nan
    @example(case=(1.0, math.nan, 10))
    def test_matches_the_loop(self, case):
        x0, c, n = case
        assert _bits(_repeat_add(x0, c, n)) == _bits(self.loop(x0, c, n))

    def test_cost_does_not_grow_with_n(self):
        # four plain adds and a jump per binade crossed: 10**20 adds of 1.0
        # from 0.0 stop at 2**53, where 1.0 rounds away
        assert _repeat_add(0.0, 1.0, 10**20) == 2.0**53
        assert _repeat_add(0.0, -22712.24, 10**6) == self.loop(0.0, -22712.24, 10**6)


class TestStretches:
    @settings(max_examples=200)
    @given(cfg=sim_configs().map(lambda cfg: replace(cfg, stochastic=False)))
    # P_harm is 0 from B = 10 on: the run picks B = 10 at rate 0.0 and files nothing
    @example(cfg=small_config(harm_probability_fn=lambda B: 0.1 if B < 10 else 0.0,
                              C_a_policy=30.0, ticks=40))
    # ... or B = 0 at both rates, once L_harm is low enough
    @example(cfg=small_config(harm_probability_fn=lambda B: 0.1 if B < 10 else 0.0,
                              L_harm=60.0, C_a_policy=30.0, ticks=40))
    def test_deterministic_run_is_at_most_two_stretches(self, cfg):
        # the lagged rate is fixed from tick 2 on, so a cell's totals are at
        # most two repeated adds; a stretch is one float and its tick count
        plan = _RunPlan(cfg, cfg.C_a_policy)
        stretches = list(_stretches(plan, None, 0.0, cfg.ticks))
        assert len(stretches) <= 2
        assert sum(ticks for _, _, ticks in stretches) == cfg.ticks
        assert all(type(injuries) is float for _, injuries, _ in stretches)
        assert [ticks for _, _, ticks in stretches][:-1] in ([], [1])


class TestWholeCounts:
    """The count columns simulate prints as ints, and where they stay floats."""

    @staticmethod
    def kinds(cfg):
        whole, floats = _run_columns(cfg, whole_counts=True), _run_columns(cfg)
        # equal values, of one type per column; the tick column is ints either way
        assert [list(c) for c in whole] == [list(c) for c in floats]
        assert all(type(v) is float for c in floats[1:] for v in c)
        kinds = [{type(v).__name__ for v in c} for c in whole[1:]]
        assert all(len(k) == 1 for k in kinds)
        return [k.pop() for k in kinds]

    @pytest.mark.parametrize("C_a", [10.0, 55.0])
    def test_stochastic_counts_are_ints(self, C_a):
        cfg = replace(default_config(), stochastic=True, C_a_policy=C_a)
        assert self.kinds(cfg) == ["int"] * 5 + ["float"]

    def test_deterministic_counts_stay_floats(self):
        assert self.kinds(default_config()) == ["float"] * 6

    @pytest.mark.parametrize("C_a", [10.0, 55.0])
    def test_draws_past_2_to_the_53_stay_floats(self, C_a):
        cfg = replace(default_config(), stochastic=True, C_a_policy=C_a, n_injurers=2**63 - 1,
                      ticks=5)
        assert self.kinds(cfg) == ["float"] * 6

    def test_aggregate_trials_past_2_to_the_53_stays_floats(self):
        cfg = replace(default_config(), stochastic=True, n_injurers=5 * 10**14, ticks=300)
        totals = [s.aggregate_trials for s in run_simulation(cfg)]
        assert totals[-4] < 2**53 <= totals[-3]  # crossed at tick 298
        assert self.kinds(cfg) == ["int"] * 4 + ["float"] * 2
