import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexopt import (
    MARGIN_SCALE_FRACTION,
    DomainError,
    InvalidParameterError,
    StrategyGame,
    apply_penalty,
    best_allowed,
    best_overall,
    compliance_dominant,
    default_margin,
    min_compliance_penalty,
)

GAME = StrategyGame(
    utilities={"comply": 10.0, "evade": 14.0, "partial": 12.0},
    allowed=frozenset({"comply", "partial"}),
)


def random_game(rng, n_strategies=6) -> StrategyGame:
    names = [f"s{i:02d}" for i in range(n_strategies)]
    utilities = {name: float(rng.uniform(-100, 100)) for name in names}
    n_allowed = int(rng.integers(1, n_strategies))
    allowed = frozenset(rng.choice(names, size=n_allowed, replace=False).tolist())
    return StrategyGame(utilities=utilities, allowed=allowed)


class TestStrategyGameValidation:
    def test_empty_utilities(self):
        with pytest.raises(InvalidParameterError, match="at least one"):
            StrategyGame(utilities={}, allowed=frozenset({"a"}))

    def test_empty_allowed(self):
        with pytest.raises(InvalidParameterError, match="allowed"):
            StrategyGame(utilities={"a": 1.0}, allowed=frozenset())

    def test_allowed_must_have_utilities(self):
        with pytest.raises(InvalidParameterError, match="ghost"):
            StrategyGame(utilities={"a": 1.0}, allowed=frozenset({"ghost"}))

    def test_nonfinite_utility(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            StrategyGame(utilities={"a": float("inf")}, allowed=frozenset({"a"}))

    @pytest.mark.parametrize("u", ["1", None])
    def test_non_numeric_utility_names_the_field(self, u):
        with pytest.raises(InvalidParameterError, match=r"utilities\['a'\] must be a number"):
            StrategyGame(utilities={"a": u, "b": 2}, allowed=frozenset({"a"}))

    @pytest.mark.parametrize("allowed", ["ab", b"ab", bytearray(b"ab")],
                             ids=["str", "bytes", "bytearray"])
    def test_text_allowed_is_a_type_error(self, allowed):
        # a string would be read as a set of its characters, here {"a", "b"}
        with pytest.raises(TypeError, match="allowed must be a set of strategy names"):
            StrategyGame(utilities={"ab": 1.0, "a": 5.0, "b": 0.0}, allowed=allowed)

    @pytest.mark.parametrize("utilities", ["ab", ["ab"], [("a", 1.0)], None],
                             ids=["str", "list-of-str", "list-of-pairs", "None"])
    def test_utilities_of_another_type_is_a_type_error(self, utilities):
        # dict() read "ab" as a bad pair and ["ab"] as {"a": "b"}
        with pytest.raises(TypeError, match="^utilities must be a mapping of strategy names"):
            StrategyGame(utilities=utilities, allowed=frozenset({"a"}))

    def test_disallowed_is_the_complement(self):
        assert GAME.disallowed == frozenset({"evade"})


class TestSelectors:
    def test_best_allowed(self):
        assert best_allowed(GAME) == ("partial", 12.0)

    def test_best_overall(self):
        assert best_overall(GAME) == ("evade", 14.0)

    def test_ties_resolve_lexicographically(self):
        g = StrategyGame(
            utilities={"b": 5.0, "a": 5.0, "c": 5.0},
            allowed=frozenset({"a", "b", "c"}),
        )
        assert best_allowed(g) == ("a", 5.0)
        assert best_overall(g) == ("a", 5.0)

    @settings(max_examples=300)
    @given(
        utilities=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d", "e", "B", "a1"]),
            st.one_of(st.sampled_from([-1.0, 0.0, 3.0]),
                      st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1,
        ),
        data=st.data(),
    )
    def test_matches_the_reference_loop(self, utilities, data):
        allowed = data.draw(st.sets(st.sampled_from(sorted(utilities)), min_size=1))
        g = StrategyGame(utilities=utilities, allowed=frozenset(allowed))
        assert best_allowed(g) == reference_argmax(g.utilities, g.allowed)
        assert best_overall(g) == reference_argmax(g.utilities, g.utilities.keys())


def reference_argmax(utilities, names):
    """The selectors' strict-> loop as it was before they called max."""
    best_name = None
    best_u = -math.inf
    for name in sorted(names):
        u = utilities[name]
        if u > best_u:
            best_name = name
            best_u = u
    return best_name, best_u


class TestDefaultMargin:
    def test_scales_with_utilities(self):
        g = StrategyGame(utilities={"a": -200.0, "b": 50.0}, allowed=frozenset({"a"}))
        assert default_margin(g) == MARGIN_SCALE_FRACTION * 200.0

    def test_floored_at_unit_scale(self):
        g = StrategyGame(utilities={"a": 0.25, "b": -0.5}, allowed=frozenset({"a"}))
        assert default_margin(g) == MARGIN_SCALE_FRACTION


class TestMinCompliancePenalty:
    def test_worked_example(self):
        assert min_compliance_penalty(GAME, margin=1.0) == 3.0

    def test_zero_when_already_dominant(self):
        g = StrategyGame(
            utilities={"comply": 20.0, "evade": 5.0}, allowed=frozenset({"comply"})
        )
        assert min_compliance_penalty(g, margin=1.0) == 0.0

    def test_counts_margin_even_on_exact_tie(self):
        g = StrategyGame(
            utilities={"comply": 5.0, "evade": 5.0}, allowed=frozenset({"comply"})
        )
        assert min_compliance_penalty(g, margin=0.5) == 0.5

    def test_all_allowed_is_an_error(self):
        g = StrategyGame(utilities={"a": 1.0, "b": 2.0}, allowed=frozenset({"a", "b"}))
        with pytest.raises(InvalidParameterError, match="no disallowed"):
            min_compliance_penalty(g)

    @pytest.mark.parametrize("margin", [0.0, -1.0, float("nan")])
    def test_bad_margin(self, margin):
        with pytest.raises(InvalidParameterError, match="margin"):
            min_compliance_penalty(GAME, margin=margin)

    def test_overflowing_penalty_is_a_domain_error(self):
        g = StrategyGame(utilities={"a": 1e308, "b": -1e308}, allowed=frozenset({"b"}))
        with pytest.raises(DomainError, match="overflowed"):
            min_compliance_penalty(g)

    def test_penalty_restores_dominance(self):
        # The subtraction u - tau can round by an ulp, so dominance is
        # asserted at a margin shaved below the requested one by far more
        # than rounding noise yet far less than the margin itself.
        rng = np.random.default_rng(51)
        for _ in range(300):
            g = random_game(rng)
            if not g.disallowed:
                continue
            margin = float(rng.uniform(1e-3, 5.0))
            tau = min_compliance_penalty(g, margin=margin)
            assert tau >= 0.0
            shave = 1e-9 * max(1.0, max(abs(u) for u in g.utilities.values()))
            assert compliance_dominant(apply_penalty(g, tau), margin - shave)

    def test_penalty_is_minimal(self):
        # Any shortfall in tau must break dominance whenever tau binds.
        rng = np.random.default_rng(52)
        checked = 0
        for _ in range(300):
            g = random_game(rng)
            if not g.disallowed:
                continue
            margin = float(rng.uniform(1e-3, 5.0))
            tau = min_compliance_penalty(g, margin=margin)
            if tau == 0.0:
                continue
            slack = margin / 2.0
            assert not compliance_dominant(apply_penalty(g, tau - slack), margin)
            checked += 1
        assert checked > 50


class TestApplyPenalty:
    def test_only_disallowed_strategies_pay(self):
        g = apply_penalty(GAME, 3.0)
        assert g.utilities == {"comply": 10.0, "evade": 11.0, "partial": 12.0}
        assert g.allowed == GAME.allowed

    def test_zero_penalty_is_identity(self):
        g = apply_penalty(GAME, 0.0)
        assert g.utilities == GAME.utilities

    def test_overflowing_penalized_utility_is_a_domain_error(self):
        g = StrategyGame(utilities={"a": 1e308, "b": 0.0, "c": -1e308},
                         allowed=frozenset({"b"}))
        with pytest.raises(DomainError, match="'c' overflowed"):
            apply_penalty(g, min_compliance_penalty(g))

    @pytest.mark.parametrize("tau", [float("inf"), float("nan")])
    def test_nonfinite_penalty_is_invalid(self, tau):
        with pytest.raises(InvalidParameterError, match="tau"):
            apply_penalty(GAME, tau)

    def test_post_penalty_argmax_is_allowed(self):
        rng = np.random.default_rng(53)
        for _ in range(300):
            g = random_game(rng)
            if not g.disallowed:
                continue
            tau = min_compliance_penalty(g, margin=1e-6)
            winner, _ = best_overall(apply_penalty(g, tau))
            assert winner in g.allowed


class TestComplianceDominant:
    def test_true_with_no_disallowed(self):
        g = StrategyGame(utilities={"a": 1.0}, allowed=frozenset({"a"}))
        assert compliance_dominant(g, margin=100.0)

    def test_margin_is_part_of_the_test(self):
        g = StrategyGame(
            utilities={"comply": 10.0, "evade": 9.5}, allowed=frozenset({"comply"})
        )
        assert compliance_dominant(g, margin=0.5)
        assert not compliance_dominant(g, margin=0.6)

    @pytest.mark.parametrize("margin", [float("nan"), -math.inf, math.inf])
    def test_non_finite_margin_is_invalid(self, margin):
        with pytest.raises(InvalidParameterError) as exc:
            compliance_dominant(GAME, margin)
        assert str(exc.value) == f"margin must be finite, got {margin!r}"

    @pytest.mark.parametrize("margin, dominant", [(0.0, False), (-2.0, True), (-1.9, False)])
    def test_zero_and_negative_margins_are_kept(self, margin, dominant):
        assert compliance_dominant(GAME, margin) is dominant
