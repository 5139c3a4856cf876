import dataclasses
import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexopt import (
    AdmissibleAlpha,
    AlphaSearchConfig,
    AlphaSearchResult,
    DomainError,
    HessianVariant,
    InvalidParameterError,
    Objective,
    OptimumSolution,
    SecondOrderClass,
    build_bordered_hessian,
    classify_from_determinant,
    final_utility,
    hessian_determinant,
    search_alpha,
    solve_closed_form,
)
from lexopt.alpha_search import _select_best
from lexopt.cobb_douglas import CobbDouglasProblem

BASE_GRID = (0.25, 0.5, 0.75)


def base_config(**overrides) -> AlphaSearchConfig:
    kw = dict(alpha_grid=BASE_GRID, beta=0.5, p1=1.0, p2=1.0, P_C=2.0)
    kw.update(overrides)
    return AlphaSearchConfig(**kw)


class TestConfigValidation:
    def test_empty_grid(self):
        with pytest.raises(InvalidParameterError, match="nonempty"):
            base_config(alpha_grid=())

    def test_grid_must_strictly_increase(self):
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            base_config(alpha_grid=(0.5, 0.5))
        with pytest.raises(InvalidParameterError, match="strictly increasing"):
            base_config(alpha_grid=(0.5, 0.25))

    def test_grid_entries_must_be_positive(self):
        with pytest.raises(InvalidParameterError, match=r"alpha_grid\[0\]"):
            base_config(alpha_grid=(0.0, 0.5))

    @pytest.mark.parametrize("grid,message", [
        ((), "alpha_grid must be nonempty"),
        ((0.5, -1), "alpha_grid[1] must be > 0, got -1.0"),
        ((math.inf,), "alpha_grid[0] must be finite, got inf"),
        ((0.5, 0.25), "alpha_grid must be strictly increasing"),
    ])
    def test_grid_messages(self, grid, message):
        with pytest.raises(InvalidParameterError) as info:
            base_config(alpha_grid=grid)
        assert str(info.value) == message

    def test_grid_is_stored_as_a_tuple_of_floats(self):
        cfg = base_config(alpha_grid=[1, 2.5])
        assert cfg.alpha_grid == (1.0, 2.5)
        assert all(type(a) is float for a in cfg.alpha_grid)

    @pytest.mark.parametrize("field", ["beta", "p1", "p2", "P_C"])
    def test_scalar_fields_must_be_positive(self, field):
        with pytest.raises(InvalidParameterError, match=field):
            base_config(**{field: 0.0})

    def test_defaults(self):
        cfg = base_config()
        assert cfg.objective is Objective.MAX_UTILITY
        assert cfg.hessian_variant is HessianVariant.SHADOW_FORM
        assert not cfg.include_cross_terms


class TestSearchAlpha:
    def test_max_utility_picks_smallest_exponent_here(self):
        r = search_alpha(base_config())
        assert [e.alpha for e in r.admissible] == [0.25, 0.5, 0.75]
        assert r.alpha_star == 0.25
        assert r.L_C_opt == 0.6666666666666666
        assert r.U_star_final == pytest.approx(1.043389720048858, rel=1e-12)

    def test_max_lambda_picks_largest_exponent_here(self):
        r = search_alpha(base_config(objective=Objective.MAX_LAMBDA))
        assert r.alpha_star == 0.75
        assert r.L_C_opt == 1.2
        assert r.U_star_final == pytest.approx(1.0254888153509616, rel=1e-12)

    def test_objective_really_is_maximized(self):
        for objective in Objective:
            r = search_alpha(base_config(objective=objective))
            values = [
                e.solution.U_star if objective is Objective.MAX_UTILITY else e.solution.lam
                for e in r.admissible
            ]
            winner = next(e for e in r.admissible if e.alpha == r.alpha_star)
            winner_value = (
                winner.solution.U_star
                if objective is Objective.MAX_UTILITY
                else winner.solution.lam
            )
            assert winner_value == max(values)

    def test_singleton_grid(self):
        r = search_alpha(base_config(alpha_grid=(0.5,)))
        assert r.alpha_star == 0.5
        assert r.L_C_opt == 1.0
        assert r.U_star_final == 1.0

    def test_admissible_reported_in_grid_order(self):
        grid = tuple(np.linspace(0.1, 0.9, 9))
        r = search_alpha(base_config(alpha_grid=grid))
        alphas = [e.alpha for e in r.admissible]
        assert alphas == sorted(alphas)
        assert len(alphas) == 9

    def test_u_final_matches_identity_at_winner(self):
        r = search_alpha(base_config())
        winner = next(e for e in r.admissible if e.alpha == r.alpha_star)
        sol = winner.solution
        expected = (sol.lam / (r.alpha_star + 0.5)) * (sol.L_C_star + sol.R_B_star)
        assert r.U_star_final == expected

    @pytest.mark.parametrize("beta,P_C", [(2.0, 4.0), (1.0, 6.0)])
    def test_direct_form_rejects_super_unit_exponents(self, beta, P_C):
        cfg = base_config(
            alpha_grid=(2.0,), beta=beta, P_C=P_C,
            hessian_variant=HessianVariant.DIRECT_FORM,
        )
        r = search_alpha(cfg)
        assert r.admissible == ()
        assert r.alpha_star is None
        assert r.L_C_opt is None
        assert r.U_star_final is None

    def test_cross_terms_rescue_the_same_grid(self):
        cfg = base_config(
            alpha_grid=(2.0,), beta=2.0, P_C=4.0,
            hessian_variant=HessianVariant.DIRECT_FORM, include_cross_terms=True,
        )
        r = search_alpha(cfg)
        assert r.alpha_star == 2.0

    def test_det_H_comes_from_selected_variant(self):
        r = search_alpha(base_config(alpha_grid=(0.5,)))
        assert r.admissible[0].det_H == 0.25
        r = search_alpha(
            base_config(alpha_grid=(0.5,), hessian_variant=HessianVariant.DIRECT_FORM)
        )
        assert r.admissible[0].det_H == 0.125


class TestFinalUtility:
    def test_identity_with_round_numbers(self):
        sol = solve_closed_form(CobbDouglasProblem(2, 1, 1, 1, 6))
        assert final_utility(sol, 2.0, 1.0, phi_sum=4.0, R_B=2.0) == 32.0

    def test_nonpositive_multiplier_is_a_domain_error(self):
        sol = OptimumSolution(1.0, 1.0, 0.0, 1.0, False, 0.0)
        with pytest.raises(DomainError, match="lambda"):
            final_utility(sol, 0.5, 0.5, phi_sum=1.0, R_B=1.0)


class TestSelectBest:
    @staticmethod
    def entry(alpha: float, value: float) -> AdmissibleAlpha:
        sol = OptimumSolution(1.0, 1.0, value, value, True, 0.0)
        return AdmissibleAlpha(alpha=alpha, solution=sol, det_H=1.0)

    def test_empty_gives_none(self):
        assert _select_best((), lambda e: e.solution.U_star) is None

    def test_tie_goes_to_the_earliest_entry(self):
        entries = (self.entry(0.2, 5.0), self.entry(0.4, 5.0), self.entry(0.6, 3.0))
        best = _select_best(entries, lambda e: e.solution.U_star)
        assert best is not None and best.alpha == 0.2

    def test_strictly_better_later_entry_wins(self):
        entries = (self.entry(0.2, 5.0), self.entry(0.4, 6.0))
        best = _select_best(entries, lambda e: e.solution.U_star)
        assert best is not None and best.alpha == 0.4

    @settings(max_examples=300)
    @given(values=st.lists(st.one_of(st.sampled_from([-1.0, 0.0, 2.5, 7.0]),
                                     st.floats(allow_nan=False, allow_infinity=False)),
                           max_size=8))
    def test_matches_the_reference_loop(self, values):
        entries = tuple(self.entry(0.1 * (i + 1), v) for i, v in enumerate(values))
        key = attrgetter("solution.U_star")
        assert _select_best(entries, key) is reference_select_best(entries, key)


def reference_select_best(entries, key):
    """_select_best as the strict-> loop it was before it called max."""
    best = None
    best_value = -math.inf
    for entry in entries:
        value = key(entry)
        if value > best_value:
            best = entry
            best_value = value
    return best


def reference_search(cfg: AlphaSearchConfig) -> AlphaSearchResult:
    """search_alpha written out on the public numpy path, one problem per candidate."""
    admissible = []
    for alpha in cfg.alpha_grid:
        prob = CobbDouglasProblem(alpha=alpha, beta=cfg.beta, p1=cfg.p1, p2=cfg.p2, P_C=cfg.P_C)
        sol = solve_closed_form(prob)
        h = build_bordered_hessian(prob, sol, cfg.hessian_variant, cfg.include_cross_terms)
        det = hessian_determinant(h)
        cls = classify_from_determinant(det, float(np.max(np.abs(h.entries))))
        is_max = cls is SecondOrderClass.LOCAL_MAX
        if sol.lam > 0.0 and sol.lam / (alpha + cfg.beta) > 0.0 and is_max:
            admissible.append(AdmissibleAlpha(alpha=alpha, solution=sol, det_H=det))
    if not admissible:
        return AlphaSearchResult(tuple(admissible), None, None, None)
    key = (lambda e: e.solution.U_star) if cfg.objective is Objective.MAX_UTILITY else (
        lambda e: e.solution.lam)
    best_value = max(key(e) for e in admissible)
    best = next(e for e in admissible if key(e) == best_value)
    sol = best.solution
    u_final = (sol.lam / (best.alpha + cfg.beta)) * (sol.L_C_star + sol.R_B_star)
    return AlphaSearchResult(tuple(admissible), best.alpha, sol.L_C_star, u_final)


def _hex_fields(x):
    """Every field of a search result, floats as float.hex so the last bit counts."""
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return [_hex_fields(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, tuple):
        return [_hex_fields(v) for v in x]
    return x


class TestAgainstReferenceLoop:
    @settings(max_examples=150)
    @given(
        grid=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=40, unique=True).map(sorted),
        beta=st.floats(0.05, 5.0),
        p1=st.floats(0.1, 10.0),
        p2=st.floats(0.1, 10.0),
        P_C=st.floats(0.1, 100.0),
        objective=st.sampled_from(Objective),
        variant=st.sampled_from(HessianVariant),
        cross=st.booleans(),
    )
    def test_field_by_field(self, grid, beta, p1, p2, P_C, objective, variant, cross):
        cfg = AlphaSearchConfig(
            alpha_grid=tuple(grid), beta=beta, p1=p1, p2=p2, P_C=P_C,
            objective=objective, hessian_variant=variant, include_cross_terms=cross,
        )
        assert _hex_fields(search_alpha(cfg)) == _hex_fields(reference_search(cfg))

    @pytest.mark.parametrize("variant", list(HessianVariant))
    @pytest.mark.parametrize("cross", [False, True])
    def test_dense_grid(self, variant, cross):
        grid = tuple(0.05 + i * (4.95 / 999) for i in range(1000))
        cfg = AlphaSearchConfig(
            alpha_grid=grid, beta=0.7, p1=1.3, p2=0.8, P_C=9.0,
            hessian_variant=variant, include_cross_terms=cross,
        )
        result = search_alpha(cfg)
        assert result.admissible
        assert _hex_fields(result) == _hex_fields(reference_search(cfg))
