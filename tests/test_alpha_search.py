import dataclasses
import math
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    classify_second_order,
    final_utility,
    hessian_determinant,
    search_alpha,
    solve_closed_form,
)
from lexopt.alpha_search import _select_best
from lexopt.cobb_douglas import CobbDouglasProblem
from lexopt.hessian import DET_NOISE_RTOL

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
        (("a",), "alpha_grid[0] must be a number, got 'a'"),
        ((0.5, 1.0, math.nan), "alpha_grid[2] must be finite, got nan"),
        ((a for a in (0.5, -1)), "alpha_grid[1] must be > 0, got -1.0"),
    ])
    def test_grid_messages(self, grid, message):
        with pytest.raises(InvalidParameterError) as info:
            base_config(alpha_grid=grid)
        assert str(info.value) == message

    def test_grid_is_stored_as_a_tuple_of_floats(self):
        cfg = base_config(alpha_grid=[1, 2.5])
        assert cfg.alpha_grid == (1.0, 2.5)
        assert all(type(a) is float for a in cfg.alpha_grid)
        assert base_config(alpha_grid=(a for a in [1, 2.5])).alpha_grid == (1.0, 2.5)

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

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_nonpositive_multiplier_is_a_domain_error(self, lam):
        sol = OptimumSolution(1.0, 1.0, lam, 1.0, False, 0.0)
        with pytest.raises(DomainError) as info:
            final_utility(sol, 0.5, 0.5, phi_sum=1.0, R_B=1.0)
        assert str(info.value) == f"final utility needs lambda > 0, got {lam!r}"

    @pytest.mark.parametrize(
        "field, value",
        [(field, value) for field in ("alpha_star", "beta", "phi_sum", "R_B")
         for value in (math.nan, math.inf, -math.inf)]
        # alpha* = -1.5 once gave -192.0, and alpha* = -1.0 divided by zero
        + [(field, value) for field in ("alpha_star", "beta") for value in (-1.5, -1.0, 0.0)],
    )
    def test_bad_inputs_are_refused(self, field, value):
        sol = solve_closed_form(CobbDouglasProblem(2, 1, 1, 1, 6))
        kw = {"alpha_star": 2.0, "beta": 1.0, "phi_sum": 4.0, "R_B": 2.0, field: value}
        with pytest.raises(InvalidParameterError) as info:
            final_utility(sol, **kw)
        rule = "must be finite" if not math.isfinite(value) else "must be > 0"
        assert str(info.value) == f"{field} {rule}, got {value!r}"

    def test_overflowing_product_is_a_domain_error(self):
        sol = solve_closed_form(CobbDouglasProblem(2, 1, 1, 1, 6))
        with pytest.raises(DomainError) as info:
            final_utility(sol, 2.0, 1.0, phi_sum=1e308, R_B=1e308)  # the sum overflows
        assert str(info.value) == (
            "final utility overflows at lambda=16.0, alpha*=2.0, beta=1.0, "
            "phi_sum=1e+308, R_B=1e+308")

    def test_search_refuses_an_overflowing_final_utility(self):
        # lambda = R_B* = 1e300 is finite, but lambda / (alpha* + beta) * (L_C* + R_B*) is not
        cfg = base_config(alpha_grid=(1e-300,), beta=1.0, p1=1e-300, p2=1e-300, P_C=1.0,
                          hessian_variant=HessianVariant.DIRECT_FORM)
        with pytest.raises(DomainError, match="^final utility overflows at lambda=9.99"):
            search_alpha(cfg)


class TestFloatRangeParity:
    """A candidate that leaves the float range fails the search as it fails the check.

    Each grid holds two failing candidates; the search must raise the error
    that ``classify_second_order`` raises for the first of them.  L_C* grows
    with alpha, so when the L_C* side fails (the alphas of the hessian
    tests) every smaller alpha fails too and the failing candidate comes
    first.  The mirrored problems put the tiny exponent on beta: R_B* falls
    as alpha grows, so a candidate that passes comes before the failing ones.
    """

    SHADOW, DIRECT = HessianVariant.SHADOW_FORM, HessianVariant.DIRECT_FORM

    @pytest.mark.parametrize("variant,beta,p1,p2,P_C,grid,bad", [
        # L_C**2 (R_B**2 mirrored) underflows to 0 in the ShadowForm diagonal
        (SHADOW, 1.0, 1.0, 1.0, 6.0, (1e-300, 1e-299, 1.0), 0),
        (SHADOW, 1e-300, 1.0, 1.0, 6.0, (1e-300, 1.0, 6.0), 1),
        # L_C**(alpha - 2) (R_B**(beta - 2) mirrored) overflows in the DirectForm
        # diagonal, while the ShadowForm check that classify runs first passes
        (DIRECT, 1.0, 1e-100, 1.0, 1.0, (1e-258, 1e-257, 1.0), 0),
        (DIRECT, 1e-258, 1.0, 1e-100, 1.0, (1e-200, 1.0, 2.0), 1),
        # the ShadowForm entries are ~1e160, so the noise floor scale**3 overflows
        (SHADOW, 1.0, 1.0, 1.0, 6.0, (1.7e-161, 1e-160, 1.0), 0),
        (SHADOW, 1.7e-161, 1.0, 1.0, 6.0, (1e-161, 1.0, 2.0), 1),
    ])
    def test_first_failing_candidate_raises_its_classify_error(
        self, variant, beta, p1, p2, P_C, grid, bad
    ):
        def classify_error(alpha):
            prob = CobbDouglasProblem(alpha, beta, p1, p2, P_C)
            with pytest.raises(DomainError) as info:
                classify_second_order(prob, solve_closed_form(prob))
            return str(info.value)

        for alpha in grid[:bad]:
            prob = CobbDouglasProblem(alpha, beta, p1, p2, P_C)
            classify_second_order(prob, solve_closed_form(prob))  # passes
        want = classify_error(grid[bad])
        assert classify_error(grid[bad + 1]) != want
        cfg = AlphaSearchConfig(alpha_grid=grid, beta=beta, p1=p1, p2=p2, P_C=P_C,
                                hessian_variant=variant)
        with pytest.raises(DomainError) as info:
            search_alpha(cfg)
        assert str(info.value) == want


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


# ---------------------------------------------------------------------------
# the admissible region, from the model's closed forms


def closed_form_det(alpha, beta, p1, p2, P_C, variant, cross):
    """(det, noise floor, matrix scale) of the bordered Hessian at the optimum.

    From the model's formulas, not the kernel's: with s = alpha + beta the
    optimum is L = alpha * P_C / (s * p1), R = beta * P_C / (s * p2),
    U = L**alpha * R**beta and lambda = s * U / P_C, so the border entries
    -lambda * p1 and -lambda * p2 are -alpha * U / L and -beta * U / R, and
    the cross partial is alpha * beta * U / (L * R).  Expanding the
    determinant:

        ShadowForm  lambda**3 * p1**2 * p2**2 * s**2 / (alpha * beta * P_C)
                    + 2 * lambda**2 * p1 * p2 * h12
        DirectForm  U**3 * alpha * beta * (s - 2 * alpha * beta) / (L * R)**2,
                    with s alone in the parentheses when the cross term is in

    The noise floor is DET_NOISE_RTOL * (largest absolute entry)**3.
    """
    s = alpha + beta
    L, R = alpha * P_C / (s * p1), beta * P_C / (s * p2)
    U = L**alpha * R**beta
    lam = s * U / P_C
    h12 = alpha * beta * U / (L * R) if cross else 0.0
    if variant is HessianVariant.SHADOW_FORM:
        h11, h22 = -lam * p1**2 * s / (alpha * P_C), -lam * p2**2 * s / (beta * P_C)
        det = lam**3 * p1**2 * p2**2 * s**2 / (alpha * beta * P_C) + 2 * lam**2 * p1 * p2 * h12
    else:
        h11, h22 = alpha * (alpha - 1) * U / L**2, beta * (beta - 1) * U / R**2
        det = U**3 * alpha * beta * (s - (0.0 if cross else 2 * alpha * beta)) / (L * R) ** 2
    scale = max(lam * p1, lam * p2, abs(h11), abs(h12), abs(h22))
    return det, DET_NOISE_RTOL * scale**3, scale


def assert_admitted_as(model_class, alpha, beta, p1, p2, P_C, variant, cross):
    """The kernel's det is the closed form's, and its class is the model's.

    The one disagreement allowed is Indeterminate, and only in the band
    where the closed-form |det| is within 0.1% of the noise floor or below
    it; below 99.9% of the floor the class must be Indeterminate.  The alpha
    search admits the candidate iff the class is LocalMax (lambda > 0 here).
    """
    prob = CobbDouglasProblem(alpha=alpha, beta=beta, p1=p1, p2=p2, P_C=P_C)
    sol = solve_closed_form(prob)
    det_cf, floor, scale = closed_form_det(alpha, beta, p1, p2, P_C, variant, cross)
    det = hessian_determinant(build_bordered_hessian(prob, sol, variant, cross))
    assert abs(det - det_cf) <= 1e-12 * scale**3
    cls = classify_second_order(prob, sol, cross)[variant]
    if abs(det_cf) < floor * (1 - 1e-3):
        assert cls is SecondOrderClass.INDETERMINATE
    elif abs(det_cf) > floor * (1 + 1e-3):
        assert cls is model_class
    else:
        assert cls in (model_class, SecondOrderClass.INDETERMINATE)
    cfg = AlphaSearchConfig(alpha_grid=(alpha,), beta=beta, p1=p1, p2=p2, P_C=P_C,
                            hessian_variant=variant, include_cross_terms=cross)
    assert bool(search_alpha(cfg).admissible) == (cls is SecondOrderClass.LOCAL_MAX)


#: The input box of the admissible-region tests: wide enough that the
#: entries' scales differ by orders of magnitude, narrow enough that no
#: power leaves the float range.
ADMISSIBLE_BOX = dict(alpha=st.floats(0.05, 5.0), beta=st.floats(0.05, 5.0),
                      p1=st.floats(0.1, 10.0), p2=st.floats(0.1, 10.0), P_C=st.floats(0.1, 100.0))


class TestAdmissibleRegion:
    """Which alpha the second-order check certifies, as the closed forms say."""

    @settings(max_examples=300)
    @given(cross=st.booleans(), **ADMISSIBLE_BOX)
    @example(alpha=0.5, beta=0.5, p1=1.0, p2=1.0, P_C=2.0, cross=False)
    @example(alpha=2.0, beta=2.0, p1=1.0, p2=1.0, P_C=4.0, cross=True)
    # entries of very different scales: the determinant falls under the noise floor
    @example(alpha=0.05, beta=5.0, p1=10.0, p2=0.1, P_C=0.1, cross=False)
    @example(alpha=0.05, beta=5.0, p1=10.0, p2=0.1, P_C=0.1, cross=True)
    def test_shadow_form_certifies_every_alpha(self, alpha, beta, p1, p2, P_C, cross):
        det, _, _ = closed_form_det(alpha, beta, p1, p2, P_C, HessianVariant.SHADOW_FORM, cross)
        assert det > 0.0
        assert_admitted_as(SecondOrderClass.LOCAL_MAX, alpha, beta, p1, p2, P_C,
                           HessianVariant.SHADOW_FORM, cross)

    @settings(max_examples=300)
    @given(**ADMISSIBLE_BOX)
    @example(alpha=2.0, beta=2.0, p1=1.0, p2=1.0, P_C=4.0)
    @example(alpha=5.0, beta=0.05, p1=0.1, p2=10.0, P_C=0.1)  # under the noise floor
    def test_direct_form_with_cross_terms_certifies_every_alpha(self, alpha, beta, p1, p2, P_C):
        det, _, _ = closed_form_det(alpha, beta, p1, p2, P_C, HessianVariant.DIRECT_FORM, True)
        assert det > 0.0
        assert_admitted_as(SecondOrderClass.LOCAL_MAX, alpha, beta, p1, p2, P_C,
                           HessianVariant.DIRECT_FORM, True)

    @settings(max_examples=300)
    @given(**ADMISSIBLE_BOX)
    # on the boundary alpha = beta / (2 * beta - 1): the determinant is 0, or
    # a rounding of 0, far under the noise floor
    @example(alpha=1.0, beta=1.0, p1=1.0, p2=1.0, P_C=2.0)
    @example(alpha=2.0 / 3.0, beta=2.0, p1=1.3, p2=0.8, P_C=9.0)
    # either side of it, and beta <= 1/2, where every alpha passes
    @example(alpha=0.66, beta=2.0, p1=1.3, p2=0.8, P_C=9.0)
    @example(alpha=0.67, beta=2.0, p1=1.3, p2=0.8, P_C=9.0)
    @example(alpha=5.0, beta=0.5, p1=1.0, p2=1.0, P_C=2.0)
    def test_direct_form_without_cross_terms_certifies_alpha_below_the_boundary(
            self, alpha, beta, p1, p2, P_C):
        # det is proportional to alpha + beta - 2 * alpha * beta
        model = (SecondOrderClass.LOCAL_MAX if 1 / alpha + 1 / beta > 2
                 else SecondOrderClass.LOCAL_MIN)
        assert_admitted_as(model, alpha, beta, p1, p2, P_C, HessianVariant.DIRECT_FORM, False)
