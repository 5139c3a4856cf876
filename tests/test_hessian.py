import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexopt import (
    DET_NOISE_RTOL,
    BorderedHessian,
    CobbDouglasProblem,
    DomainError,
    HessianVariant,
    InvalidParameterError,
    SecondOrderClass,
    build_bordered_hessian,
    classify_from_determinant,
    classify_second_order,
    hessian_determinant,
    scale_border,
    solve_closed_form,
)
from lexopt.hessian import _determinant, _second_order

SQRT_PROB = CobbDouglasProblem(0.5, 0.5, 1, 1, 2)


def random_problem(rng, lo=0.1, hi=3.0) -> CobbDouglasProblem:
    return CobbDouglasProblem(
        alpha=rng.uniform(lo, hi),
        beta=rng.uniform(lo, hi),
        p1=rng.uniform(0.1, 10.0),
        p2=rng.uniform(0.1, 10.0),
        P_C=rng.uniform(0.1, 100.0),
    )


class TestBuildBorderedHessian:
    def test_sqrt_case_entries_shadow(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        expected = np.array(
            [
                [0.0, -0.5, -0.5],
                [-0.5, -0.5, 0.0],
                [-0.5, 0.0, -0.5],
            ]
        )
        np.testing.assert_array_equal(h.entries, expected)

    def test_sqrt_case_entries_direct(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.DIRECT_FORM)
        expected = np.array(
            [
                [0.0, -0.5, -0.5],
                [-0.5, -0.25, 0.0],
                [-0.5, 0.0, -0.25],
            ]
        )
        np.testing.assert_array_equal(h.entries, expected)

    def test_cross_term_fills_off_diagonal(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(
            SQRT_PROB, sol, HessianVariant.DIRECT_FORM, include_cross_terms=True
        )
        assert h.entries[1, 2] == 0.25
        assert h.entries[2, 1] == 0.25
        assert h.include_cross_terms

    def test_entries_are_read_only(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        with pytest.raises(ValueError):
            h.entries[1, 1] = 99.0

    def test_boundary_point_rejected(self):
        from lexopt import OptimumSolution

        sol = OptimumSolution(0.0, 1.0, 0.5, 0.0, True, 0.0)
        with pytest.raises(InvalidParameterError, match="L_C_star"):
            build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)


class TestBorderedHessianValidation:
    def test_wrong_shape(self):
        with pytest.raises(InvalidParameterError, match="3x3"):
            BorderedHessian(np.zeros((2, 2)), HessianVariant.SHADOW_FORM)

    def test_nonzero_corner(self):
        m = np.full((3, 3), 1.0)
        with pytest.raises(InvalidParameterError, match=r"\[0, 0\]"):
            BorderedHessian(m, HessianVariant.SHADOW_FORM)

    def test_asymmetric(self):
        m = np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])
        with pytest.raises(InvalidParameterError, match="symmetric"):
            BorderedHessian(m, HessianVariant.SHADOW_FORM)


class TestHessianDeterminant:
    def test_sqrt_case_frozen_values(self):
        sol = solve_closed_form(SQRT_PROB)
        det_shadow = hessian_determinant(
            build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        )
        det_direct = hessian_determinant(
            build_bordered_hessian(SQRT_PROB, sol, HessianVariant.DIRECT_FORM)
        )
        assert det_shadow == 0.25
        assert det_direct == 0.125

    def test_integer_exponent_frozen_values(self):
        prob = CobbDouglasProblem(2, 1, 1, 1, 6)
        sol = solve_closed_form(prob)
        det_shadow = hessian_determinant(
            build_bordered_hessian(prob, sol, HessianVariant.SHADOW_FORM)
        )
        det_direct = hessian_determinant(
            build_bordered_hessian(prob, sol, HessianVariant.DIRECT_FORM)
        )
        assert det_shadow == 3072.0
        assert det_direct == -1024.0

    def test_square_exponent_frozen_values(self):
        prob = CobbDouglasProblem(2, 2, 1, 1, 4)
        sol = solve_closed_form(prob)
        det_shadow = hessian_determinant(
            build_bordered_hessian(prob, sol, HessianVariant.SHADOW_FORM)
        )
        det_direct = hessian_determinant(
            build_bordered_hessian(prob, sol, HessianVariant.DIRECT_FORM)
        )
        assert det_shadow == 4096.0
        assert det_direct == -4096.0

    def test_expansion_matches_generic_determinant(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            for variant in HessianVariant:
                for cross in (False, True):
                    h = build_bordered_hessian(prob, sol, variant, cross)
                    det = hessian_determinant(h)
                    ref = float(np.linalg.det(h.entries))
                    scale = max(abs(det), abs(ref), 1e-300)
                    assert abs(det - ref) / scale <= 1e-12

    def test_shadow_diagonal_reproduces_corrected_direct(self):
        # The shadow diagonal with zero cross terms carries the same
        # determinant as the direct diagonal with the true mixed partial.
        rng = np.random.default_rng(32)
        for _ in range(200):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            d_shadow = hessian_determinant(
                build_bordered_hessian(prob, sol, HessianVariant.SHADOW_FORM)
            )
            d_true = hessian_determinant(
                build_bordered_hessian(
                    prob, sol, HessianVariant.DIRECT_FORM, include_cross_terms=True
                )
            )
            assert d_shadow == pytest.approx(d_true, rel=1e-12)


class TestScaleBorder:
    def test_determinant_scales_quadratically(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        base = hessian_determinant(h)
        for k in (0.5, 2.0, 7.25):
            assert hessian_determinant(scale_border(h, k)) == pytest.approx(
                k * k * base, rel=1e-12
            )

    def test_classification_never_flips(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            prob = random_problem(rng)
            sol = solve_closed_form(prob)
            for variant in HessianVariant:
                h = build_bordered_hessian(prob, sol, variant)
                det = hessian_determinant(h)
                base = classify_from_determinant(det, float(np.max(np.abs(h.entries))))
                for k in (1e-3, 0.5, 2.0, 1e3):
                    hs = scale_border(h, k)
                    dets = hessian_determinant(hs)
                    cls = classify_from_determinant(dets, float(np.max(np.abs(hs.entries))))
                    assert cls is base

    def test_nonpositive_factor_rejected(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        for k in (0.0, -2.0):
            with pytest.raises(InvalidParameterError, match="k"):
                scale_border(h, k)


class TestClassification:
    def test_zero_determinant_is_indeterminate(self):
        assert classify_from_determinant(0.0, 0.0) is SecondOrderClass.INDETERMINATE
        assert classify_from_determinant(0.0, 100.0) is SecondOrderClass.INDETERMINATE

    def test_noise_floor_scales_cubically(self):
        scale = 10.0
        floor = DET_NOISE_RTOL * scale**3
        assert classify_from_determinant(floor, scale) is SecondOrderClass.INDETERMINATE
        assert classify_from_determinant(floor * 2, scale) is SecondOrderClass.LOCAL_MAX
        assert classify_from_determinant(-floor * 2, scale) is SecondOrderClass.LOCAL_MIN

    def test_fractional_exponents_agree_on_local_max(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            prob = random_problem(rng, lo=0.05, hi=0.95)
            report = classify_second_order(prob, solve_closed_form(prob))
            assert report[HessianVariant.SHADOW_FORM] is SecondOrderClass.LOCAL_MAX
            assert report[HessianVariant.DIRECT_FORM] is SecondOrderClass.LOCAL_MAX

    def test_variants_disagree_above_unit_exponents(self):
        prob = CobbDouglasProblem(2, 2, 1, 1, 4)
        report = classify_second_order(prob, solve_closed_form(prob))
        assert report[HessianVariant.SHADOW_FORM] is SecondOrderClass.LOCAL_MAX
        assert report[HessianVariant.DIRECT_FORM] is SecondOrderClass.LOCAL_MIN

    def test_cross_terms_restore_agreement(self):
        prob = CobbDouglasProblem(2, 2, 1, 1, 4)
        report = classify_second_order(prob, solve_closed_form(prob), include_cross_terms=True)
        assert report[HessianVariant.SHADOW_FORM] is SecondOrderClass.LOCAL_MAX
        assert report[HessianVariant.DIRECT_FORM] is SecondOrderClass.LOCAL_MAX


class TestFloatRange:
    def test_underflowing_square_is_a_domain_error(self):
        # L_C* = 6e-300, so L_C**2 underflows to 0 in the ShadowForm diagonal
        prob = CobbDouglasProblem(1e-300, 1.0, 1.0, 1.0, 6.0)
        sol = solve_closed_form(prob)
        message = ("ShadowForm bordered Hessian leaves the float range at "
                   "L_C*=6e-300, R_B*=6.0: float division by zero")
        with pytest.raises(DomainError) as info:
            classify_second_order(prob, sol)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            build_bordered_hessian(prob, sol, HessianVariant.SHADOW_FORM)
        assert str(info.value) == message

    def test_overflowing_power_is_a_domain_error(self):
        # L_C**(alpha - 2) ~ (6e-300)**-2 overflows in the DirectForm diagonal
        prob = CobbDouglasProblem(1e-300, 1.0, 1.0, 1.0, 6.0)
        sol = solve_closed_form(prob)
        with pytest.raises(DomainError) as info:
            build_bordered_hessian(prob, sol, HessianVariant.DIRECT_FORM)
        assert str(info.value) == ("DirectForm bordered Hessian leaves the float range at "
                                   "L_C*=6e-300, R_B*=6.0: a power overflows")

    def test_overflowing_noise_floor_is_a_domain_error(self):
        # entries ~1e160: the determinant is finite but scale**3 is not
        prob = CobbDouglasProblem(1.7e-161, 1.0, 1.0, 1.0, 6.0)
        with pytest.raises(DomainError, match="noise floor"):
            classify_second_order(prob, solve_closed_form(prob))


class TestNonFiniteEntries:
    """A NaN entry makes the determinant NaN, so the scale never decides the class."""

    @pytest.mark.parametrize("position", range(5))
    def test_any_nan_entry_gives_nan_determinant_and_local_min(self, position):
        entries = [-0.5, -0.5, -0.5, 0.25, -0.25]
        entries[position] = math.nan
        det = _determinant(*entries)
        assert math.isnan(det)
        for scale in (0.0, 1.0, math.inf, math.nan):
            assert classify_from_determinant(det, scale) is SecondOrderClass.LOCAL_MIN

    @pytest.mark.parametrize("variant", list(HessianVariant))
    def test_nan_multiplier_classifies_as_local_min(self, variant):
        # a NaN lambda makes both border entries NaN; the kernel's scale skips
        # them, and the NaN determinant decides the class
        _, det, cls = _second_order(0.5, 0.5, 1.0, 1.0, 2.0, 1.0, 1.0, math.nan, variant, True)
        assert math.isnan(det)
        assert cls is SecondOrderClass.LOCAL_MIN

    @pytest.mark.parametrize("position", [2, 3, 4])
    def test_infinite_block_entry_gives_nan_determinant(self, position):
        # the corner term 0 * (h11 * h22 - h12**2) is 0 * inf = NaN, as in the
        # full expansion on the matrix, where the rest alone would give +-inf
        entries = [-0.5, -0.5, -0.5, 0.25, -0.25]
        entries[position] = math.inf
        assert math.isnan(_determinant(*entries))


def _seed_cofactor(m: np.ndarray) -> float:
    """The full first-row expansion on the numpy matrix, as the seed code computed it."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


problems = st.builds(
    CobbDouglasProblem,
    alpha=st.floats(0.05, 5.0),
    beta=st.floats(0.05, 5.0),
    p1=st.floats(0.1, 10.0),
    p2=st.floats(0.1, 10.0),
    P_C=st.floats(0.1, 100.0),
)


class TestFloatKernel:
    """The plain-float kernel against the numpy matrix and a generic determinant."""

    @settings(max_examples=300)
    @given(prob=problems, variant=st.sampled_from(HessianVariant), cross=st.booleans())
    def test_matches_numpy_path(self, prob, variant, cross):
        sol = solve_closed_form(prob)
        entries, det, cls = _second_order(
            prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C,
            sol.L_C_star, sol.R_B_star, sol.lam, variant, cross,
        )
        h = build_bordered_hessian(prob, sol, variant, cross)
        m = h.entries
        b1, b2, h11, h12, h22 = entries
        layout = [0.0, b1, b2, b1, h11, h12, b2, h12, h22]
        assert [v.hex() for v in layout] == [float(v).hex() for v in m.ravel()]

        # bit for bit: the public wrapper and the seed expansion on numpy scalars
        assert det.hex() == hessian_determinant(h).hex()
        assert det.hex() == float(_seed_cofactor(m)).hex()
        assert cls is classify_from_determinant(det, float(np.max(np.abs(m))))
        assert cls is classify_second_order(prob, sol, cross)[variant]

        # a generic determinant routine agrees within 1e-9 relative.  Where the
        # expansion cancels (the DirectForm without cross terms vanishes on
        # 2*alpha*beta = alpha + beta) both routines return rounding noise of
        # order eps * scale**3, so that much absolute slack is allowed too.
        ref = float(np.linalg.det(m))
        scale = float(np.max(np.abs(m)))
        assert abs(det - ref) <= 1e-9 * abs(ref) + 1e-12 * scale**3
