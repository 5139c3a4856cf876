import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    solve_closed_form,
)
from lexopt.hessian import _determinant, _second_order

SHADOW = HessianVariant.SHADOW_FORM

SQRT_PROB = CobbDouglasProblem(0.5, 0.5, 1, 1, 2)


def scaled_border(h: BorderedHessian, k: float) -> BorderedHessian:
    """``h`` with its border row and column multiplied by k, the corner kept 0."""
    (_, b1, b2), (_, h11, h12), (_, _, h22) = h.entries
    entries = ((0.0, k * b1, k * b2), (k * b1, h11, h12), (k * b2, h12, h22))
    return h._replace(entries=entries)


def random_problem(rng, lo=0.1, hi=3.0) -> CobbDouglasProblem:
    return CobbDouglasProblem(
        alpha=rng.uniform(lo, hi),
        beta=rng.uniform(lo, hi),
        p1=rng.uniform(0.1, 10.0),
        p2=rng.uniform(0.1, 10.0),
        P_C=rng.uniform(0.1, 100.0),
    )


problems = st.builds(
    CobbDouglasProblem,
    alpha=st.floats(0.05, 5.0),
    beta=st.floats(0.05, 5.0),
    p1=st.floats(0.1, 10.0),
    p2=st.floats(0.1, 10.0),
    P_C=st.floats(0.1, 100.0),
)


class TestBuildBorderedHessian:
    def test_sqrt_case_entries_shadow(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        assert h.entries == ((0.0, -0.5, -0.5), (-0.5, -0.5, 0.0), (-0.5, 0.0, -0.5))

    def test_sqrt_case_entries_direct(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.DIRECT_FORM)
        assert h.entries == ((0.0, -0.5, -0.5), (-0.5, -0.25, 0.0), (-0.5, 0.0, -0.25))

    def test_cross_term_fills_off_diagonal(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(
            SQRT_PROB, sol, HessianVariant.DIRECT_FORM, include_cross_terms=True
        )
        assert h.entries[1][2] == 0.25
        assert h.entries[2][1] == 0.25
        assert h.include_cross_terms

    def test_entries_are_three_rows_of_three_floats(self):
        h = build_bordered_hessian(SQRT_PROB, solve_closed_form(SQRT_PROB), SHADOW, True)
        assert h == (h.entries, SHADOW, True) and type(h.entries) is tuple
        assert [type(row) for row in h.entries] == [tuple] * 3
        assert [type(v) for row in h.entries for v in row] == [float] * 9

    def test_variant_past_the_digit_limit_is_a_type_error_shown_by_size(self):
        limit = sys.get_int_max_str_digits()
        if limit == 0:
            pytest.skip("this interpreter has no integer digit limit")
        with pytest.raises(TypeError) as info:
            build_bordered_hessian(SQRT_PROB, solve_closed_form(SQRT_PROB), -10**5000)
        assert str(info.value) == (
            f"variant must be a HessianVariant, got an integer of more than {limit} digits")

    def test_boundary_point_rejected(self):
        from lexopt import OptimumSolution

        sol = OptimumSolution(0.0, 1.0, 0.5, 0.0, True, 0.0)
        with pytest.raises(InvalidParameterError, match="L_C_star"):
            build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)


def determinant_of(entries) -> float:
    """hessian_determinant of a caller-made matrix: where its entries are checked."""
    return hessian_determinant(BorderedHessian(entries, SHADOW))


class TestHessianDeterminantValidation:
    def test_wrong_shape(self):
        with pytest.raises(InvalidParameterError, match="3x3"):
            determinant_of(np.zeros((2, 2)))

    def test_nonzero_corner(self):
        m = np.full((3, 3), 1.0)
        with pytest.raises(InvalidParameterError, match=r"\[0, 0\]"):
            determinant_of(m)

    def test_asymmetric(self):
        m = np.array([[0.0, 1.0, 2.0], [1.0, 3.0, 4.0], [2.0, 5.0, 6.0]])
        with pytest.raises(InvalidParameterError, match="symmetric"):
            determinant_of(m)

    def test_symmetric_with_nan_is_accepted(self):
        # NaN counts equal to itself in the symmetry check, on or off the diagonal
        for m in ([[0, 1, 1], [1, math.nan, 0], [1, 0, 1.0]],
                  [[0, 1, math.nan], [1, 2, 0], [math.nan, 0, 1.0]]):
            (_, b1, b2), (_, h11, h12), (_, _, h22) = m
            assert math.isnan(determinant_of(np.array(m)))
            assert math.isnan(_determinant(b1, b2, h11, h12, h22))

    @pytest.mark.parametrize("entries, shown", [("x", "'x'"), (10**400, "1" + "0" * 400),
                                                ([[0, 1], [1]], "[[0, 1], [1]]")])
    def test_entries_that_are_not_numbers_are_refused(self, entries, shown):
        with pytest.raises(InvalidParameterError) as info:
            determinant_of(entries)
        assert info.value.field == "entries"
        assert str(info.value) == f"entries must be a 3x3 array of numbers, got {shown}"

    def test_asymmetric_with_nan_is_refused(self):
        # NaN on one side of the diagonal only, the upper or the lower
        for m in ([[0, 1, 1], [1, math.nan, 0], [1, 2, 1.0]],
                  [[0, 1, math.nan], [1, 2, 0], [1, 0, 1.0]],
                  [[0, 1, 1], [math.nan, 2, 0], [1, 0, 1.0]],
                  [[0, 1, 1], [1, 2, 0], [1, math.nan, 1.0]]):
            with pytest.raises(InvalidParameterError, match="symmetric"):
                determinant_of(np.array(m))

    def test_messages_name_the_shape_and_the_corner(self):
        for entries, field, text in [
            (np.zeros((2, 2)), "entries", "must be 3x3, got shape (2, 2)"),
            ([], "entries", "must be 3x3, got shape (0,)"),
            ([[0.0, 1.0, 1.0]], "entries", "must be 3x3, got shape (1, 3)"),
            (np.full((3, 3), 1.0), "entries[0, 0]", "must be 0, got 1.0"),
            ([[0.0, 1.0, 2.0], [1.0, 3.0, 4.0], [2.0, 5.0, 6.0]], "entries", "must be symmetric"),
        ]:
            with pytest.raises(InvalidParameterError) as info:
                determinant_of(entries)
            assert (info.value.field, str(info.value)) == (field, f"{field} {text}")


def refused_by_numpy(entries) -> bool:
    """Whether the numpy check that BorderedHessian once ran refused ``entries``."""
    try:
        m = np.array(entries, dtype=float)
    except ValueError:  # ragged rows
        return True
    return bool(m.shape != (3, 3) or m[0, 0] != 0.0
                or not np.array_equal(m, m.T, equal_nan=True))


CELLS = st.sampled_from([0, 0.0, -0.0, 1, 2, math.nan, math.inf])


@st.composite
def near_matrices(draw):
    """Mostly 3x3 lists, some of another or ragged shape; many symmetric with a zero
    corner, then one cell redrawn, so a single asymmetry is common."""
    sizes = st.integers(0, 4) if draw(st.integers(0, 4)) == 0 else st.just(3)
    m = [[draw(CELLS) for _ in range(draw(sizes))] for _ in range(draw(sizes))]
    if draw(st.booleans()):  # copy the upper triangle down, where it exists
        for i, row in enumerate(m):
            for j in range(min(i, len(row))):
                if i < len(m[j]):
                    row[j] = m[j][i]
        if m and m[0]:
            m[0][0] = draw(st.sampled_from([0, 0.0, -0.0]))
    if draw(st.booleans()):
        row = draw(st.sampled_from(m)) if m else []
        if row:
            row[draw(st.integers(0, len(row) - 1))] = draw(CELLS)
    return m


class TestMovedChecks:
    """hessian_determinant refuses exactly the matrices the numpy check refused."""

    @settings(max_examples=1000)
    @given(m=near_matrices())
    @example(m=[[0, 1, 1], [1, 2, 1], [1, math.nan, 2]])  # NaN in the lower triangle only
    @example(m=[[0, 1, math.nan], [1, 2, 1], [1, 1, 2]])  # and in the upper
    def test_refuses_what_numpy_refused(self, m):
        try:
            determinant_of(m)
        except InvalidParameterError as exc:
            refused = True
            assert exc.field in ("entries", "entries[0, 0]")
        else:
            refused = False
        assert refused is refused_by_numpy(m)


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


class TestScaledBorder:
    """Scaling the border row and column by k > 0 scales det by k**2 and keeps the class."""

    def test_determinant_scales_quadratically(self):
        sol = solve_closed_form(SQRT_PROB)
        h = build_bordered_hessian(SQRT_PROB, sol, HessianVariant.SHADOW_FORM)
        base = hessian_determinant(h)
        for k in (0.5, 2.0, 7.25):
            assert hessian_determinant(scaled_border(h, k)) == pytest.approx(
                k * k * base, rel=1e-12
            )

    @settings(max_examples=300)
    @given(prob=problems, variant=st.sampled_from(HessianVariant), cross=st.booleans(),
           k=st.floats(1e-3, 1e3), j=st.integers(-20, 20))
    def test_determinant_scales_quadratically_on_the_rows(self, prob, variant, cross, k, j):
        h = build_bordered_hessian(prob, solve_closed_form(prob), variant, cross)
        det = hessian_determinant(h)
        # a power of two scales every product of the expansion exactly
        assert hessian_determinant(scaled_border(h, 2.0**j)) == 4.0**j * det
        # any other k, to within the rounding of the expansion's terms
        (_, b1, b2), (_, h11, h12), (_, _, h22) = h.entries
        terms = abs(b1) * (abs(b1 * h22) + abs(h12 * b2)) + abs(b2) * (abs(b1 * h12)
                                                                     + abs(h11 * b2))
        assert abs(hessian_determinant(scaled_border(h, k)) - k * k * det) <= 1e-14 * k * k * terms

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
                    hs = scaled_border(h, k)
                    dets = hessian_determinant(hs)
                    cls = classify_from_determinant(dets, float(np.max(np.abs(hs.entries))))
                    assert cls is base


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
        with pytest.raises(DomainError) as info:
            classify_second_order(prob, solve_closed_form(prob))
        assert str(info.value) == ("ShadowForm bordered Hessian: the noise floor overflows "
                                   "at matrix scale 9.802958137391112e+159")

    def test_public_classify_names_the_overflowing_scale(self):
        # a numpy scalar's power would overflow to inf with a warning, not raise
        for scale in (1e103, np.float64(1e103)):
            with pytest.raises(DomainError) as info:
                classify_from_determinant(1.0, scale)
            assert str(info.value) == "the noise floor overflows at matrix scale 1e+103"
        with pytest.raises(TypeError, match="matrix_scale must be a number"):
            classify_from_determinant(1.0, "1e103")
        assert classify_from_determinant(1.0, 1e102) is SecondOrderClass.INDETERMINATE


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
    """The full first-row expansion on a numpy matrix, as the seed code computed it."""
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


class TestFloatKernel:
    """The plain-float kernel against the public matrix, as a numpy array, and a generic
    determinant."""

    @settings(max_examples=300)
    @given(prob=problems, variant=st.sampled_from(HessianVariant), cross=st.booleans())
    def test_matches_numpy_path(self, prob, variant, cross):
        sol = solve_closed_form(prob)
        entries, det, cls = _second_order(
            prob.alpha, prob.beta, prob.p1, prob.p2, prob.P_C,
            sol.L_C_star, sol.R_B_star, sol.lam, variant, cross,
        )
        h = build_bordered_hessian(prob, sol, variant, cross)
        m = np.array(h.entries)
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
