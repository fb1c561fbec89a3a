"""Gate-level constructions versus the closed-form costs."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from acev2.cost import ace_shift
from acev2.errors import OutOfRangeError
from acev2.formats import NumericFormat
from acev2.oracle import (
    barrel_matches_closed_form,
    barrel_mux_count,
    dadda_adder_count,
    dadda_stage_counts,
    fp_adder_breakdown,
    multiply_formula,
    verify_multiply_formula,
)


class TestDaddaConstruction:
    def test_eight_by_eight(self):
        assert dadda_adder_count(8, 8).adder_units == 56

    @pytest.mark.parametrize("k", [1, 2, 7, 33, 64])
    def test_single_bit_operand_needs_nothing(self, k):
        assert dadda_adder_count(1, k).adder_units == 0
        assert dadda_adder_count(k, 1).adder_units == 0

    def test_five_by_three(self):
        assert dadda_adder_count(5, 3).adder_units == 10

    @pytest.mark.parametrize("n", [3, 4, 8, 16, 32, 64])
    def test_square_split_reduction_vs_completion(self, n):
        reduction, completion = dadda_stage_counts(n, n)
        assert reduction.adder_units == n * n - 3 * n + 2
        assert completion.adder_units == 2 * n - 2

    def test_split_reduction_vs_completion_on_every_pair(self):
        for i in range(2, 65):
            for j in range(2, 65):
                reduction, completion = dadda_stage_counts(i, j)
                assert completion.adder_units == i + j - 2, (i, j)
                assert reduction.adder_units == (
                    i * j - max(i, j) - (i + j - 2)), (i, j)

    def test_full_and_half_adder_tallies_are_pinned(self):
        """No closed form fixes the full/half split, so the exact tallies
        of every pair are pinned by digest; any change to the greedy
        placement shows here."""
        lines = []
        sums = [0, 0, 0, 0]
        for i in range(1, 65):
            for j in range(1, 65):
                red, cpa = dadda_stage_counts(i, j)
                counts = (red.full_adders, red.half_adders,
                          cpa.full_adders, cpa.half_adders)
                sums = [s + c for s, c in zip(sums, counts)]
                lines.append(f"{i} {j} " + " ".join(map(str, counts)))
        assert sums == [3_810_365, 85_219, 249_922, 4_094]
        digest = hashlib.sha256(("\n".join(lines) + "\n").encode())
        assert digest.hexdigest() == (
            "23a53f6ef5fa57314102d2cc20ba8c1e17b5d6f65a4f80c43cbadf614e6f1f53")

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            dadda_adder_count(0, 8)
        with pytest.raises(OutOfRangeError):
            dadda_adder_count(8, 65)

    @given(st.integers(1, 64), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_matches_closed_form_on_sampled_pairs(self, i, j):
        assert dadda_adder_count(i, j).adder_units == multiply_formula(i, j)


class TestVerifySweep:
    def test_degenerate_single_pair(self):
        assert verify_multiply_formula(1) == []

    def test_sixteen_bit_sweep_clean(self):
        assert verify_multiply_formula(16) == []

    def test_bad_range(self):
        with pytest.raises(OutOfRangeError):
            verify_multiply_formula(65)


class TestFpAdder:
    def test_fp32_breakdown(self):
        bd = fp_adder_breakdown(8, 23)
        assert bd.total == pytest.approx(149.61, abs=0.05)
        assert bd.total <= 6 * 32
        assert bd.total == pytest.approx(sum(bd.components))
        assert bd.operand_swapping == 0.0
        assert bd.significand_conversion == 46.0

    def test_fp16_breakdown_under_bound(self):
        bd = fp_adder_breakdown(5, 10)
        assert bd.total <= 96

    def test_smallest_admissible_case_by_hand(self):
        bd = fp_adder_breakdown(2, 2)
        # e + m + m*0.2 + 1 + m + 2m + e*0.2 + m = 13.8
        assert bd.alignment_shift == pytest.approx(0.4)
        assert bd.normalization == pytest.approx(0.4)
        assert bd.total == pytest.approx(13.8)

    def test_minimum_widths_enforced(self):
        with pytest.raises(OutOfRangeError):
            fp_adder_breakdown(1, 23)

    @given(st.integers(2, 11), st.integers(2, 52))
    @settings(max_examples=120, deadline=None)
    def test_factor_six_is_an_upper_bound(self, e, m):
        bd = fp_adder_breakdown(e, m)
        assert bd.total <= 6 * (e + m + 1)


class TestBarrelShifter:
    def test_int32_full_range(self):
        built = barrel_mux_count(32, 32)
        assert built.mux21 == 160
        assert built.bitadder_equivalent == Fraction(32)

    def test_single_bit_single_stage(self):
        built = barrel_mux_count(1, 2)
        assert built.mux21 == 1
        assert built.bitadder_equivalent == Fraction(1, 5)

    def test_non_power_of_two_range(self):
        built = barrel_mux_count(8, 6)
        assert built.mux21 == 24
        assert built.bitadder_equivalent == Fraction(24, 5)  # 4.8

    @given(st.integers(1, 64), st.integers(1, 6))
    def test_matches_shift_formula_on_power_of_two_ranges(self, i, log_j):
        assert barrel_matches_closed_form(i, 2 ** log_j)

    def test_matches_formula_on_any_range(self):
        fmt = NumericFormat.fixed(13)
        for j in range(2, 40):
            assert (barrel_mux_count(13, j).bitadder_equivalent
                    == ace_shift(fmt, j).bitadders)

    @pytest.mark.parametrize("j", [1, 0, -4])
    def test_shift_range_below_two_is_out_of_range(self, j):
        for check in (barrel_mux_count, barrel_matches_closed_form):
            with pytest.raises(OutOfRangeError,
                               match="^shift range must be at least 2$"):
                check(4, j)

    def test_formula_check_names_the_data_bits_beyond_the_widest_format(self):
        assert barrel_mux_count(100, 4).mux21 == 200  # the build needs no cap
        with pytest.raises(OutOfRangeError,
                           match=r"^data bits must be in \[1, 64\], got 100$"):
            barrel_matches_closed_form(100, 4)


# Widths must be exactly int, as NumericFormat requires: each of these
# compares or converts like a width, and each used to leak into a tally
# as a float or escape as a bare TypeError / AttributeError.
NOT_INT_WIDTHS = pytest.mark.parametrize(
    "width", [8.0, 2.5, True, "8", None], ids=repr)


@NOT_INT_WIDTHS
class TestWidthsMustBeIntegers:
    def test_dadda_stage_counts(self, width):
        for args in ((width, 8), (8, width)):
            with pytest.raises(OutOfRangeError, match="must be integers"):
                dadda_stage_counts(*args)

    def test_dadda_adder_count(self, width):
        for args in ((width, 8), (8, width)):
            with pytest.raises(OutOfRangeError, match="must be integers"):
                dadda_adder_count(*args)

    def test_verify_multiply_formula(self, width):
        with pytest.raises(OutOfRangeError, match="must be integers"):
            verify_multiply_formula(width)

    def test_barrel_mux_count(self, width):
        for args in ((width, 8), (8, width)):
            with pytest.raises(OutOfRangeError, match="must be integers"):
                barrel_mux_count(*args)

    def test_barrel_matches_closed_form(self, width):
        for args in ((width, 8), (8, width)):
            with pytest.raises(OutOfRangeError, match="must be integers"):
                barrel_matches_closed_form(*args)

    def test_fp_adder_breakdown(self, width):
        for args in ((width, 23), (8, width)):
            with pytest.raises(OutOfRangeError, match="must be integers"):
                fp_adder_breakdown(*args)
