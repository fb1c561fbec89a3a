"""Closed-form cost formulas against every tabulated 45nm value."""

import hashlib
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from acev2 import cost
from acev2.cost import (
    ace_add,
    ace_mac,
    ace_multiply,
    ace_shift,
    energy_of_op,
    pearson_correlation,
    table_energy_correlation,
)
from acev2.errors import (
    DegenerateInputError,
    MixedKindError,
    UnsupportedExtrapolationError,
    UnsupportedOperandError,
)
from acev2.formats import BIN, FP16, FP32, INT2, INT4, INT8, INT16, INT32, NumericFormat

fixed = NumericFormat.fixed


class TestMultiply:
    @pytest.mark.parametrize("fmt,expected", [
        (FP32, 992), (FP16, 240), (INT32, 992), (INT16, 240),
        (INT8, 56), (INT4, 12), (INT2, 2),
    ])
    def test_tabulated_cells(self, fmt, expected):
        assert ace_multiply(fmt, fmt).bitadders == expected

    def test_binary_product_needs_no_adders(self):
        assert ace_multiply(BIN, BIN).bitadders == 0

    @given(st.integers(1, 64), st.integers(1, 64))
    def test_symmetric(self, i, j):
        assert ace_multiply(fixed(i), fixed(j)) == ace_multiply(fixed(j), fixed(i))

    @given(st.integers(1, 63), st.integers(1, 64))
    def test_monotone_in_each_operand(self, i, j):
        assert (ace_multiply(fixed(i + 1), fixed(j)).bitadders
                >= ace_multiply(fixed(i), fixed(j)).bitadders)

    @given(st.integers(1, 64), st.integers(1, 64))
    def test_zero_iff_one_operand_is_single_bit(self, i, j):
        zero = ace_multiply(fixed(i), fixed(j)).bitadders == 0
        assert zero == (min(i, j) == 1)


class TestAdd:
    @pytest.mark.parametrize("fmt,expected", [
        (FP32, 192), (FP16, 96), (INT32, 32), (INT16, 16),
        (INT8, 8), (INT4, 4), (INT2, 2), (BIN, 1),
    ])
    def test_tabulated_cells(self, fmt, expected):
        assert ace_add(fmt, fmt).bitadders == expected

    def test_mixed_kind_rejected(self):
        with pytest.raises(MixedKindError):
            ace_add(INT8, FP32)

    def test_binary_and_fixed_interoperate(self):
        assert ace_add(BIN, INT8).bitadders == 8

    @given(st.integers(4, 64))
    def test_float_costs_exactly_six_times_fixed(self, bits):
        flt = NumericFormat.flt(2, bits - 3)
        assert (ace_add(flt, flt).bitadders
                == 6 * ace_add(fixed(bits), fixed(bits)).bitadders)


class TestShift:
    @pytest.mark.parametrize("bits,rng,expected", [
        (32, 32, Fraction(32)),
        (16, 16, Fraction(64, 5)),   # 12.8
        (8, 8, Fraction(24, 5)),     # 4.8
        (4, 4, Fraction(8, 5)),      # 1.6
        (2, 2, Fraction(2, 5)),      # 0.4
    ])
    def test_tabulated_cells(self, bits, rng, expected):
        assert ace_shift(fixed(bits), rng).bitadders == expected

    def test_non_power_of_two_uses_whole_stages(self):
        # 6 positions need 3 mux stages, same as 8 positions
        assert ace_shift(INT8, 6) == ace_shift(INT8, 8)

    def test_float_operand_rejected(self):
        with pytest.raises(UnsupportedOperandError):
            ace_shift(FP32, 8)

    def test_range_below_two_rejected(self):
        with pytest.raises(UnsupportedOperandError):
            ace_shift(INT8, 1)

    @pytest.mark.parametrize("rng", [8.0, 9.5, "8", True], ids=repr)
    def test_range_must_be_exactly_an_int(self, rng):
        """8.0 used to read the measured 8-place energy cell, 9.5 and
        ``ace_shift(INT8, 8.0)`` to raise a bare AttributeError, and "8"
        a TypeError."""
        message = f"^shift range must be an integer, got {rng!r}$"
        with pytest.raises(UnsupportedOperandError, match=message):
            ace_shift(INT8, rng)
        with pytest.raises(UnsupportedOperandError, match=message):
            energy_of_op(cost.SHIFT, INT8, shift_range=rng)

    @pytest.mark.parametrize("fmt", [INT32, INT16, INT8, INT4, INT2])
    def test_shift_strictly_cheaper_than_multiply(self, fmt):
        k = fmt.total_bits
        assert (ace_shift(fmt, k).bitadders
                < ace_multiply(fmt, fmt).bitadders)


class TestMac:
    def test_is_plain_bit_product(self):
        assert ace_mac(fixed(4), fixed(4)).bitadders == 16
        assert ace_mac(BIN, BIN).bitadders == 1
        assert ace_mac(fixed(8), fixed(4)).bitadders == 32

    @given(st.integers(1, 64), st.integers(1, 64))
    def test_mac_exceeds_isolated_multiply_by_the_completion_add(self, i, j):
        gap = (ace_mac(fixed(i), fixed(j)).bitadders
               - ace_multiply(fixed(i), fixed(j)).bitadders)
        assert gap == max(i, j)


class TestEnergy:
    @pytest.mark.parametrize("op,fmt,pj", [
        (cost.MULTIPLY, FP32, 3.7), (cost.MULTIPLY, FP16, 1.1),
        (cost.MULTIPLY, INT32, 3.1), (cost.MULTIPLY, INT8, 0.2),
        (cost.ADD, FP32, 0.9), (cost.ADD, FP16, 0.4),
        (cost.ADD, INT32, 0.1), (cost.ADD, INT8, 0.03),
    ])
    def test_measured_cells_are_lookups(self, op, fmt, pj):
        got = energy_of_op(op, fmt, fmt)
        assert got.picojoules == pj
        assert not got.extrapolated

    @pytest.mark.parametrize("bits,rng,pj", [
        (32, 32, 0.13), (16, 16, 0.057), (8, 8, 0.024),
    ])
    def test_measured_shift_cells(self, bits, rng, pj):
        got = energy_of_op(cost.SHIFT, fixed(bits), shift_range=rng)
        assert got.picojoules == pj
        assert not got.extrapolated

    def test_int4_multiply_extrapolates_quadratically(self):
        # anchor-ratio oracle: 0.2 pJ at 8x8 scaled by the bit product
        expected = 0.2 * (4 * 4) / (8 * 8)
        got = energy_of_op(cost.MULTIPLY, INT4, INT4)
        assert got.extrapolated
        assert got.picojoules == pytest.approx(expected)

    def test_add_extrapolates_linearly(self):
        got = energy_of_op(cost.ADD, INT16, INT16)
        assert got.extrapolated
        assert got.picojoules == pytest.approx(0.1 * 16 / 32)

    def test_shift_extrapolates_in_bits_times_stages(self):
        got = energy_of_op(cost.SHIFT, INT8, shift_range=16)
        assert got.extrapolated
        assert got.picojoules == pytest.approx(0.024 * (8 * 4) / 24)

    def test_mac_priced_as_multiply(self):
        assert energy_of_op(cost.MAC, INT8, INT8).picojoules == 0.2

    def test_mixed_float_fixed_priced_at_the_float_row(self):
        got = energy_of_op(cost.MAC, FP32, INT8)
        assert got.picojoules == 3.7
        assert not got.extrapolated

    def test_odd_float_width_refused(self):
        with pytest.raises(UnsupportedExtrapolationError):
            energy_of_op(cost.MULTIPLY, NumericFormat.flt(8, 15), INT8)


class TestPearson:
    def test_perfect_linearity(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_length_mismatch(self):
        with pytest.raises(DegenerateInputError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_zero_variance(self):
        with pytest.raises(DegenerateInputError):
            pearson_correlation([1, 1, 1], [1, 2, 3])

    def test_single_point_rejected(self):
        with pytest.raises(DegenerateInputError):
            pearson_correlation([1], [1])

    def test_cost_model_tracks_measured_energy(self):
        assert table_energy_correlation() >= 0.99


class TestOpClassTable:
    """Energies, pairs and the correlation, pinned so that restructuring
    the pricing code cannot move a bit of them."""

    FORMATS = ([fixed(b) for b in range(1, 65)]
               + [BIN, FP16, FP32, NumericFormat.flt(8, 7),
                  NumericFormat.flt(4, 3)])

    @staticmethod
    def _energy_line(op, a, b, shift_range):
        try:
            e = energy_of_op(op, a, b, shift_range=shift_range)
            out = f"{e.picojoules!r} {e.extrapolated}"
        except Exception as exc:  # noqa: BLE001 - the type is pinned too
            out = f"{type(exc).__name__}: {exc}"
        return f"{op} {a!r} {b!r} {shift_range!r} -> {out}\n"

    def test_energy_of_every_class_and_operand_is_pinned(self):
        # values, extrapolation flags and error messages over every class
        # (and one unknown), fixed 1-64, binary, fp16/fp32/bf16/fp8 and
        # shift ranges 0-69 or None
        cases = [(op, a, b, None)
                 for op in (cost.MULTIPLY, cost.ADD, cost.MAC, "divide")
                 for a in self.FORMATS for b in self.FORMATS + [None]]
        cases += [(cost.SHIFT, a, None, r)
                  for a in self.FORMATS for r in [*range(70), None]]
        digest = hashlib.sha256()
        for case in cases:
            digest.update(self._energy_line(*case).encode())
        assert len(cases) == 24219
        assert digest.hexdigest() == (
            "41bd7ecb25ec32fdede9ddb9183c02667b1f90bcbc392149ec372486732ef2ee")

    def test_ace_energy_pairs(self):
        assert cost.TABLE_ACE_ENERGY_PAIRS == (
            (992, 3.7), (240, 1.1), (992, 3.1), (56, 0.2),       # multiply
            (192, 0.9), (96, 0.4), (32, 0.1), (8, 0.03),         # add
            (32, 0.13), (Fraction(64, 5), 0.057), (Fraction(24, 5), 0.024))
        assert all(type(ace) is Fraction
                   for ace, _ in cost.TABLE_ACE_ENERGY_PAIRS)

    def test_correlation_is_pinned(self):
        # r of the pinned pairs is 0.99156633008238900027 to 20 digits
        # (from r**2, exact in rationals), and 0.991566330082389 rounded
        # to a float. statistics.correlation sums differently across
        # Python versions (3.12 reads 2 ulps low), so r is pinned to
        # within 2 ulps of that.
        r = 0.991566330082389
        assert abs(table_energy_correlation() - r) <= 2 * math.ulp(r)


def test_readme_non_monotone_energy_table_is_what_energy_of_op_gives():
    """README's table of extrapolated energies priced below a narrower, or
    above a wider, measured cell, regenerated cell by cell."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("priced in the wrong order (`cost.energy_of_op`):"
                         "\n\n", 1)[1].split("\n\n", 1)[0]
    listed = [[cell.strip() for cell in line.strip("|").split("|")]
              for line in table.splitlines()[2:]]

    def energy(bits, shift_range):
        op = cost.ADD if shift_range is None else cost.SHIFT
        other = fixed(bits) if shift_range is None else None
        return energy_of_op(op, fixed(bits), other, shift_range=shift_range)

    def pj(e):
        return f"{e.picojoules:.6f}".rstrip("0").ljust(5, "0") + " pJ"

    rows = []
    for bits, neighbour, shift_range in ((9, 8, None), (15, 16, 16),
                                         (31, 32, 32)):
        low, high = energy(bits, shift_range), energy(neighbour, shift_range)
        assert (low.extrapolated, high.extrapolated) == (True, False)
        # the two are priced in the wrong order for their widths
        assert (low.picojoules < high.picojoules) is (bits > neighbour)
        if shift_range is None:
            rows.append([f"{bits}-bit add", pj(low),
                         f"{neighbour}-bit add: {pj(high)}"])
        else:
            rows.append([f"{bits}-bit shift over {shift_range} places",
                         pj(low), f"{neighbour}-bit over {shift_range}: "
                         f"{pj(high)}"])
    assert listed == rows
