"""Gate-level constructions versus the closed-form costs."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acev2.cost import ace_shift
from acev2.errors import OutOfRangeError
from acev2.formats import NumericFormat
from acev2 import cli, cost, oracle
from acev2.oracle import (
    CircuitTally,
    barrel_matches_closed_form,
    barrel_mux_count,
    dadda_adder_count,
    dadda_stage_counts,
    fp_adder_breakdown,
    verify_multiply_formula,
)


def priced(i, j):
    """The bit-adders ``cost`` prices an i-bit by j-bit multiply at."""
    return cost.ace_multiply(NumericFormat.fixed(i),
                             NumericFormat.fixed(j)).bitadders


def _column_stage(heights, d):
    """One Dadda stage walked column by column, the form the run stage
    replaced: the reference that ``oracle._reduce_stage`` must match."""
    nxt = []
    carry = full = half = 0
    for h in heights:
        t = h + carry
        if t <= d:
            nxt.append(t)
            carry = 0
        else:
            fa, ha = divmod(t - d, 2)
            full += fa
            half += ha
            nxt.append(d)
            carry = fa + ha
    if carry:
        nxt.append(carry)
    return nxt, full, half


def _expand(runs):
    return [h for h, k in runs for _ in range(k)]


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

    def test_column_heights_count_the_and_array(self):
        """Row a < i of the AND array puts one bit in each of the columns
        a .. a+j-1; the heights are the bits per column on every pair."""
        for i in range(1, 65):
            for j in range(1, 65):
                bits = np.add.outer(np.arange(i), np.arange(j)).ravel()
                assert _expand(oracle._partial_product_runs(i, j)) == (
                    np.bincount(bits).tolist()), (i, j)

    def test_stage_counts_are_symmetric_on_every_pair(self):
        for i in range(1, 65):
            for j in range(i + 1, 65):
                assert dadda_stage_counts(i, j) == dadda_stage_counts(j, i)

    def test_each_run_stage_equals_the_column_stage(self):
        """Every stage of every pair, fed the same columns both ways: the
        runs expand to the per-column output, with the same adders, and
        no two adjacent runs share a height. Each stage input, the
        completion's too, starts with the single columns 1 .. d that the
        stage passes through unwalked (for 1 x n, one run of height 1).
        The completion's tallies equal a per-column stage of target 1
        over the last columns."""
        for i in range(1, 65):
            for j in range(1, 65):
                runs = oracle._partial_product_runs(i, j)
                heights = _expand(runs)
                for d in reversed(oracle._dadda_targets(min(i, j))):
                    # the d lowest columns, which the stage passes through
                    assert runs[:d] == [(h, 1) for h in range(1, d + 1)], (
                        i, j, d)
                    runs, fa, ha = oracle._reduce_stage(runs, d)
                    heights, col_fa, col_ha = _column_stage(heights, d)
                    assert (_expand(runs), fa, ha) == (
                        heights, col_fa, col_ha), (i, j, d)
                    assert all(k >= 1 for _, k in runs), (i, j, d)
                    assert all(a != b for (a, _), (b, _)
                               in zip(runs, runs[1:])), (i, j, d)
                assert max(heights) <= 2, (i, j)
                # 1 x n reaches the completion as one run of height 1
                assert runs[:1] == ([(1, 1)] if min(i, j) > 1
                                    else [(1, max(i, j))]), (i, j)
                _, col_fa, col_ha = _column_stage(heights, 1)
                assert dadda_stage_counts(i, j)[1] == (
                    CircuitTally(col_fa, col_ha)), (i, j)

    def test_each_stage_input_rises_to_one_highest_run_then_falls(self):
        """The shape ``_reduce_stage`` relies on to stop at its falling
        edge: every reduction-stage input and the completion input of
        every pair is the single columns 1 .. p-1, one run of height p,
        then strictly falling single columns. So the first column at most
        d high with no carry-in is on the fall, and every later one is
        lower. A 1 x n completion input is the one run (1, n)."""
        def rises_peaks_falls(runs):
            heights = [h for h, _ in runs]
            peak = heights.index(max(heights))
            return (runs[:peak] == [(h, 1) for h in range(1, heights[peak])]
                    and all(k == 1 for _, k in runs[peak + 1:])
                    and all(a > b for a, b in zip(heights[peak:],
                                                  heights[peak + 1:])))

        inputs = 0
        for i in range(1, 65):
            for j in range(1, 65):
                runs = oracle._partial_product_runs(i, j)
                for d in reversed(oracle._dadda_targets(min(i, j))):
                    assert rises_peaks_falls(runs), (i, j, d)
                    runs = oracle._reduce_stage(runs, d)[0]
                    inputs += 1
                assert rises_peaks_falls(runs), (i, j)
                if min(i, j) == 1:
                    assert runs == [(1, max(i, j))], (i, j)
        assert inputs == 23_961

    def test_a_column_left_higher_than_two_is_caught(self, monkeypatch):
        """With no stages, 3x3's columns 1 2 3 2 1 reach the ripple-carry
        completion, and column 2 holds three bits, more than the two rows
        a carry-propagate adder takes."""
        monkeypatch.setattr(oracle, "_dadda_targets", lambda height: [])
        with pytest.raises(AssertionError, match="higher than 2"):
            dadda_stage_counts(3, 3)

    def test_a_three_high_column_without_carry_in_is_caught(
            self, monkeypatch):
        """A lone 3-high column reaches the completion with no carry-in:
        a full adder would take it, but a two-row adder cannot."""
        monkeypatch.setattr(oracle, "_partial_product_runs",
                            lambda i, j: [(3, 1)])
        monkeypatch.setattr(oracle, "_dadda_targets", lambda height: [])
        with pytest.raises(AssertionError, match="higher than 2"):
            dadda_stage_counts(3, 3)

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
        assert dadda_adder_count(i, j).adder_units == priced(i, j)


def _input_wires(width):
    """Wire r of ``width`` input bits over all 2**width test vectors: an
    int whose bit v is bit r of v (2**r zeros then 2**r ones, repeated)."""
    vectors = 1 << width
    wires = []
    for r in range(width):
        period = 2 << r
        ones = ((1 << (1 << r)) - 1) << (1 << r)
        wires.append(ones * (((1 << vectors) - 1) // ((1 << period) - 1)))
    return wires


def _full_adder(a, b, c):
    return a ^ b ^ c, (a & b) | (c & (a ^ b))


def _half_adder(a, b):
    return a ^ b, a & b


def _netlist_stage(columns, d):
    """One greedy Dadda stage of target d over columns of wires: a
    column's wires and the carries its right neighbour's adders pass in
    are t bits, and t > d takes divmod(t - d, 2) full and half adders,
    the per-column rule ``_reduce_stage`` counts. The adders read only
    the column's own wires; carries in pass to the next stage, as in a
    Dadda tree. Returns (columns, full adders, half adders)."""
    out, carries = [], []
    full = half = 0
    for column in columns:
        fa, ha = divmod(max(len(column) + len(carries) - d, 0), 2)
        taken = 3 * fa + 2 * ha
        assert taken <= len(column)
        kept, carries = column[taken:] + carries, []
        for n in range(0, 3 * fa, 3):
            s, c = _full_adder(*column[n:n + 3])
            kept.append(s)
            carries.append(c)
        if ha:
            s, c = _half_adder(*column[3 * fa:taken])
            kept.append(s)
            carries.append(c)
        out.append(kept)
        full += fa
        half += ha
    if carries:
        out.append(carries)
    return out, full, half


def _ripple_carry(columns):
    """Add the two rows left after reduction: each column's wires and
    the carry-in pass through one full or half adder, or none for a lone
    bit. Returns (product bits, full adders, half adders)."""
    bits, carry = [], []
    full = half = 0
    for column in columns:
        assert len(column) <= 2
        wires = column + carry
        if len(wires) == 3:
            s, c = _full_adder(*wires)
            full += 1
        elif len(wires) == 2:
            s, c = _half_adder(*wires)
            half += 1
        else:
            (s,), c = wires, None
        bits.append(s)
        carry = [] if c is None else [c]
    return bits + carry, full, half


def _dadda_netlist(i, j):
    """The i x j multiplier as gates over every pair of operands: the AND
    array, the greedy stages and the ripple-carry completion. Returns
    (product bits, reduction tally, completion tally)."""
    wires = _input_wires(i + j)
    a, b = wires[:i], wires[i:]
    columns = [[] for _ in range(i + j - 1)]
    for r in range(i):
        for s in range(j):
            columns[r + s].append(a[r] & b[s])
    red_fa = red_ha = 0
    for d in reversed(oracle._dadda_targets(min(i, j))):
        columns, fa, ha = _netlist_stage(columns, d)
        red_fa += fa
        red_ha += ha
    bits, cpa_fa, cpa_ha = _ripple_carry(columns)
    return bits, CircuitTally(red_fa, red_ha), CircuitTally(cpa_fa, cpa_ha)


def _product_bits(i, j):
    """Bit k of a * b on every test vector v = a + b * 2**i, packed as
    the netlist packs its wires."""
    v = np.arange(1 << (i + j))
    product = (v & ((1 << i) - 1)) * (v >> i)
    return [int.from_bytes(np.packbits((product >> k) & 1,
                                       bitorder="little").tobytes(), "little")
            for k in range(i + j)]


class TestDaddaNetlist:
    def test_the_counted_placement_multiplies(self):
        """Every pair up to 8 x 8 built as gates and run on all
        2**(i + j) operand pairs at once: each product bit is right, and
        the netlist's reduction and completion adders are the tallies
        ``dadda_stage_counts`` counts."""
        for i in range(1, 9):
            for j in range(1, 9):
                bits, reduction, completion = _dadda_netlist(i, j)
                bits += [0] * (i + j - len(bits))  # 1 x n: no carry-out
                assert bits == _product_bits(i, j), (i, j)
                assert (reduction, completion) == dadda_stage_counts(
                    i, j), (i, j)

    def test_a_wrong_gate_is_caught(self, monkeypatch):
        """A full adder whose carry drops its carry-in term gives a
        wrong 3 x 3 product: the check reads the gates' function."""
        monkeypatch.setitem(globals(), "_full_adder",
                            lambda a, b, c: (a ^ b ^ c, a & b))
        bits, _, _ = _dadda_netlist(3, 3)
        assert bits != _product_bits(3, 3)


class TestVerifySweep:
    def test_degenerate_single_pair(self):
        assert verify_multiply_formula(1) == []

    def test_sixteen_bit_sweep_clean(self):
        assert verify_multiply_formula(16) == []

    def test_bad_range(self):
        with pytest.raises(OutOfRangeError):
            verify_multiply_formula(65)

    def test_each_unordered_pair_is_built_once(self, monkeypatch):
        calls = []

        def counted(i, j):
            calls.append((i, j))
            return dadda_adder_count(i, j)

        monkeypatch.setattr(oracle, "dadda_adder_count", counted)
        assert verify_multiply_formula(64) == []
        assert len(calls) == 2080
        assert set(calls) == {(i, j) for i in range(1, 65)
                              for j in range(i, 65)}

    def test_a_faulty_build_shows_in_both_orders_row_major(self,
                                                          monkeypatch):
        def off_by_one(i, j):
            return dadda_adder_count(i, j) + CircuitTally(
                half_adders=int(i + j == 20))

        monkeypatch.setattr(oracle, "dadda_adder_count", off_by_one)
        assert verify_multiply_formula(64) == [
            (i, 20 - i, priced(i, 20 - i) + 1, priced(i, 20 - i))
            for i in range(1, 20)]

    def test_a_faulty_priced_formula_shows_in_the_sweep(self, monkeypatch,
                                                        capsys):
        """The sweep checks the formula ``analyze`` prices with: priced at
        i*j - min(i, j), every pair with i != j mismatches, and ``acev2
        oracle`` exits 3."""
        def min_not_max(a, b):
            i, j = a.total_bits, b.total_bits
            return cost.AceCost(Fraction(i * j - min(i, j)))

        monkeypatch.setattr(cost, "ace_multiply", min_not_max)
        assert verify_multiply_formula(8) == [
            (i, j, i * j - max(i, j), i * j - min(i, j))
            for i in range(1, 9) for j in range(1, 9) if i != j]
        assert cli.main(["oracle", "--max-bits", "8"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["56 mismatches / 64 pairs",
                             "  1x2: built 0, predicted 1"]


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

    @pytest.mark.parametrize("e, m", [(1, 23), (8, 1), (65, 2), (2, 65),
                                      (10 ** 8, 3), (1000, 1000)])
    def test_each_width_is_held_to_2_to_64_bits(self, e, m):
        with pytest.raises(OutOfRangeError, match=r"each be in \[2, 64\]"):
            fp_adder_breakdown(e, m)

    def test_factor_six_is_an_upper_bound(self):
        """Every admissible pair, each width 2-64 bits, stays within the
        factor-6 bound; the nearest, 2 exponent and 64 mantissa bits,
        reads 0.996 of it."""
        ratio, e, m = max((fp_adder_breakdown(e, m).total / (6 * (e + m + 1)),
                           e, m)
                          for e in range(2, 65) for m in range(2, 65))
        assert (e, m) == (2, 64) and ratio == pytest.approx(0.9955, abs=1e-4)


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

    def test_the_build_counts_its_own_stages(self, monkeypatch):
        """A fault in the stage count the shift formula prices with shows:
        the build adds stages of 1, 2, 4, ... places until they reach
        j - 1, and reads no ``shift_stages``."""
        for module in (cost, oracle):
            monkeypatch.setattr(module, "shift_stages",
                                lambda r: r.bit_length(), raising=False)
        assert barrel_mux_count(8, 8).mux21 == 24
        assert not barrel_matches_closed_form(8, 8)

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
