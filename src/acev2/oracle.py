"""Gate-level constructions that independently check the closed forms.

Three separate constructions back the three cost formulas:

  * an unsigned Dadda multiplier (staged partial-product reduction with
    full/half adders, completed by a ripple-carry adder) checks
    ``cost.ace_multiply``, i*j - max(i, j). Its column heights form a
    trapezoid of (height, columns) runs (rise, plateau, fall) that
    depends only on (min(i, j), max(i, j)); the stages read nothing else,
    so j x i builds as i x j and the sweep builds each unordered pair
    once. One stage rule, ``_reduce_stage``, walks the runs for every
    stage, and the ripple-carry completion is its stage of target 1. A
    stage of target d starts after the d lowest columns, heights 1 .. d
    with no carry-in, and stops at the first column of the falling edge
    that is at most d high with no carry-in: it can change none of them;
  * a component-by-component floating-point adder model checks that the
    factor-6 rule for float adds is an upper bound;
  * a barrel shifter that counts its own mux stages checks
    ``cost.ace_shift``, i * log2(j) / 5.

Everything here models unsigned magnitude arithmetic; full and half
adders both count as one bit-adder unit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from . import cost
from .cost import MUX_PER_ADDER
from .errors import OutOfRangeError
from .formats import MAX_BITS, NumericFormat


def _require_int_widths(*widths) -> None:
    """Widths must be exactly int, the rule NumericFormat applies: 8.0
    and True compare equal to widths but would leak into the tallies."""
    for width in widths:
        if type(width) is not int:
            raise OutOfRangeError(
                f"bit widths must be integers, got {width!r}")


class CircuitTally(NamedTuple):
    """Unit counts for a constructed circuit."""

    full_adders: int = 0
    half_adders: int = 0
    mux21: int = 0

    @property
    def adder_units(self) -> int:
        """Full and half adders each count as one bit-adder unit."""
        return self.full_adders + self.half_adders

    @property
    def bitadder_equivalent(self) -> Fraction:
        """Adder units plus muxes converted at five muxes per adder."""
        return Fraction(self.adder_units) + Fraction(self.mux21, MUX_PER_ADDER)

    def __add__(self, other: "CircuitTally") -> "CircuitTally":
        """Unit counts add field by field (not as tuples concatenate)."""
        return CircuitTally(
            self.full_adders + other.full_adders,
            self.half_adders + other.half_adders,
            self.mux21 + other.mux21,
        )


# Each stage target is 3/2 of the last, rounded down, up to MAX_BITS.
_DADDA_SEQ = [2]
while _DADDA_SEQ[-1] < MAX_BITS:
    _DADDA_SEQ.append(_DADDA_SEQ[-1] * 3 // 2)


def _dadda_targets(max_height: int) -> List[int]:
    """Stage height targets below ``max_height``: 2, 3, 4, 6, 9, 13, ..."""
    return _DADDA_SEQ[:bisect_left(_DADDA_SEQ, max_height)]


def _partial_product_runs(i: int, j: int) -> List[Tuple[int, int]]:
    """Bits per AND-array column, least significant first, as (height,
    columns) runs: with m, n = min, max of (i, j), the single columns
    1 .. m-1, then (m, n-m+1), then the single columns m-1 .. 1."""
    m, n = (i, j) if i <= j else (j, i)
    rise = [(h, 1) for h in range(1, m)]
    return rise + [(m, n - m + 1)] + rise[::-1]


def _reduce_stage(runs: List[Tuple[int, int]], d: int
                  ) -> Tuple[List[Tuple[int, int]], int, int]:
    """One Dadda stage of target ``d`` over (height, columns) runs, by the
    run rule of ``dadda_stage_counts``; return (output runs, full adders,
    half adders).

    The first ``d`` runs are the single columns 1 .. d (the completion
    of a 1 x n multiplier: one run of height 1), which no stage changes
    (see ``dadda_stage_counts``), so they start the output as they are
    and the loop begins after them with no carry. It returns at the
    first run at most ``d`` high that takes no carry-in: only the falling
    edge holds one, and every run after it is a lower single column, so
    the rest of ``runs`` is the rest of the output.

    Every column the loop walks keeps exactly ``d`` bits: one above
    ``d`` is cut to ``d``, and one at most ``d`` high is walked only with
    a carry-in, which for every pair of widths in 1 .. ``MAX_BITS`` is a
    carry of one into a column ``d - 1`` high. So each walked column
    extends the output's last run, the single column of height ``d``,
    and the run the loop stops at is lower than ``d``: no stage starts a
    run of another height, and none merges the rest into its last run.
    The pinned digest and the stage shapes of every pair to 64 x 64 in
    ``tests/test_oracle.py`` hold the output to that."""
    out = runs[:d]
    full = half = carry = 0
    for n in range(d, len(runs)):
        h, k = runs[n]
        if h <= d and not carry:  # the falling edge: nothing left to do
            return out + runs[n:], full, half
        while k:
            t = h + carry
            if t <= d:
                fa = ha = 0
            else:
                fa, ha = divmod(t - d, 2)
            step = k if fa + ha == carry else 1
            full += fa * step
            half += ha * step
            out[-1] = (d, out[-1][1] + step)
            k -= step
            carry = fa + ha
    if carry:
        out.append((carry, 1))
    return out, full, half


def dadda_stage_counts(i: int, j: int) -> Tuple[CircuitTally, CircuitTally]:
    """Build the i x j multiplier; return (reduction, completion) tallies.

    Every stage of target d places adders greedily per column, from least
    significant to most significant, and its carries land one column left
    in the next stage's matrix. A column of t bits (its height plus its
    carry-in) at or below d passes through; above it, it gets exactly
    enough adders to keep d bits. Reduction runs the staged height
    sequence. Completion, a ripple-carry adder across the two surviving
    rows, is the stage of target 1: a column of 2 bits takes a half
    adder and one of 3 a full adder, and its final carry-out, the
    product's top bit, places no adder.

    The columns are carried as (height, columns) runs. A column's kept
    height, adders and carry-out depend only on its height, its carry-in
    and d, so once a column's carry-out equals its carry-in, every column
    left in its run sees the same three and repeats it: the rest of the
    run is added in one step (the kept height, plus its full and half
    adders times the run length). The placement is the per-column one.

    The trapezoid rises through the single columns 1 .. m-1, with m =
    min(i, j). Every reduction target is below m and carries only move
    left, so the d lowest columns of every stage input, the
    completion's included, still hold 1 .. d bits and take no carry-in:
    each keeps its height, places no adder and carries nothing. Each
    stage passes them through without walking them.

    The top edge passes through too. Every stage input, the
    completion's included, rises through the single columns 1 .. p-1
    to one highest run of height p, then falls through strictly lower
    single columns; ``tests/test_oracle.py`` pins that shape for every
    pair. Each target is below its input's highest run (the
    completion's 1 below 2, save 1 x n, whose one run passes as its
    lowest), so the first column at most d high with no carry-in lies
    on the fall. It keeps its height, places no adder and carries
    nothing, so the next column, lower still, takes no carry-in and does
    the same, and so on to the top: the stage stops walking there and
    appends the rest.
    """
    _require_int_widths(i, j)
    if not 1 <= i <= MAX_BITS or not 1 <= j <= MAX_BITS:
        raise OutOfRangeError(f"operand bits must be in [1, {MAX_BITS}]")

    runs = _partial_product_runs(i, j)
    red_fa = red_ha = 0
    for d in reversed(_dadda_targets(min(i, j))):
        runs, fa, ha = _reduce_stage(runs, d)
        red_fa += fa
        red_ha += ha
    if max(runs)[0] > 2:  # the highest run: a two-row adder takes 2
        raise AssertionError("reduction left a column higher than 2")
    _, cpa_fa, cpa_ha = _reduce_stage(runs, 1)
    return (CircuitTally(red_fa, red_ha), CircuitTally(cpa_fa, cpa_ha))


def dadda_adder_count(i: int, j: int) -> CircuitTally:
    """Total adder units in the Dadda multiplier with ripple completion."""
    reduction, completion = dadda_stage_counts(i, j)
    return reduction + completion


def verify_multiply_formula(max_bits: int = MAX_BITS
                            ) -> List[Tuple[int, int, int, Fraction]]:
    """Compare the construction with ``cost.ace_multiply`` for every pair
    up to ``max_bits``; return (i, j, built, predicted) mismatches."""
    _require_int_widths(max_bits)
    if not 1 <= max_bits <= MAX_BITS:
        raise OutOfRangeError(f"max_bits must be in [1, {MAX_BITS}]")
    fixed = list(map(NumericFormat.fixed, range(1, max_bits + 1)))
    mismatches = {}  # (i, j) -> (built, predicted)
    for i in range(1, max_bits + 1):
        for j in range(i, max_bits + 1):  # both sides are symmetric
            built = dadda_adder_count(i, j).adder_units
            predicted = cost.ace_multiply(fixed[i - 1], fixed[j - 1]).bitadders
            if built != predicted:
                mismatches[i, j] = mismatches[j, i] = (built, predicted)
    return [(i, j, *mismatches[i, j]) for i, j in sorted(mismatches)]


class FpAdderBreakdown(NamedTuple):
    """Stage-by-stage bit-adder cost of a floating-point adder with ``e``
    exponent bits and ``m`` mantissa bits.

    Values are floats because the two shift stages cost
    bits * log2(bits) / 5 with a real logarithm.
    """

    exponent_bits: int
    mantissa_bits: int
    exponent_subtraction: float
    operand_swapping: float
    alignment_limit: float
    alignment_shift: float
    significand_negation: float
    significand_addition: float
    significand_conversion: float
    normalization: float
    rounding_postnorm: float

    @property
    def components(self) -> Tuple[float, ...]:
        """The nine stage costs, in ``FP_ADDER_STAGES`` order."""
        return self[2:]

    @property
    def total(self) -> float:
        return sum(self.components)

    @property
    def total_bits(self) -> int:
        return self.exponent_bits + self.mantissa_bits + 1


# The nine stages, in data-path order: every field after the two widths.
FP_ADDER_STAGES = FpAdderBreakdown._fields[2:]


def fp_adder_breakdown(e: int, m: int) -> FpAdderBreakdown:
    """Cost out the nine stages of a floating-point adder.

    Exponent subtraction costs e; the swap mux is negligible; limiting
    the alignment amount and the significand add each cost one m-bit
    add; the alignment shift is an m-position barrel on m bits; sign
    negation is a single-bit subtract; two's-complement conversion takes
    two m-bit adds; normalization shifts across the e-coded range; the
    final round/post-normalize is one more m-bit add.
    """
    _require_int_widths(e, m)
    if not (2 <= e <= MAX_BITS and 2 <= m <= MAX_BITS):
        raise OutOfRangeError("exponent and mantissa bits must each be in "
                              f"[2, {MAX_BITS}], got {e} and {m}")
    return FpAdderBreakdown(
        exponent_bits=e,
        mantissa_bits=m,
        exponent_subtraction=float(e),
        operand_swapping=0.0,
        alignment_limit=float(m),
        alignment_shift=m * math.log2(m) / MUX_PER_ADDER,
        significand_negation=1.0,
        significand_addition=float(m),
        significand_conversion=2.0 * m,
        normalization=e * math.log2(e) / MUX_PER_ADDER,
        rounding_postnorm=float(m),
    )


def barrel_mux_count(i: int, j: int) -> CircuitTally:
    """2:1 multiplexer count of a barrel shifter moving an i-bit value
    across j positions: one mux per bit per stage, stage k moving the
    value 2**k places or none, until together they reach j - 1 places."""
    _require_int_widths(i, j)
    if i < 1:
        raise OutOfRangeError("need at least one data bit")
    if j < 2:
        raise OutOfRangeError("shift range must be at least 2")
    stages = reach = 0
    while reach < j - 1:
        reach += 2 ** stages
        stages += 1
    return CircuitTally(mux21=i * stages)


def barrel_matches_closed_form(i: int, j: int) -> bool:
    """The mux construction and the shift formula must agree exactly; the
    formula prices values of up to MAX_BITS data bits."""
    built = barrel_mux_count(i, j).bitadder_equivalent
    if i > MAX_BITS:
        raise OutOfRangeError(f"data bits must be in [1, {MAX_BITS}], got {i}")
    return built == cost.ace_shift(NumericFormat.fixed(i), j).bitadders
