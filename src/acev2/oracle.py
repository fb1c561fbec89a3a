"""Gate-level constructions that independently check the closed forms.

Three separate constructions back the three cost formulas:

  * an unsigned Dadda multiplier (staged partial-product reduction with
    full/half adders, completed by a ripple-carry adder) checks
    i*j - max(i, j);
  * a component-by-component floating-point adder model checks that the
    factor-6 rule for float adds is an upper bound;
  * a mux-counted barrel shifter checks i * log2(j) / 5.

Everything here models unsigned magnitude arithmetic; full and half
adders both count as one bit-adder unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import List, Tuple

from .cost import MUX_PER_ADDER, ace_shift, shift_stages
from .errors import OutOfRangeError
from .formats import MAX_BITS, NumericFormat


def _require_int_widths(*widths) -> None:
    """Widths must be exactly int, the rule NumericFormat applies: 8.0
    and True compare equal to widths but would leak into the tallies."""
    for width in widths:
        if type(width) is not int:
            raise OutOfRangeError(
                f"bit widths must be integers, got {width!r}")


@dataclass(frozen=True)
class CircuitTally:
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
        return CircuitTally(
            self.full_adders + other.full_adders,
            self.half_adders + other.half_adders,
            self.mux21 + other.mux21,
        )


def _dadda_targets(max_height: int) -> List[int]:
    """Stage height targets below ``max_height``: 2, 3, 4, 6, 9, 13, ..."""
    seq = [2]
    while seq[-1] < max_height:
        seq.append(seq[-1] * 3 // 2)
    return [d for d in seq if d < max_height]


def _partial_product_heights(i: int, j: int) -> List[int]:
    # bits (a, b) with a + b == col, a < i, b < j
    return [min(col + 1, i, j, i + j - 1 - col) for col in range(i + j - 1)]


def dadda_stage_counts(i: int, j: int) -> Tuple[CircuitTally, CircuitTally]:
    """Build the i x j multiplier; return (reduction, completion) tallies.

    Reduction runs the staged height sequence, placing adders greedily
    per column from least significant to most significant; carries
    produced in a stage land one column left in the next stage's matrix.
    A column at or below the stage target d passes through; a column
    above it gets exactly enough adders to keep d bits, so each stage
    leaves no column higher than d. Completion ripples a carry-propagate
    adder across the two surviving rows.
    """
    _require_int_widths(i, j)
    if not 1 <= i <= MAX_BITS or not 1 <= j <= MAX_BITS:
        raise OutOfRangeError(f"operand bits must be in [1, {MAX_BITS}]")

    heights = _partial_product_heights(i, j)
    red_fa = red_ha = 0

    for d in reversed(_dadda_targets(max(heights))):
        nxt = []
        carry = 0
        for h in heights:
            t = h + carry
            if t <= d:
                nxt.append(t)
                carry = 0
            else:
                fa, ha = divmod(t - d, 2)
                red_fa += fa
                red_ha += ha
                nxt.append(d)
                carry = fa + ha
        if carry:
            nxt.append(carry)
        heights = nxt

    # Ripple-carry completion: one unit per column position the carry
    # chain touches; two inputs make a half adder, three a full adder.
    cpa_fa = cpa_ha = 0
    carry = 0
    for h in heights:
        t = h + carry
        if t >= 4:
            raise AssertionError("reduction left a column higher than 2")
        if t >= 2:
            if t == 3:
                cpa_fa += 1
            else:
                cpa_ha += 1
            carry = 1
        else:
            carry = 0

    return (CircuitTally(red_fa, red_ha), CircuitTally(cpa_fa, cpa_ha))


def dadda_adder_count(i: int, j: int) -> CircuitTally:
    """Total adder units in the Dadda multiplier with ripple completion."""
    reduction, completion = dadda_stage_counts(i, j)
    return reduction + completion


def multiply_formula(i: int, j: int) -> int:
    return i * j - max(i, j)


def verify_multiply_formula(max_bits: int = MAX_BITS) -> List[Tuple[int, int, int, int]]:
    """Compare the construction against i*j - max(i, j) for every pair
    up to ``max_bits``; return (i, j, built, predicted) mismatches."""
    _require_int_widths(max_bits)
    if not 1 <= max_bits <= MAX_BITS:
        raise OutOfRangeError(f"max_bits must be in [1, {MAX_BITS}]")
    mismatches = []
    for i in range(1, max_bits + 1):
        for j in range(1, max_bits + 1):
            built = dadda_adder_count(i, j).adder_units
            predicted = multiply_formula(i, j)
            if built != predicted:
                mismatches.append((i, j, built, predicted))
    return mismatches


@dataclass(frozen=True)
class FpAdderBreakdown:
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
        return tuple(getattr(self, name) for name in FP_ADDER_STAGES)

    @property
    def total(self) -> float:
        return sum(self.components)

    @property
    def total_bits(self) -> int:
        return self.exponent_bits + self.mantissa_bits + 1


# The nine stages, in data-path order: every field after the two widths.
FP_ADDER_STAGES = tuple(f.name for f in fields(FpAdderBreakdown))[2:]


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
    if e < 2 or m < 2:
        raise OutOfRangeError("need at least 2 exponent and 2 mantissa bits")
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
    across j positions: one mux per bit per stage."""
    _require_int_widths(i, j)
    if i < 1:
        raise OutOfRangeError("need at least one data bit")
    if j < 2:
        raise OutOfRangeError("shift range must be at least 2")
    return CircuitTally(mux21=i * shift_stages(j))


def barrel_matches_closed_form(i: int, j: int) -> bool:
    """The mux construction and the shift formula must agree exactly; the
    formula prices values of up to MAX_BITS data bits."""
    built = barrel_mux_count(i, j).bitadder_equivalent
    if i > MAX_BITS:
        raise OutOfRangeError(f"data bits must be in [1, {MAX_BITS}], got {i}")
    return built == ace_shift(NumericFormat.fixed(i), j).bitadders
