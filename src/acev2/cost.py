"""Closed-form bit-adder costs and the 45nm per-operation energy table.

The unit of cost is the *bit-adder*: a digital circuit that adds three
bits into a carry/sum pair. Costs are kept as exact rationals so that
fractional table values (12.8, 4.8, 1.6, 0.4) reproduce bit-exactly in
reports and regression diffs.

Cost model per operation class, for an i-bit and a j-bit operand:

  multiply (elementwise)   i*j - max(i, j)     multiplier tree plus the
                                               completion adder
  add, fixed-point         max(i, j)
  add, floating-point      6 * max(i, j)       exponent align, significand
                                               add, normalize (see oracle)
  shift                    i * ceil(log2(j)) / 5 over a j-position barrel
                                               (one full adder is worth
                                               five 2:1 multiplexers)
  multiply-accumulate      i * j               accumulation absorbed into
                                               the carry-save array

Measured 45nm energies exist for a subset of (class, width) pairs; the
rest extrapolate linearly in output width for adds and shifts and
linearly in the bit product (quadratic in width) for multiplies.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    DegenerateInputError,
    MixedKindError,
    UnsupportedExtrapolationError,
    UnsupportedOperandError,
)
from .formats import FP16, FP32, INT8, INT16, INT32, NumericFormat

MULTIPLY = "multiply"
ADD = "add"
SHIFT = "shift"
MAC = "mac"

# Floating-point adds cost this multiple of a fixed-point add of the
# same width; derived and bounded gate-by-gate in the oracle module.
FLOAT_ADD_FACTOR = 6

# One full adder is as expensive as five 2:1 multiplexers.
MUX_PER_ADDER = 5


class AceCost(namedtuple("AceCost", ("bitadders",))):
    """An exact bit-adder count. May be fractional for shifts."""

    __slots__ = ()

    def __new__(cls, bitadders: Fraction) -> "AceCost":
        if bitadders < 0:
            raise UnsupportedOperandError("negative bit-adder count")
        return tuple.__new__(cls, (bitadders,))

    def __float__(self) -> float:
        return float(self.bitadders)


class EnergyCost(namedtuple("EnergyCost", ("picojoules", "extrapolated"))):
    """Per-operation energy in picojoules at the 45nm node.

    ``extrapolated`` is True when the value came from a scaling law
    rather than a measured table cell.
    """

    __slots__ = ()

    def __new__(cls, picojoules: float,
                extrapolated: bool = False) -> "EnergyCost":
        if picojoules < 0:
            raise UnsupportedOperandError("negative energy")
        return tuple.__new__(cls, (picojoules, extrapolated))


def shift_stages(shift_range: int) -> int:
    """Number of 2:1 mux stages in a barrel shifter covering ``shift_range``
    positions. Exact log2 for powers of two; whole stages otherwise."""
    if shift_range < 2:
        raise UnsupportedOperandError("shift range must be at least 2")
    return (shift_range - 1).bit_length()


def ace_multiply(a: NumericFormat, b: NumericFormat) -> AceCost:
    """Bit-adders in a standalone elementwise multiply: i*j - max(i, j)."""
    i, j = a.total_bits, b.total_bits
    return AceCost(Fraction(i * j - max(i, j)))


def ace_add(a: NumericFormat, b: NumericFormat) -> AceCost:
    """Bit-adders in an elementwise add.

    Fixed-point (and binary) operands cost max(i, j); floating-point
    operands cost 6x that. Mixing the two families is rejected because
    the hardware would first have to convert one side.
    """
    if a.is_float != b.is_float:
        raise MixedKindError(
            f"cannot add {a} and {b}: mixed fixed/float operands")
    width = max(a.total_bits, b.total_bits)
    if a.is_float:
        return AceCost(Fraction(FLOAT_ADD_FACTOR * width))
    return AceCost(Fraction(width))


def ace_shift(value: NumericFormat, shift_range: int) -> AceCost:
    """Bit-adder equivalents of a barrel shift of ``value`` over
    ``shift_range`` positions: i * stages / 5."""
    if not value.is_fixed:
        raise UnsupportedOperandError(
            f"shift cost is defined for fixed-point values, got {value}")
    stages = shift_stages(shift_range)
    return AceCost(Fraction(value.total_bits * stages, MUX_PER_ADDER))


def ace_mac(weight: NumericFormat, act: NumericFormat) -> AceCost:
    """Bit-adders per multiply-accumulate: i*j, accumulation absorbed."""
    return AceCost(Fraction(weight.total_bits * act.total_bits))


# Measured 45nm energies, picojoules per op (Horowitz, "Computing's
# energy problem", ISSCC 2014), keyed by the arguments of the class's
# bit-adder formula.
_MULTIPLY_CELLS = {(FP32, FP32): 3.7, (FP16, FP16): 1.1,
                   (INT32, INT32): 3.1, (INT8, INT8): 0.2}
_ADD_CELLS = {(FP32, FP32): 0.9, (FP16, FP16): 0.4,
              (INT32, INT32): 0.1, (INT8, INT8): 0.03}
_SHIFT_CELLS = {(INT32, 32): 0.13, (INT16, 16): 0.057, (INT8, 8): 0.024}
_MEASURED_FLOATS = {f.total_bits: f for f in (FP16, FP32)}


def _pair_cell(op_class: str, a: NumericFormat,
               b: Optional[NumericFormat]) -> tuple:
    """The cell a two-operand op reads: its operands, or if it touches a
    float, the measured float of its widest float operand's width (bf16
    reads fp16); floats never extrapolate."""
    if b is None:
        raise UnsupportedOperandError(f"{op_class} energy needs two operands")
    width = max((f.total_bits for f in (a, b) if f.is_float), default=None)
    if width is None:
        return a, b
    if width not in _MEASURED_FLOATS:
        raise UnsupportedExtrapolationError(
            f"no measured {op_class} energy for {width}-bit floats")
    return (_MEASURED_FLOATS[width],) * 2


def _sum_cell(op_class, a, b):
    """An add reads the cell of its wider operand's width."""
    a, b = _pair_cell(op_class, a, b)
    return (a if a.total_bits >= b.total_bits else b,) * 2


def _shift_cell(op_class, value, shift_range):
    if not value.is_fixed:
        raise UnsupportedOperandError("shift energy needs a fixed operand")
    if shift_range is None:
        raise UnsupportedOperandError("shift energy needs a shift range")
    return value, shift_range


class OpRow(NamedTuple):
    """One op class. ``ace`` names its bit-adder formula, looked up in
    this module at each call; ``ranged`` formulas take a shift range, not
    a second format. ``cell`` maps an op's formula arguments to the
    measured cell it reads; an unmeasured op scales from the ``anchor``
    cell by its ``work``, factors multiplied in left to right."""

    ace: str
    ranged: bool
    cells: Dict[tuple, float]
    cell: Callable[..., tuple]
    work: Callable[..., Tuple[int, ...]]
    anchor: tuple


# Extrapolation scales linearly from the int8 cell for multiplies (in
# the bit product), the int32 cell for fixed-point adds (in output width)
# and the 8-bit, 8-place cell for shifts (in bits x stages).
OP_TABLE = {
    MULTIPLY: OpRow("ace_multiply", False, _MULTIPLY_CELLS, _pair_cell,
                    lambda a, b: (a.total_bits, b.total_bits), (INT8, INT8)),
    ADD: OpRow("ace_add", False, _ADD_CELLS, _sum_cell,
               lambda a, b: (max(a.total_bits, b.total_bits),),
               (INT32, INT32)),
    SHIFT: OpRow("ace_shift", True, _SHIFT_CELLS, _shift_cell,
                 lambda value, r: (value.total_bits * shift_stages(r),),
                 (INT8, 8)),
}
OP_TABLE[MAC] = OP_TABLE[MULTIPLY]._replace(ace="ace_mac")  # multiply energy

# Each measured cell beside its own class's bit-adder count (MACs read
# the multiply cells, so add none); the correlation between the two
# columns is the calibration check for the cost model.
TABLE_ACE_ENERGY_PAIRS = tuple(
    (globals()[OP_TABLE[c].ace](*key).bitadders, pj)
    for c in (MULTIPLY, ADD, SHIFT) for key, pj in OP_TABLE[c].cells.items())


def op_row(op_class: str) -> OpRow:
    if op_class not in OP_TABLE:
        raise UnsupportedOperandError(f"unknown op class {op_class!r}")
    return OP_TABLE[op_class]


def energy_of_op(
    op_class: str,
    a: NumericFormat,
    b: Optional[NumericFormat] = None,
    shift_range: Optional[int] = None,
) -> EnergyCost:
    """Energy of one operation: measured where tabulated, extrapolated
    otherwise.

    Extrapolation laws: adds scale linearly in output width, multiplies
    (and MACs, priced as multiplies) linearly in the bit product, shifts
    linearly in bits x stages. An operation touching a float operand is
    priced at that float's width and must be FP16 or FP32; other float
    widths have no measured anchor and raise.
    """
    row = op_row(op_class)
    key = row.cell(op_class, a, shift_range if row.ranged else b)
    if key in row.cells:
        return EnergyCost(row.cells[key])
    anchor = row.cells[row.anchor] / math.prod(row.work(*row.anchor))
    return EnergyCost(math.prod(row.work(*key), start=anchor),
                      extrapolated=True)


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson r between two equal-length sequences, by
    ``statistics.correlation``: imported here, so the graph path loads no
    ``statistics``."""
    import statistics
    try:
        return statistics.correlation(xs, ys)
    except statistics.StatisticsError as exc:
        raise DegenerateInputError(str(exc)) from None


def table_energy_correlation() -> float:
    """Correlation between the tabulated bit-adder counts and the
    independently measured energies."""
    aces, pjs = zip(*TABLE_ACE_ENERGY_PAIRS)
    return pearson_correlation(list(map(float, aces)), pjs)
