"""Numeric tensor-element formats: fixed-point, floating-point, binary.

A format carries just enough structure to price arithmetic on it: the
total bit width, and for floats the exponent/mantissa split (sign bit
excluded from the mantissa count).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Optional

from .errors import OutOfRangeError

FIXED = "fixed"
FLOAT = "float"
BINARY = "binary"

_KINDS = (FIXED, FLOAT, BINARY)

MAX_BITS = 64  # widest format, and so the widest operand the oracle builds


# A value type that checks its fields subclasses a ``namedtuple`` and
# checks them in ``__new__``, which a ``typing.NamedTuple`` body may not
# define. ``_replace`` and ``_make`` skip ``__new__`` and so the checks.
class NumericFormat(namedtuple("NumericFormat", ("kind", "total_bits",
                                                 "exponent_bits",
                                                 "mantissa_bits"))):
    """Representation of one tensor element: a named tuple, so it hashes
    and compares as the tuple of its fields.

    kind: "fixed", "float", or "binary".
    total_bits: full width including sign, in [1, MAX_BITS].
    exponent_bits / mantissa_bits: float only; exponent + mantissa + 1
    (sign) must equal total_bits.
    """

    __slots__ = ()

    def __new__(cls, kind: str, total_bits: int,
                exponent_bits: Optional[int] = None,
                mantissa_bits: Optional[int] = None) -> "NumericFormat":
        if kind not in _KINDS:
            raise OutOfRangeError(f"unknown format kind {kind!r}")
        for name, value in (("total_bits", total_bits),
                            ("exponent_bits", exponent_bits),
                            ("mantissa_bits", mantissa_bits)):
            # exactly int, as a parsed document must have it: 8.0 and
            # True compare equal to widths but print and serialize apart
            if type(value) is not int and (value is not None
                                           or name == "total_bits"):
                raise OutOfRangeError(
                    f"{name} must be an integer, got {value!r}")
        if not 1 <= total_bits <= MAX_BITS:
            raise OutOfRangeError(
                f"total_bits must be in [1, {MAX_BITS}], got {total_bits}")
        if kind == BINARY and total_bits != 1:
            raise OutOfRangeError("binary formats are exactly 1 bit wide")
        if kind == FLOAT:
            if exponent_bits is None or mantissa_bits is None:
                raise OutOfRangeError(
                    "float formats need exponent_bits and mantissa_bits")
            if exponent_bits + mantissa_bits + 1 != total_bits:
                raise OutOfRangeError(
                    "exponent_bits + mantissa_bits + 1 must equal total_bits")
        elif exponent_bits is not None or mantissa_bits is not None:
            raise OutOfRangeError(
                f"{kind} formats carry no exponent/mantissa split")
        return tuple.__new__(cls, (kind, total_bits, exponent_bits,
                                   mantissa_bits))

    @property
    def is_float(self) -> bool:
        return self.kind == FLOAT

    @property
    def is_fixed(self) -> bool:
        """True for integer-like operands (fixed-point or binary)."""
        return self.kind in (FIXED, BINARY)

    @staticmethod
    def fixed(bits: int) -> "NumericFormat":
        return NumericFormat(FIXED, bits)

    @staticmethod
    def binary() -> "NumericFormat":
        return NumericFormat(BINARY, 1)

    @staticmethod
    def flt(exponent_bits: int, mantissa_bits: int) -> "NumericFormat":
        return NumericFormat(FLOAT, exponent_bits + mantissa_bits + 1,
                             exponent_bits, mantissa_bits)

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "bits": self.total_bits}
        if self.kind == FLOAT:
            doc["exp"] = self.exponent_bits
            doc["man"] = self.mantissa_bits
        return doc

    def __str__(self) -> str:
        if self.kind == BINARY:
            return "binary"
        if self.kind == FLOAT:
            return f"fp{self.total_bits}"
        return f"int{self.total_bits}"


# The formats that appear throughout the cost tables.
FP32 = NumericFormat.flt(8, 23)
FP16 = NumericFormat.flt(5, 10)
INT32 = NumericFormat.fixed(32)
INT16 = NumericFormat.fixed(16)
INT8 = NumericFormat.fixed(8)
INT4 = NumericFormat.fixed(4)
INT2 = NumericFormat.fixed(2)
BIN = NumericFormat.binary()
