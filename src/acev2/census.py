"""Arithmetic-operation census over a shaped graph.

Walks every layer and tallies each arithmetic operation the layer
performs at inference time, together with the operand formats the
hardware would see. Conventions:

  * Convolutions and dense layers tally one MAC per kernel application
    at (weight format x activation format). A layer whose weights are
    power-of-two quantized performs no true multiplies; each MAC becomes
    a shift of the activation over the weight's exponent range plus an
    accumulation add at the activation width.
  * Quantization scaling is charged on the layer's output: one multiply
    per element at the scale format (two or more for sub-channelwise
    granularity), or a shift over the activation's positions when the
    scale is itself a power of two.
  * Batch normalization costs one multiply and one add per element at
    the parameter format: 32-bit float unless the node's weight_format
    lowers it.
  * Activations: relu is free; prelu multiplies by a learned slope;
    dprelu adds a learned offset on top.
  * Add nodes (skip connections) cost one add per output element; Concat
    and Pool move data but do no counted arithmetic.

Unannotated formats default to 32-bit float, so un-quantized layers
surface at their true (high) cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional

from .cost import ADD, MAC, MULTIPLY, SHIFT
from .errors import MissingFormatError, MissingShapeError, UnknownKindError
from .formats import FP32, NumericFormat
from .ir import (
    CONV_KINDS,
    Graph,
    KIND_ACTIVATION,
    KIND_ADD,
    KIND_BATCHNORM,
    KIND_DENSE,
    LayerNode,
    TensorShape,
    infer_shapes,
    pot_weight_problem,
    topological_order,
    weight_elements,
)

CAT_CONV = "conv"
CAT_DENSE = "dense"
CAT_BATCHNORM = "batchnorm"
CAT_ACTIVATION = "activation"
CAT_QUANT_SCALE = "quant_scale"
CAT_SKIP = "skip"

# Categories whose work is the dot-product core of the model; the rest
# is elementwise overhead.
MAC_CATEGORIES = frozenset({CAT_CONV, CAT_DENSE})


class TallyEntry(NamedTuple):
    """One kind of operation a layer performs, ``count`` times; a tuple,
    so immutable and cheap to build, one per census row."""

    layer_id: str
    op_class: str
    count: int
    format_a: NumericFormat
    format_b: Optional[NumericFormat]
    category: str
    shift_range: Optional[int] = None


@dataclass
class OpTally:
    entries: List[TallyEntry] = field(default_factory=list)

    def count(self, op_class: Optional[str] = None,
              category: Optional[str] = None) -> int:
        return sum(
            e.count for e in self.entries
            if (op_class is None or e.op_class == op_class)
            and (category is None or e.category == category))


def _census_compute(category: str, node: LayerNode, in_shape: TensorShape,
                    out_shape: TensorShape) -> List[TallyEntry]:
    weight_fmt = node.weight_format or FP32
    act_fmt = node.act_format or FP32
    # Each output element is a dot product over one output channel's weights.
    macs = out_shape.elements * weight_elements(node, in_shape) // out_shape.c
    quant = node.quant
    if quant is not None and quant.weight_quantizer == "pot":
        problem = pot_weight_problem(weight_fmt)
        if problem:
            raise MissingFormatError(f"{node.id}: {problem}")
        # One sign bit; the remaining code bits select the shift amount.
        return [TallyEntry(node.id, SHIFT, macs, act_fmt, None, category,
                           shift_range=2 ** (weight_fmt.total_bits - 1)),
                TallyEntry(node.id, ADD, macs, act_fmt, act_fmt, category)]
    entries = [TallyEntry(node.id, MAC, macs, weight_fmt, act_fmt, category)]
    if quant is not None:
        count = (quant.vectors_per_channel or 1) * out_shape.elements
        if quant.scale_is_pot:
            entries.append(TallyEntry(
                node.id, SHIFT, count, act_fmt, None, CAT_QUANT_SCALE,
                shift_range=max(2, act_fmt.total_bits)))
        else:
            entries.append(TallyEntry(node.id, MULTIPLY, count,
                                      quant.scale_format, quant.scale_format,
                                      CAT_QUANT_SCALE))
    return entries


def _batchnorm(node: LayerNode, in_shape: TensorShape,
               out_shape: TensorShape) -> List[TallyEntry]:
    fmt = node.weight_format or FP32
    n = out_shape.elements
    return [TallyEntry(node.id, MULTIPLY, n, fmt, fmt, CAT_BATCHNORM),
            TallyEntry(node.id, ADD, n, fmt, fmt, CAT_BATCHNORM)]


# Each activation function's ops per element.
_ACTIVATION_OPS = {"relu": (), "prelu": (MULTIPLY,), "dprelu": (MULTIPLY, ADD)}


def _activation(node: LayerNode, in_shape: TensorShape,
                out_shape: TensorShape) -> List[TallyEntry]:
    fn = node.params.get("activation", "relu")
    if fn not in _ACTIVATION_OPS:  # parse rejects it; a graph built in code
        raise UnknownKindError(f"{node.id}: unknown activation {fn!r}")
    fmt = node.weight_format or FP32
    return [TallyEntry(node.id, op, out_shape.elements, fmt, fmt,
                       CAT_ACTIVATION) for op in _ACTIVATION_OPS[fn]]


def _skip_add(node: LayerNode, in_shape: TensorShape,
              out_shape: TensorShape) -> List[TallyEntry]:
    fmt = node.act_format or FP32
    return [TallyEntry(node.id, ADD, out_shape.elements, fmt, fmt, CAT_SKIP)]


# The arithmetic of every kind that does any; the other kinds (Input,
# Output, Concat, Pool) only move data.
CENSUS_RULES: Dict[str, Callable] = {
    **dict.fromkeys(CONV_KINDS, partial(_census_compute, CAT_CONV)),
    KIND_DENSE: partial(_census_compute, CAT_DENSE),
    KIND_BATCHNORM: _batchnorm,
    KIND_ACTIVATION: _activation,
    KIND_ADD: _skip_add,
}


def census_layer(node: LayerNode, in_shape: Optional[TensorShape],
                 out_shape: Optional[TensorShape]) -> List[TallyEntry]:
    """Tally one layer's arithmetic by its kind's census rule."""
    rule = CENSUS_RULES.get(node.kind)
    if rule is None:
        return []
    if in_shape is None or out_shape is None:
        raise MissingShapeError(f"{node.id}: shape not inferred")
    return rule(node, in_shape, out_shape)


def census_graph(g: Graph,
                 shapes: Optional[Dict[str, TensorShape]] = None,
                 order: Optional[List[LayerNode]] = None) -> OpTally:
    """Tally the whole graph in stable topological order (``order`` if the
    caller already has it)."""
    order = order or topological_order(g)
    if shapes is None:
        shapes = infer_shapes(g, None, order)
    tally = OpTally()
    for node in order:
        in_shape = shapes[node.inputs[0]] if node.inputs else None
        tally.entries.extend(census_layer(node, in_shape, shapes[node.id]))
    return tally
