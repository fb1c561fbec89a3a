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
from typing import Dict, List, Optional

from .cost import ADD, MAC, MULTIPLY, SHIFT
from .errors import MissingFormatError, MissingShapeError
from .formats import FP32, NumericFormat
from .ir import (
    COMPUTE_KINDS,
    Graph,
    KIND_ACTIVATION,
    KIND_ADD,
    KIND_BATCHNORM,
    KIND_DENSE,
    LayerNode,
    TensorShape,
    infer_shapes,
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


@dataclass(frozen=True)
class TallyEntry:
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

    def extend(self, other: "OpTally") -> None:
        self.entries.extend(other.entries)


def _census_compute(node: LayerNode, in_shape: TensorShape,
                    out_shape: TensorShape) -> List[TallyEntry]:
    category = CAT_DENSE if node.kind == KIND_DENSE else CAT_CONV
    weight_fmt = node.weight_format or FP32
    act_fmt = node.act_format or FP32
    # Each output element is a dot product over one output channel's weights.
    macs = out_shape.elements * weight_elements(node, in_shape) // out_shape.c
    entries: List[TallyEntry] = []

    pot_weights = node.quant is not None and node.quant.weight_quantizer == "pot"
    if pot_weights:
        if not weight_fmt.is_fixed:
            raise MissingFormatError(
                f"{node.id}: power-of-two weights need a fixed-point "
                f"weight_format, got {weight_fmt}")
        # One sign bit; the remaining code bits select the shift amount.
        shift_range = 2 ** (weight_fmt.total_bits - 1)
        entries.append(TallyEntry(node.id, SHIFT, macs, act_fmt, None,
                                  category, shift_range=shift_range))
        entries.append(TallyEntry(node.id, ADD, macs, act_fmt, act_fmt,
                                  category))
    else:
        entries.append(TallyEntry(node.id, MAC, macs, weight_fmt, act_fmt,
                                  category))

    if node.quant is not None and not pot_weights:
        vectors = node.quant.vectors_per_channel or 1
        count = vectors * out_shape.elements
        if node.quant.scale_is_pot:
            entries.append(TallyEntry(
                node.id, SHIFT, count, act_fmt, None, CAT_QUANT_SCALE,
                shift_range=max(2, act_fmt.total_bits)))
        else:
            scale_fmt = node.quant.scale_format
            entries.append(TallyEntry(node.id, MULTIPLY, count, scale_fmt,
                                      scale_fmt, CAT_QUANT_SCALE))
    return entries


def census_layer(node: LayerNode, in_shape: Optional[TensorShape],
                 out_shape: Optional[TensorShape]) -> List[TallyEntry]:
    """Tally one layer's arithmetic. Input/Output/Concat/Pool layers
    contribute nothing."""
    if node.kind in COMPUTE_KINDS:
        if in_shape is None or out_shape is None:
            raise MissingShapeError(f"{node.id}: shape not inferred")
        return _census_compute(node, in_shape, out_shape)

    if node.kind in (KIND_BATCHNORM, KIND_ACTIVATION, KIND_ADD) \
            and out_shape is None:
        raise MissingShapeError(f"{node.id}: shape not inferred")

    if node.kind == KIND_BATCHNORM:
        param_fmt = node.weight_format or FP32
        elems = out_shape.elements
        return [
            TallyEntry(node.id, MULTIPLY, elems, param_fmt, param_fmt,
                       CAT_BATCHNORM),
            TallyEntry(node.id, ADD, elems, param_fmt, param_fmt,
                       CAT_BATCHNORM),
        ]

    if node.kind == KIND_ACTIVATION:
        fn = node.params.get("activation", "relu")
        if fn == "relu":
            return []
        param_fmt = node.weight_format or FP32
        elems = out_shape.elements
        entries = [TallyEntry(node.id, MULTIPLY, elems, param_fmt, param_fmt,
                              CAT_ACTIVATION)]
        if fn == "dprelu":
            entries.append(TallyEntry(node.id, ADD, elems, param_fmt,
                                      param_fmt, CAT_ACTIVATION))
        return entries

    if node.kind == KIND_ADD:
        act_fmt = node.act_format or FP32
        return [TallyEntry(node.id, ADD, out_shape.elements, act_fmt, act_fmt,
                           CAT_SKIP)]

    return []


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
