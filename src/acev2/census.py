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

A layer's shape, weights and census rows depend only on its kind,
params, formats, ``quant`` and input shapes, so ``layer_walk`` computes
each distinct layer once: real networks repeat blocks and branches. It
holds no node rule: every ``ir.LayerNode`` keeps them from the moment it
is made.
"""

from __future__ import annotations

from functools import partial
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple)

from .cost import ADD, MAC, MULTIPLY, SHIFT
from .errors import AceV2Error
from .formats import FP32, NumericFormat
from .ir import (
    CONV_KINDS,
    Graph,
    KIND_ACTIVATION,
    KIND_ADD,
    KIND_BATCHNORM,
    KIND_DENSE,
    KIND_OUTPUT,
    LayerNode,
    TensorShape,
    node_shape,
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
    so immutable and cheap to build. A census rule returns each as a row,
    the same tuple less its layer id: (op_class, count, format_a,
    format_b, category, shift_range)."""

    layer_id: str
    op_class: str
    count: int
    format_a: NumericFormat
    format_b: Optional[NumericFormat]
    category: str
    shift_range: Optional[int] = None


class OpTally(NamedTuple):
    """A graph's census entries in walk order, as a tuple."""

    entries: Tuple[TallyEntry, ...] = ()

    def count(self, op_class: Optional[str] = None,
              category: Optional[str] = None) -> int:
        return sum(
            e.count for e in self.entries
            if (op_class is None or e.op_class == op_class)
            and (category is None or e.category == category))


def _census_compute(category: str, node: LayerNode, in_shape: TensorShape,
                    out_shape: TensorShape, weights: int) -> List[tuple]:
    weight_fmt = node.weight_format or FP32
    act_fmt = node.act_format or FP32
    # Each output element is a dot product over one output channel's weights.
    macs = out_shape.elements * weights // out_shape.c
    quant = node.quant
    if quant is not None and quant.weight_quantizer == "pot":
        # One sign bit; the remaining code bits select the shift amount.
        return [(SHIFT, macs, act_fmt, None, category,
                 2 ** (weight_fmt.total_bits - 1)),
                (ADD, macs, act_fmt, act_fmt, category, None)]
    rows = [(MAC, macs, weight_fmt, act_fmt, category, None)]
    if quant is not None:
        count = (quant.vectors_per_channel or 1) * out_shape.elements
        if quant.scale_is_pot:
            rows.append((SHIFT, count, act_fmt, None, CAT_QUANT_SCALE,
                         max(2, act_fmt.total_bits)))
        else:
            rows.append((MULTIPLY, count, quant.scale_format,
                         quant.scale_format, CAT_QUANT_SCALE, None))
    return rows


def _batchnorm(node: LayerNode, in_shape: TensorShape,
               out_shape: TensorShape, weights: int) -> List[tuple]:
    fmt = node.weight_format or FP32
    n = out_shape.elements
    return [(MULTIPLY, n, fmt, fmt, CAT_BATCHNORM, None),
            (ADD, n, fmt, fmt, CAT_BATCHNORM, None)]


# Each activation function's ops per element.
_ACTIVATION_OPS = {"relu": (), "prelu": (MULTIPLY,), "dprelu": (MULTIPLY, ADD)}


def _activation(node: LayerNode, in_shape: TensorShape,
                out_shape: TensorShape, weights: int) -> List[tuple]:
    fmt = node.weight_format or FP32
    return [(op, out_shape.elements, fmt, fmt, CAT_ACTIVATION, None)
            for op in _ACTIVATION_OPS[node.params.get("activation", "relu")]]


def _skip_add(node: LayerNode, in_shape: TensorShape,
              out_shape: TensorShape, weights: int) -> List[tuple]:
    fmt = node.act_format or FP32
    return [(ADD, out_shape.elements, fmt, fmt, CAT_SKIP, None)]


# The arithmetic of every kind that does any, from (node, first input
# shape, output shape, weight elements per sample); the other kinds
# (Input, Output, Concat, Pool) only move data.
CENSUS_RULES: Dict[str, Callable] = {
    **dict.fromkeys(CONV_KINDS, partial(_census_compute, CAT_CONV)),
    KIND_DENSE: partial(_census_compute, CAT_DENSE),
    KIND_BATCHNORM: _batchnorm,
    KIND_ACTIVATION: _activation,
    KIND_ADD: _skip_add,
}


# Kinds whose output allocates no tensor: activation functions apply in
# place, and Output passes its input on.
IN_PLACE_KINDS = frozenset({KIND_ACTIVATION, KIND_OUTPUT})


class Layer(NamedTuple):
    """What one distinct layer computes, shared by every node that repeats
    it."""

    shape: TensorShape  # its output shape
    weights: int        # weight elements per sample; 0 with no inputs
    activations: int    # elements of the output it allocates
    rows: tuple         # its census entries, each less the layer id


def layer_walk(g: Graph) -> List[Tuple[LayerNode, Layer]]:
    """Every node of ``g`` in stable topological order with its layer,
    computed once per distinct layer. A graph declared in topological
    order is walked as declared: its shape lookups prove the order, which
    the stable sort would keep. At the first input naming a node not yet
    placed, the walk starts over on ``ir.topological_order(g)``. Errors
    come as if the sort came first: a cycle, then the first node in walk
    order whose shape fails (the sort keeps the declared prefix first).
    Every node kept the node rules when it was made (``ir.LayerNode``),
    so the walk checks none. A node's key is its kind, the identities of
    its params, formats and ``quant`` (``ir.share_blocks``: a parse and
    the zoo builders share one object per distinct block, and the graph
    keeps them alive) and its input shapes."""
    try:
        walk = _walk(g, g.nodes)
    except AceV2Error:
        topological_order(g)  # a cycle raises first
        raise
    return _walk(g, topological_order(g)) if walk is None else walk


def _walk(g: Graph, order: Iterable[LayerNode]
          ) -> Optional[List[Tuple[LayerNode, Layer]]]:
    """``layer_walk`` over the nodes of ``g`` in ``order``, or None at the
    first input naming a node not yet placed."""
    base = [g.input_shape]
    shapes: Dict[str, TensorShape] = {}
    shape_of = shapes.__getitem__
    memo: Dict[tuple, Layer] = {}
    walk = []
    for node in order:
        node_id, kind, params, inputs, weight_format, act_format, quant = node
        try:
            if len(inputs) == 1:  # most nodes: no list to unpack
                key = (kind, id(params), id(weight_format), id(act_format),
                       id(quant), shape_of(inputs[0]))
            else:
                key = (kind, id(params), id(weight_format), id(act_format),
                       id(quant), *map(shape_of, inputs))
        except KeyError:  # not placed yet: order is not topological
            return None
        layer = memo.get(key)
        if layer is None:
            ins = list(key[5:])  # the input shapes
            out = node_shape(g, node, ins or base)
            src = ins[0] if ins else None
            weights = weight_elements(node, src) if ins else 0
            rule = CENSUS_RULES.get(kind)
            layer = memo[key] = Layer(
                out, weights, 0 if kind in IN_PLACE_KINDS else out.elements,
                tuple(rule(node, src, out, weights)) if rule else ())
        shapes[node_id] = layer.shape
        walk.append((node, layer))
    return walk


def census_graph(g: Graph,
                 shapes: Optional[Dict[str, TensorShape]] = None) -> OpTally:
    """Tally the whole graph in stable topological order, each distinct
    layer counted once by ``layer_walk``. ``shapes`` is accepted from
    callers that still pass it and not read: the walk infers each
    distinct layer's shape itself."""
    return OpTally(tuple(TallyEntry(node.id, *row)
                         for node, layer in layer_walk(g)
                         for row in layer.rows))
