"""Model graph IR: layers, shapes, connectivity, formats, quantization.

Graphs are plain dataclasses parsed from (and serialized back to) a
strict JSON schema, version 1:

    {
      "ir_version": 1,
      "name": "...",
      "input": {"n": 1, "h": 224, "w": 224, "c": 3},
      "nodes": [
        {"id": "...", "kind": "Conv2D", "params": {...}, "inputs": [...],
         "weight_format": {...}?, "act_format": {...}?, "quant": {...}?}
      ]
    }

Numeric formats encode as {"kind": "fixed"|"float"|"binary", "bits": n,
"exp": e?, "man": m?}, n, e, m integers. Unknown keys anywhere are errors.

A parsed graph is immutable by convention: validate it once, then share
it freely across threads for analysis. Its formats are shared immutable
objects, one per distinct format in the document.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    DanglingInputError,
    OutOfRangeError,
    ParseError,
    ShapeMismatchError,
    UnknownKindError,
)
from .formats import NumericFormat

IR_VERSION = 1

KIND_INPUT = "Input"
KIND_OUTPUT = "Output"
KIND_CONV = "Conv2D"
KIND_DWCONV = "DepthwiseConv2D"
KIND_PWCONV = "PointwiseConv2D"
KIND_DENSE = "Dense"
KIND_BATCHNORM = "BatchNorm"
KIND_ACTIVATION = "Activation"
KIND_ADD = "Add"
KIND_CONCAT = "Concat"
KIND_POOL = "Pool"

CONV_KINDS = (KIND_CONV, KIND_DWCONV, KIND_PWCONV)
COMPUTE_KINDS = CONV_KINDS + (KIND_DENSE,)

_ALL_KINDS = COMPUTE_KINDS + (
    KIND_INPUT, KIND_OUTPUT, KIND_BATCHNORM, KIND_ACTIVATION,
    KIND_ADD, KIND_CONCAT, KIND_POOL,
)

ACTIVATION_KINDS = ("relu", "prelu", "dprelu")

GRANULARITY_LAYERWISE = "layerwise"
GRANULARITY_CHANNELWISE = "channelwise"
GRANULARITY_SUBCHANNELWISE = "subchannelwise"

POT_SCALE = "pot"

_PARAM_KEYS = {
    KIND_CONV: {"kernel", "stride", "out_channels", "padding"},
    KIND_DWCONV: {"kernel", "stride", "padding"},
    KIND_PWCONV: {"kernel", "stride", "out_channels"},
    KIND_DENSE: {"units"},
    KIND_BATCHNORM: {"quantnorm"},
    KIND_ACTIVATION: {"activation"},
    KIND_POOL: {"pool", "kernel", "stride", "padding"},
    KIND_ADD: set(),
    KIND_CONCAT: set(),
    KIND_INPUT: set(),
    KIND_OUTPUT: set(),
}


@dataclass(frozen=True)
class TensorShape:
    """NHWC activation shape; weights are derived from layer params."""

    n: int
    h: int
    w: int
    c: int

    def __post_init__(self):
        if min(self.n, self.h, self.w, self.c) < 1:
            raise ParseError(f"shape dims must be >= 1, got {self}")

    @property
    def elements(self) -> int:
        return self.n * self.h * self.w * self.c

    def to_json(self) -> dict:
        return {"n": self.n, "h": self.h, "w": self.w, "c": self.c}


@dataclass(frozen=True)
class QuantizationAnnotation:
    """How a compute layer is quantized.

    granularity: scope of the scale factors; subchannelwise carries the
    number of scale vectors per channel.
    scale_format: "pot" for power-of-two scales (applied by shifting),
    or the numeric format the scale multiplication runs in.
    weight_quantizer: "linear" (affine grid, needs a scale) or "pot"
    (power-of-two levels, multiplications become shifts, no scale op).
    """

    granularity: str = GRANULARITY_CHANNELWISE
    scale_format: Union[str, NumericFormat] = None  # set in __post_init__
    weight_quantizer: str = "linear"
    vectors_per_channel: Optional[int] = None

    def __post_init__(self):
        if self.scale_format is None:
            from .formats import FP32
            object.__setattr__(self, "scale_format", FP32)
        if self.granularity not in (
                GRANULARITY_LAYERWISE, GRANULARITY_CHANNELWISE,
                GRANULARITY_SUBCHANNELWISE):
            raise ParseError(f"unknown granularity {self.granularity!r}")
        if self.weight_quantizer not in ("linear", "pot"):
            raise ParseError(
                f"unknown weight_quantizer {self.weight_quantizer!r}")
        if self.granularity == GRANULARITY_SUBCHANNELWISE:
            if self.vectors_per_channel is None or self.vectors_per_channel < 2:
                raise ParseError(
                    "subchannelwise quantization needs vectors_per_channel >= 2")
        elif self.vectors_per_channel is not None:
            raise ParseError(
                "vectors_per_channel is only valid for subchannelwise")

    @property
    def scale_is_pot(self) -> bool:
        return self.scale_format == POT_SCALE

    def to_json(self) -> dict:
        doc = {"granularity": self.granularity}
        if self.vectors_per_channel is not None:
            doc["vectors_per_channel"] = self.vectors_per_channel
        doc["scale"] = (POT_SCALE if self.scale_is_pot
                        else self.scale_format.to_json())
        doc["weight_quantizer"] = self.weight_quantizer
        return doc

    @staticmethod
    def from_json(doc: dict, path: str,
                  formats: dict) -> "QuantizationAnnotation":
        allowed = {"granularity", "vectors_per_channel", "scale",
                   "weight_quantizer"}
        _reject_unknown(doc, allowed, path)
        scale = doc.get("scale", POT_SCALE)
        if scale != POT_SCALE:
            scale = _parse_format(scale, f"{path}.scale", formats)
        return QuantizationAnnotation(
            granularity=doc.get("granularity", GRANULARITY_CHANNELWISE),
            scale_format=scale,
            weight_quantizer=doc.get("weight_quantizer", "linear"),
            vectors_per_channel=doc.get("vectors_per_channel"),
        )


@dataclass
class LayerNode:
    id: str
    kind: str
    params: dict = field(default_factory=dict)
    inputs: List[str] = field(default_factory=list)
    weight_format: Optional[NumericFormat] = None
    act_format: Optional[NumericFormat] = None
    quant: Optional[QuantizationAnnotation] = None

    def to_json(self) -> dict:
        doc = {"id": self.id, "kind": self.kind, "params": dict(self.params),
               "inputs": list(self.inputs)}
        if self.weight_format is not None:
            doc["weight_format"] = self.weight_format.to_json()
        if self.act_format is not None:
            doc["act_format"] = self.act_format.to_json()
        if self.quant is not None:
            doc["quant"] = self.quant.to_json()
        return doc


@dataclass
class Graph:
    name: str
    input_shape: TensorShape
    nodes: List[LayerNode]

    def __post_init__(self):
        self._index = {n.id: n for n in self.nodes}
        if len(self._index) != len(self.nodes):
            seen = set()
            for n in self.nodes:
                if n.id in seen:
                    raise ParseError(f"duplicate node id {n.id!r}")
                seen.add(n.id)

    def node(self, node_id: str) -> LayerNode:
        return self._index[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._index


@dataclass(frozen=True)
class Diagnostic:
    node_id: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.node_id}: [{self.rule}] {self.message}"


def _reject_unknown(doc: dict, allowed: set, path: str) -> None:
    if isinstance(doc, dict) and doc.keys() <= allowed:
        return
    for key in doc:
        if key not in allowed:
            raise ParseError(f"unknown key {key!r}", f"{path}.{key}")


_NODE_KEYS = frozenset({"id", "kind", "params", "inputs", "weight_format",
                        "act_format", "quant"})
_FORMAT_KEYS = frozenset({"kind", "bits", "exp", "man"})
_WIDTH_TYPES = (int, type(None))  # exp and man may be absent


def _parse_format(doc, path: str, formats: dict) -> NumericFormat:
    """The format ``doc`` describes, shared through ``formats``, one
    parse's memo keyed on type-checked values (8, 8.0 and true differ)."""
    if not isinstance(doc, dict):
        raise ParseError("format must be an object", path)
    _reject_unknown(doc, _FORMAT_KEYS, path)
    try:
        key = kind, bits, exp, man = (doc["kind"], doc["bits"],
                                      doc.get("exp"), doc.get("man"))
    except KeyError as exc:
        raise ParseError(f"missing format key {exc}", path) from exc
    if not (type(kind) is str and type(bits) is int
            and type(exp) in _WIDTH_TYPES and type(man) in _WIDTH_TYPES):
        raise ParseError("format kind must be a string, widths integers", path)
    fmt = formats.get(key)
    if fmt is None:
        try:
            fmt = formats[key] = NumericFormat(*key)
        except OutOfRangeError as exc:
            raise ParseError(str(exc), path) from exc
    return fmt


def _parse_node(doc: dict, path: str, formats: dict) -> LayerNode:
    _reject_unknown(doc, _NODE_KEYS, path)
    try:
        node_id = doc["id"]
        kind = doc["kind"]
    except KeyError as exc:
        raise ParseError(f"missing node key {exc}", path) from exc
    if kind not in _ALL_KINDS:
        raise UnknownKindError(f"unknown node kind {kind!r}", f"{path}.kind")
    params = doc.get("params", {})
    _reject_unknown(params, _PARAM_KEYS[kind], f"{path}.params")
    if kind == KIND_ACTIVATION:
        act = params.get("activation", "relu")
        if act not in ACTIVATION_KINDS:
            raise ParseError(f"unknown activation {act!r}",
                             f"{path}.params.activation")
    node = LayerNode(
        id=node_id,
        kind=kind,
        params=dict(params),
        inputs=list(doc.get("inputs", [])),
    )
    if "weight_format" in doc:
        node.weight_format = _parse_format(doc["weight_format"],
                                           f"{path}.weight_format", formats)
    if "act_format" in doc:
        node.act_format = _parse_format(doc["act_format"],
                                        f"{path}.act_format", formats)
    if "quant" in doc:
        node.quant = QuantizationAnnotation.from_json(
            doc["quant"], f"{path}.quant", formats)
    return node


def parse_graph(text: str) -> Graph:
    """Parse and structurally resolve a graph document (strict mode)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    _reject_unknown(doc, {"ir_version", "name", "input", "nodes"}, "$")
    if doc.get("ir_version") != IR_VERSION:
        raise ParseError(f"unsupported ir_version {doc.get('ir_version')!r}",
                         "$.ir_version")
    inp = doc.get("input")
    if not isinstance(inp, dict):
        raise ParseError("missing input shape", "$.input")
    _reject_unknown(inp, {"n", "h", "w", "c"}, "$.input")
    try:
        shape = TensorShape(**inp)
    except TypeError as exc:
        raise ParseError(f"bad input shape: {exc}", "$.input") from exc

    formats: Dict[tuple, NumericFormat] = {}
    nodes = [_parse_node(nd, f"$.nodes[{i}]", formats)
             for i, nd in enumerate(doc.get("nodes", []))]
    graph = Graph(name=doc.get("name", ""), input_shape=shape, nodes=nodes)

    for i, node in enumerate(graph.nodes):
        for ref in node.inputs:
            if ref not in graph:
                raise DanglingInputError(ref, f"$.nodes[{i}].inputs")
    return graph


def serialize_graph(g: Graph) -> str:
    """Canonical JSON rendering; parse(serialize(g)) == g and the byte
    stream is stable for golden-file diffs."""
    doc = {
        "ir_version": IR_VERSION,
        "name": g.name,
        "input": g.input_shape.to_json(),
        "nodes": [n.to_json() for n in g.nodes],
    }
    return json.dumps(doc, indent=2) + "\n"


def topological_order(g: Graph) -> List[LayerNode]:
    """Kahn topological sort, stable with respect to declaration order,
    in O((V + E) log V) with a heap keyed on declaration index. Raises
    DanglingInputError on an unresolved input, ParseError on cycles."""
    position = {n.id: i for i, n in enumerate(g.nodes)}
    indegree = [len(n.inputs) for n in g.nodes]
    consumers: List[List[int]] = [[] for _ in g.nodes]
    for i, node in enumerate(g.nodes):
        for ref in node.inputs:
            if ref not in position:
                raise DanglingInputError(ref)
            consumers[position[ref]].append(i)
    ready = [i for i, d in enumerate(indegree) if d == 0]  # sorted: a heap
    order: List[LayerNode] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(g.nodes[i])
        for consumer in consumers[i]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                heapq.heappush(ready, consumer)
    if len(order) != len(g.nodes):
        raise ParseError("graph contains a cycle")
    return order


def validate(g: Graph) -> List[Diagnostic]:
    """Structural diagnostics; an empty list means all invariants hold."""
    return validate_with_order(g)[0]


def validate_with_order(g: Graph) -> Tuple[List[Diagnostic], Optional[list]]:
    """``validate`` and the order its cycle check sorted (None if none)."""
    diags: List[Diagnostic] = []
    order = None

    for node in g.nodes:
        for ref in node.inputs:
            if ref not in g:
                diags.append(Diagnostic(node.id, "dangling-input",
                                        f"input {ref!r} does not resolve"))

    try:
        order = topological_order(g)
    except DanglingInputError:
        pass  # reported above
    except ParseError:
        diags.append(Diagnostic("<graph>", "dag-violation",
                                "graph contains a cycle"))

    for node in g.nodes:
        n_in = len(node.inputs)
        if node.kind == KIND_INPUT and n_in != 0:
            diags.append(Diagnostic(node.id, "input-arity",
                                    "Input nodes take no inputs"))
        if node.kind in (KIND_OUTPUT, KIND_BATCHNORM, KIND_ACTIVATION,
                         KIND_POOL) and n_in != 1:
            diags.append(Diagnostic(node.id, "single-input",
                                    f"{node.kind} takes exactly one input"))
        if node.kind in COMPUTE_KINDS and n_in != 1:
            diags.append(Diagnostic(node.id, "single-input",
                                    f"{node.kind} takes exactly one input"))
        if node.kind in (KIND_ADD, KIND_CONCAT) and n_in < 2:
            diags.append(Diagnostic(node.id, "merge-arity",
                                    f"{node.kind} needs at least two inputs"))
        if node.kind == KIND_PWCONV:
            kernel = node.params.get("kernel", [1, 1])
            if list(kernel) != [1, 1]:
                diags.append(Diagnostic(node.id, "pw-kernel-1x1",
                                        f"pointwise kernel must be 1x1, got {kernel}"))
        if node.kind == KIND_ACTIVATION:
            act = node.params.get("activation", "relu")
            if act not in ACTIVATION_KINDS:
                diags.append(Diagnostic(node.id, "activation-kind",
                                        f"unknown activation {act!r}"))
    return diags, order


def _spatial(extent: int, kernel: int, stride: int, padding: str,
             node_id: str) -> int:
    if padding == "same":
        return -(-extent // stride)  # ceil division
    if padding == "valid":
        if extent < kernel:
            raise ShapeMismatchError(node_id, "kernel larger than input")
        return (extent - kernel) // stride + 1
    raise ShapeMismatchError(node_id, f"unknown padding {padding!r}")


def infer_shapes(g: Graph, input_shape: Optional[TensorShape] = None,
                 order: Optional[List[LayerNode]] = None
                 ) -> Dict[str, TensorShape]:
    """Output shape of every node, walking in topological order (``order``
    if the caller already has it)."""
    shapes: Dict[str, TensorShape] = {}
    base = input_shape or g.input_shape

    for node in order or topological_order(g):
        ins = [shapes[ref] for ref in node.inputs]

        if node.kind == KIND_INPUT:
            shapes[node.id] = base
            continue
        if node.kind in (KIND_OUTPUT, KIND_BATCHNORM, KIND_ACTIVATION):
            shapes[node.id] = ins[0]
            continue
        if node.kind == KIND_ADD:
            if any(s != ins[0] for s in ins[1:]):
                raise ShapeMismatchError(
                    node.id, f"add inputs differ: {[str(s) for s in ins]}")
            shapes[node.id] = ins[0]
            continue
        if node.kind == KIND_CONCAT:
            head = ins[0]
            if any((s.n, s.h, s.w) != (head.n, head.h, head.w) for s in ins):
                raise ShapeMismatchError(node.id, "concat spatial dims differ")
            shapes[node.id] = TensorShape(head.n, head.h, head.w,
                                          sum(s.c for s in ins))
            continue

        src = ins[0]
        if node.kind == KIND_CONV:
            kh, kw = node.params["kernel"]
            stride = node.params.get("stride", 1)
            padding = node.params.get("padding", "same")
            shapes[node.id] = TensorShape(
                src.n,
                _spatial(src.h, kh, stride, padding, node.id),
                _spatial(src.w, kw, stride, padding, node.id),
                node.params["out_channels"],
            )
        elif node.kind == KIND_DWCONV:
            kh, kw = node.params["kernel"]
            stride = node.params.get("stride", 1)
            padding = node.params.get("padding", "same")
            shapes[node.id] = TensorShape(
                src.n,
                _spatial(src.h, kh, stride, padding, node.id),
                _spatial(src.w, kw, stride, padding, node.id),
                src.c,
            )
        elif node.kind == KIND_PWCONV:
            stride = node.params.get("stride", 1)
            shapes[node.id] = TensorShape(
                src.n,
                _spatial(src.h, 1, stride, "same", node.id),
                _spatial(src.w, 1, stride, "same", node.id),
                node.params["out_channels"],
            )
        elif node.kind == KIND_DENSE:
            shapes[node.id] = TensorShape(src.n, 1, 1, node.params["units"])
        elif node.kind == KIND_POOL:
            if node.params.get("pool", "global_avg") == "global_avg":
                shapes[node.id] = TensorShape(src.n, 1, 1, src.c)
            else:
                kh, kw = node.params["kernel"]
                stride = node.params.get("stride", 1)
                padding = node.params.get("padding", "same")
                shapes[node.id] = TensorShape(
                    src.n,
                    _spatial(src.h, kh, stride, padding, node.id),
                    _spatial(src.w, kw, stride, padding, node.id),
                    src.c,
                )
        else:  # pragma: no cover - kinds are closed above
            raise UnknownKindError(f"unhandled kind {node.kind!r}")
    return shapes


def weight_elements(node: LayerNode, in_shape: TensorShape) -> int:
    """Parameter count of one node (kernel weights, or 4 per channel for
    normalization layers; zero for everything else)."""
    if node.kind == KIND_CONV:
        kh, kw = node.params["kernel"]
        return kh * kw * in_shape.c * node.params["out_channels"]
    if node.kind == KIND_DWCONV:
        kh, kw = node.params["kernel"]
        return kh * kw * in_shape.c
    if node.kind == KIND_PWCONV:
        return in_shape.c * node.params["out_channels"]
    if node.kind == KIND_DENSE:  # per sample: weights do not grow with n
        return in_shape.elements // in_shape.n * node.params["units"]
    if node.kind == KIND_BATCHNORM:
        return 4 * in_shape.c
    return 0
