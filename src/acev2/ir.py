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

What the IR knows about a node kind lives in its ``KIND_RULES`` entry:
the params it may and must carry, its arity, its output shape and its
per-sample weight count (a compute layer's MACs follow from the weights).
Parsing, validation, shape inference and ``weight_elements`` read the
table, so adding a kind is one entry there. A param name means the same
for every kind that takes it: ``_PARAM_CHECKS`` holds one type and range
check per name, applied at parse time.

A parsed graph is immutable by convention: validate it once, then share
it freely across threads for analysis. Its formats are shared immutable
objects, one per distinct format in the document.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from math import prod
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Tuple, Union)

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

ACTIVATION_KINDS = ("relu", "prelu", "dprelu")

GRANULARITY_LAYERWISE = "layerwise"
GRANULARITY_CHANNELWISE = "channelwise"
GRANULARITY_SUBCHANNELWISE = "subchannelwise"

POT_SCALE = "pot"


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
        if not isinstance(doc, dict):
            raise ParseError("quant must be an object", path)
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


def _spatial(extent: int, kernel: int, stride: int, padding: str,
             node_id: str) -> int:
    if padding == "same":
        return -(-extent // stride)  # ceil division
    if padding == "valid":
        if extent < kernel:
            raise ShapeMismatchError(node_id, "kernel larger than input")
        return (extent - kernel) // stride + 1
    raise ShapeMismatchError(node_id, f"unknown padding {padding!r}")


def _window(node: LayerNode, src: TensorShape, channels: int,
            kernel=None, padding=None) -> TensorShape:
    """A window slid over ``src`` at the node's stride, giving ``channels``
    channels; ``kernel`` and ``padding`` fix what a kind does not take."""
    kh, kw = kernel or node.params["kernel"]
    stride = node.params.get("stride", 1)
    padding = padding or node.params.get("padding", "same")
    return TensorShape(src.n, _spatial(src.h, kh, stride, padding, node.id),
                       _spatial(src.w, kw, stride, padding, node.id), channels)


def _same(node: LayerNode, ins: List[TensorShape]) -> TensorShape:
    return ins[0]


def _add(node: LayerNode, ins: List[TensorShape]) -> TensorShape:
    if any(s != ins[0] for s in ins[1:]):
        raise ShapeMismatchError(
            node.id, f"add inputs differ: {[str(s) for s in ins]}")
    return ins[0]


def _concat(node: LayerNode, ins: List[TensorShape]) -> TensorShape:
    head = ins[0]
    if any((s.n, s.h, s.w) != (head.n, head.h, head.w) for s in ins):
        raise ShapeMismatchError(node.id, "concat spatial dims differ")
    return TensorShape(head.n, head.h, head.w, sum(s.c for s in ins))


def _pool(node: LayerNode, ins: List[TensorShape]) -> TensorShape:
    src = ins[0]
    if node.params.get("pool", "global_avg") == "global_avg":
        return TensorShape(src.n, 1, 1, src.c)
    return _window(node, src, src.c)


# A kind's arity is its input count, where ARITY_MERGE means two or more.
ARITY_NONE, ARITY_ONE, ARITY_MERGE = 0, 1, 2
_ARITY_DIAGNOSTICS = {  # arity -> (rule, message formatted with the kind)
    ARITY_NONE: ("input-arity", "{} nodes take no inputs"),
    ARITY_ONE: ("single-input", "{} takes exactly one input"),
    ARITY_MERGE: ("merge-arity", "{} needs at least two inputs"),
}


class KindRule(NamedTuple):
    """Everything the IR knows about one node kind."""

    params: FrozenSet[str]    # the param keys a node may carry
    required: FrozenSet[str]  # the ones a document must give
    arity: int
    # (node, input shapes; for Input the graph's) -> output shape
    shape: Callable[[LayerNode, List[TensorShape]], TensorShape]
    # (node, first input shape) -> weights per sample
    weights: Callable[[LayerNode, TensorShape], int] = lambda node, src: 0


_NONE = frozenset()
_WINDOW = frozenset({"kernel", "stride", "padding"})

KIND_RULES: Dict[str, KindRule] = {
    KIND_INPUT: KindRule(_NONE, _NONE, ARITY_NONE, _same),
    KIND_OUTPUT: KindRule(_NONE, _NONE, ARITY_ONE, _same),
    KIND_CONV: KindRule(
        _WINDOW | {"out_channels"}, frozenset({"kernel", "out_channels"}),
        ARITY_ONE,
        lambda node, ins: _window(node, ins[0], node.params["out_channels"]),
        lambda node, src: (prod(node.params["kernel"]) * src.c
                           * node.params["out_channels"])),
    KIND_DWCONV: KindRule(
        _WINDOW, frozenset({"kernel"}), ARITY_ONE,
        lambda node, ins: _window(node, ins[0], ins[0].c),
        lambda node, src: prod(node.params["kernel"]) * src.c),
    KIND_PWCONV: KindRule(  # a 1x1 kernel: validate rejects any other
        frozenset({"kernel", "stride", "out_channels"}),
        frozenset({"out_channels"}), ARITY_ONE,
        lambda node, ins: _window(node, ins[0], node.params["out_channels"],
                                  (1, 1), "same"),
        lambda node, src: src.c * node.params["out_channels"]),
    KIND_DENSE: KindRule(  # weights per sample: they do not grow with n
        frozenset({"units"}), frozenset({"units"}), ARITY_ONE,
        lambda node, ins: TensorShape(ins[0].n, 1, 1, node.params["units"]),
        lambda node, src: src.elements // src.n * node.params["units"]),
    KIND_BATCHNORM: KindRule(frozenset({"quantnorm"}), _NONE, ARITY_ONE,
                             _same, lambda node, src: 4 * src.c),
    KIND_ACTIVATION: KindRule(frozenset({"activation"}), _NONE, ARITY_ONE,
                              _same),
    KIND_ADD: KindRule(_NONE, _NONE, ARITY_MERGE, _add),
    KIND_CONCAT: KindRule(_NONE, _NONE, ARITY_MERGE, _concat),
    KIND_POOL: KindRule(_WINDOW | {"pool"}, _NONE, ARITY_ONE, _pool),
}


def _positive_int(value) -> bool:
    return type(value) is int and value > 0


# One check per param name, the same for every kind that takes it:
# name -> (accepts the value, what it must be).
_PARAM_CHECKS = {
    "kernel": (lambda v: type(v) is list and len(v) == 2
               and all(map(_positive_int, v)),
               "a list of two positive integers"),
    "stride": (_positive_int, "a positive integer"),
    "out_channels": (_positive_int, "a positive integer"),
    "units": (_positive_int, "a positive integer"),
    "padding": (lambda v: v in ("same", "valid"), '"same" or "valid"'),
    "pool": (lambda v: type(v) is str, "a string"),
    "activation": (lambda v: v in ACTIVATION_KINDS,
                   "one of " + ", ".join(ACTIVATION_KINDS)),
    "quantnorm": (lambda v: type(v) is bool, "true or false"),
}


def _rule_of(node: LayerNode) -> KindRule:
    rule = KIND_RULES.get(node.kind)
    if rule is None:
        raise UnknownKindError(f"unhandled kind {node.kind!r}")
    return rule


def _reject_unknown(doc: dict, allowed: set, path: str) -> None:
    if doc.keys() <= allowed:
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


def _check_params(params, rule: KindRule, path: str) -> None:
    if not isinstance(params, dict):
        raise ParseError("params must be an object", path)
    for key, value in params.items():
        if key not in rule.params:
            raise ParseError(f"unknown key {key!r}", f"{path}.{key}")
        accepts, expected = _PARAM_CHECKS[key]
        if not accepts(value):
            raise ParseError(f"{key} must be {expected}, got {value!r}",
                             f"{path}.{key}")
    required = rule.required
    if params.get("pool", "global_avg") != "global_avg":
        required = required | {"kernel"}  # a windowed pool
    if not params.keys() >= required:
        key = min(required - params.keys())
        raise ParseError(f"missing param {key!r}", f"{path}.{key}")


def _parse_node(doc, path: str, formats: dict) -> LayerNode:
    if not isinstance(doc, dict):
        raise ParseError("node must be an object", path)
    _reject_unknown(doc, _NODE_KEYS, path)
    try:
        node_id = doc["id"]
        kind = doc["kind"]
    except KeyError as exc:
        raise ParseError(f"missing node key {exc}", path) from exc
    if type(node_id) is not str:
        raise ParseError("node id must be a string", f"{path}.id")
    rule = KIND_RULES.get(kind) if type(kind) is str else None
    if rule is None:
        raise UnknownKindError(f"unknown node kind {kind!r}", f"{path}.kind")
    params = doc.get("params", {})
    _check_params(params, rule, f"{path}.params")
    inputs = doc.get("inputs", [])
    if type(inputs) is not list:  # parse_graph resolves each entry
        raise ParseError("inputs must be a list", f"{path}.inputs")
    # The document is this parse's own, so the node takes its containers.
    node = LayerNode(id=node_id, kind=kind, params=params, inputs=inputs)
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
    version = doc.get("ir_version")
    if type(version) is not int or version != IR_VERSION:
        raise ParseError(f"unsupported ir_version {version!r}", "$.ir_version")
    inp = doc.get("input")
    if not isinstance(inp, dict):
        raise ParseError("missing input shape", "$.input")
    _reject_unknown(inp, {"n", "h", "w", "c"}, "$.input")
    try:
        shape = TensorShape(**inp)
    except TypeError as exc:
        raise ParseError(f"bad input shape: {exc}", "$.input") from exc

    docs = doc.get("nodes", [])
    if not isinstance(docs, list):
        raise ParseError("nodes must be a list", "$.nodes")
    formats: Dict[tuple, NumericFormat] = {}
    nodes = [_parse_node(nd, f"$.nodes[{i}]", formats)
             for i, nd in enumerate(docs)]
    graph = Graph(name=doc.get("name", ""), input_shape=shape, nodes=nodes)

    for i, node in enumerate(graph.nodes):
        for ref in node.inputs:  # a ref that resolves is a string, like ids
            if type(ref) is not str or ref not in graph:
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
        rule = KIND_RULES.get(node.kind)  # unknown kinds fail shape inference
        if rule and min(len(node.inputs), ARITY_MERGE) != rule.arity:
            check, message = _ARITY_DIAGNOSTICS[rule.arity]
            diags.append(Diagnostic(node.id, check, message.format(node.kind)))
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


def infer_shapes(g: Graph, input_shape: Optional[TensorShape] = None,
                 order: Optional[List[LayerNode]] = None
                 ) -> Dict[str, TensorShape]:
    """Output shape of every node by its kind's rule, walking in
    topological order (``order`` if the caller already has it)."""
    shapes: Dict[str, TensorShape] = {}
    base = [input_shape or g.input_shape]
    for node in order or topological_order(g):
        shapes[node.id] = _rule_of(node).shape(
            node, [shapes[ref] for ref in node.inputs] or base)
    return shapes


def weight_elements(node: LayerNode, in_shape: TensorShape) -> int:
    """Parameter count of one node per sample (kernel weights, or 4 per
    channel for normalization layers; zero for everything else)."""
    return _rule_of(node).weights(node, in_shape)
