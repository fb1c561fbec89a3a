"""Model graph IR: layers, shapes, connectivity, formats, quantization.

A ``Graph`` is a named tuple of a name, an input shape and a tuple of
``LayerNode`` named tuples; shapes, formats and quantization annotations
are named tuples too. Graphs are parsed from (and serialized back to) a
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
check per name. Every rule a single node must keep is found by one
function, ``_node_problem``, and checked at one site: ``LayerNode``
raises what it finds whenever a node is made, by ``LayerNode(...)``,
``_replace``, a copy or an unpickling, at the node-relative path (such
as ``.params.kernel``). ``parse_graph`` and ``share_blocks`` make the
first node of each distinct body and arity that way, and copy it for
the nodes that repeat it; a parse re-raises a node's error at its
``$.nodes[i]``. So every node of every graph keeps the node rules, and
nothing downstream checks them again.

A parse error names its JSON path, such as
``$.nodes[3].quant.vectors_per_channel``; the path is formatted only when
the error is raised, so a valid node pays for no path strings.

A graph checks its own references when it is made, parsed or built:
its ids are unique and each input names a node. Only the cycle check,
which the first walk or sort makes, and the shapes are left, and the
checks hold: a graph's fields cannot be reassigned, a node is a named
tuple, its params a read-only view of its own dict, its kernel a tuple,
and its inputs a tuple. So a graph can be shared freely
across threads for analysis. A parsed graph's formats and quantization
annotations are shared objects, one per distinct format or ``quant``
document in the graph, and its params one per distinct node body; two
parses share none, and ``share_blocks`` gives nodes built in code the
same sharing. To edit a graph, build a new one of nodes edited with
``node._replace(...)``, or ``graph._replace(nodes=...)``.
"""

from __future__ import annotations

import heapq
import json
import marshal
from collections import namedtuple
from itertools import chain
from math import prod
from operator import methodcaller
from types import MappingProxyType
from typing import (Callable, Dict, FrozenSet, Iterable, List, Mapping,
                    NamedTuple, Optional, Tuple, Union)

from .errors import (
    DanglingInputError,
    OutOfRangeError,
    ParseError,
    ShapeMismatchError,
    UnknownKindError,
)
from .formats import FP32, NumericFormat

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


class TensorShape(namedtuple("TensorShape", ("n", "h", "w", "c"))):
    """NHWC activation shape of positive int dims, as a parse takes them;
    weights are derived from layer params. It prints as ``1x8x8x3``."""

    __slots__ = ()

    def __new__(cls, n: int, h: int, w: int, c: int) -> "TensorShape":
        shape = tuple.__new__(cls, (n, h, w, c))
        if not (type(n) is type(h) is type(w) is type(c) is int
                and min(shape) > 0):
            for key, value in zip(cls._fields, shape):
                if not _positive_int(value):
                    raise ParseError(
                        f"{key} must be a positive integer, got {value!r}")
        return shape

    def __str__(self) -> str:
        return f"{self.n}x{self.h}x{self.w}x{self.c}"

    elements = property(prod)  # n * h * w * c, with no Python frame

    def to_json(self) -> dict:
        return {"n": self.n, "h": self.h, "w": self.w, "c": self.c}


GRANULARITIES = (GRANULARITY_LAYERWISE, GRANULARITY_CHANNELWISE,
                 GRANULARITY_SUBCHANNELWISE)
_WEIGHT_QUANTIZERS = ("linear", "pot")


def _quant_problem(granularity, weight_quantizer,
                   vectors) -> Optional[Tuple[str, str]]:
    """The first bad field of a quantization annotation and what is wrong
    with it, or None. Only strings pass the membership tests, so a field
    that passes is also hashable."""
    if granularity not in GRANULARITIES:
        return "granularity", f"unknown granularity {granularity!r}"
    if weight_quantizer not in _WEIGHT_QUANTIZERS:
        return ("weight_quantizer",
                f"unknown weight_quantizer {weight_quantizer!r}")
    if vectors is not None and type(vectors) is not int:
        return ("vectors_per_channel",
                f"vectors_per_channel must be an integer, got {vectors!r}")
    if granularity == GRANULARITY_SUBCHANNELWISE:
        if vectors is None or vectors < 2:
            return ("vectors_per_channel", "subchannelwise quantization "
                    "needs vectors_per_channel >= 2")
    elif vectors is not None:
        return ("vectors_per_channel",
                "vectors_per_channel is only valid for subchannelwise")
    return None


class QuantizationAnnotation(namedtuple(
        "QuantizationAnnotation", ("granularity", "scale_format",
                                   "weight_quantizer", "vectors_per_channel"))):
    """How a compute layer is quantized.

    granularity: scope of the scale factors; subchannelwise carries the
    number of scale vectors per channel.
    scale_format: "pot" for power-of-two scales (applied by shifting),
    or the numeric format the scale multiplication runs in.
    weight_quantizer: "linear" (affine grid, needs a scale) or "pot"
    (power-of-two levels, multiplications become shifts, no scale op).
    """

    __slots__ = ()

    def __new__(cls, granularity: str = GRANULARITY_CHANNELWISE,
                scale_format: Union[str, NumericFormat, None] = None,
                weight_quantizer: str = "linear",
                vectors_per_channel: Optional[int] = None
                ) -> "QuantizationAnnotation":
        problem = _quant_problem(granularity, weight_quantizer,
                                 vectors_per_channel)
        if problem:
            raise ParseError(problem[1])
        return tuple.__new__(cls, (
            granularity, FP32 if scale_format is None else scale_format,
            weight_quantizer, vectors_per_channel))

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


class LayerNode(namedtuple("LayerNode", ("id", "kind", "params", "inputs",
                                         "weight_format", "act_format",
                                         "quant"))):
    """One node of a graph: a named tuple, so it cannot change in place.
    ``params`` is a read-only view of a copy of the mapping given, its
    kernel a tuple, and ``inputs`` a tuple. A node keeps the node rules
    (``_node_problem``) from the moment it is made: the first rule it
    breaks raises an ``UnknownKindError`` (``.kind``) or a ``ParseError``
    at its path in the node, such as ``.params.kernel``. ``_replace``, a
    copy and an unpickling make their node as ``LayerNode(...)`` does."""

    __slots__ = ()

    def __new__(cls, id: str, kind: str, params: Optional[Mapping] = None,
                inputs: Optional[Iterable[str]] = None,
                weight_format: Optional[NumericFormat] = None,
                act_format: Optional[NumericFormat] = None,
                quant: Optional[QuantizationAnnotation] = None
                ) -> "LayerNode":
        params = dict(params or {})  # the node's own, seen through a view
        node = tuple.__new__(cls, (id, kind, MappingProxyType(params),
                                   tuple(inputs or ()), weight_format,
                                   act_format, quant))
        problem = _node_problem(node)
        if problem:
            where, message = problem  # only an unknown kind is at .kind
            error = UnknownKindError if where == ".kind" else ParseError
            raise error(message, where)
        if type(params.get("kernel")) is list:  # checked: freeze it too
            params["kernel"] = tuple(params["kernel"])
        return node

    @classmethod
    def _make(cls, fields: Iterable) -> "LayerNode":
        return cls(*fields)

    def __reduce__(self):
        """A read-only view cannot be pickled or copied: a copy of the
        node holds a copy of its params (``Graph.__reduce__`` shares
        them again)."""
        return self.__class__, (*self[:2], dict(self.params), *self[3:])


class Graph(namedtuple("Graph", ("name", "input_shape", "nodes"))):
    """A name and a tuple of nodes over an input shape: a named tuple, so
    its fields cannot be reassigned. Its references are checked as a
    parse checks them, and a fault raises the parse's error at the
    parse's path: first the first repeated id, at ``$.nodes[i].id``, then
    the first input that names no node (in a parse, where ids are
    strings, any input that is not one), a ``DanglingInputError`` at
    ``$.nodes[i].inputs``. ``_replace`` checks the graph it makes. A
    graph has no attributes but its fields. A copy or a pickle shares
    its nodes' blocks as the graph does (``share_blocks``)."""

    __slots__ = ()

    def __new__(cls, name: str, input_shape: TensorShape,
                nodes: Iterable[LayerNode]) -> "Graph":
        nodes = tuple(nodes)
        ids = {node.id for node in nodes}
        if len(ids) != len(nodes):
            seen = set()
            for i, node in enumerate(nodes):
                if node.id in seen:
                    raise ParseError(f"duplicate node id {node.id!r}",
                                     _at(i, ".id"))
                seen.add(node.id)
        try:  # every input in one set test; the loop finds a fault
            resolved = ids.issuperset(chain.from_iterable(
                [node.inputs for node in nodes]))
        except TypeError:  # an unhashable input
            resolved = False
        if not resolved:
            for i, node in enumerate(nodes):
                for ref in node.inputs:
                    try:
                        if ref in ids:
                            continue
                    except TypeError:  # unhashable: it names no node
                        pass
                    raise DanglingInputError(ref, _at(i, ".inputs"))
        return tuple.__new__(cls, (name, input_shape, nodes))

    @classmethod
    def _make(cls, fields: Iterable) -> "Graph":
        return Graph(*fields)

    def __reduce__(self):
        """Each node as the tuple of its fields, so a copy or an unpickling
        makes its nodes as ``share_blocks`` does, checking each distinct
        body once."""
        return _rebuilt, (self.name, self.input_shape,
                          [node.__reduce__()[1] for node in self.nodes])

    def node(self, node_id: str) -> LayerNode:
        for node in self.nodes:
            if node.id == node_id:
                return node
        raise KeyError(node_id)


_node = tuple.__new__  # a copy of a made node with another id and inputs


def share_blocks(nodes: Iterable[tuple]) -> List[LayerNode]:
    """The nodes ``nodes`` give (each a node or the tuple of its fields),
    sharing one object per distinct block, as a parse's do: a params
    mapping equal to an earlier node's in its ``marshal`` encoding (8,
    8.0 and true differ) becomes that node's, and a format or quant
    annotation equal to an earlier one of its class becomes that one.
    The first node of each distinct body and arity (its kind, params,
    formats and quant so matched, and its input count up to two) is made
    by ``LayerNode``, which raises what a node rule finds; the nodes that
    repeat it are copies of it with their own id and inputs. The
    analysis walk's layer memo and the serializer's block cache key on
    the shared objects, so a graph built with per-node copies of its
    blocks then analyzes and serializes as its parse does. A node whose
    body cannot be keyed (params ``marshal`` cannot encode, an
    unhashable format) is made by ``LayerNode`` and keeps its own
    blocks."""
    share = {}.setdefault
    bodies: dict = {}  # body and arity -> the first such node's blocks
    shared = []
    for node in nodes:
        node_id, kind, params, inputs, weights, acts, quant = node
        inputs = tuple(inputs or ())
        try:  # a dict's or a read-only view's copy is a dict
            encoded = marshal.dumps(params.copy() if params else {}, 2)
            body = (kind.__class__, kind, encoded,
                    min(len(inputs), ARITY_MERGE), weights.__class__,
                    weights, acts.__class__, acts, quant.__class__, quant)
            blocks = bodies.get(body)
        except (AttributeError, TypeError, ValueError):  # cannot be keyed
            body = blocks = None
        if blocks is None:
            made = LayerNode(node_id, kind, params, inputs, weights, acts,
                             quant)
            if body is None:
                shared.append(made)
                continue
            blocks = bodies[body] = (
                made.kind, share(encoded, made.params),
                share((weights.__class__, weights), weights),
                share((acts.__class__, acts), acts),
                share((quant.__class__, quant), quant))
        kind, params, weights, acts, quant = blocks
        shared.append(_node(LayerNode, (node_id, kind, params, inputs,
                                        weights, acts, quant)))
    return shared


def _rebuilt(name: str, input_shape: TensorShape,
             nodes: Iterable[tuple]) -> Graph:
    """A copy or unpickling of a graph: its copied nodes share again."""
    return Graph(name, input_shape, share_blocks(nodes))


class Diagnostic(NamedTuple):
    node_id: str
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.node_id}: [{self.rule}] {self.message}"


def _spatial(extent: int, kernel: int, stride: int, padding: str,
             node_id: str) -> int:
    if padding == "same":
        return -(-extent // stride)  # ceil division
    # "valid": the node rules, which every node keeps, admit no other
    # padding
    if extent < kernel:
        raise ShapeMismatchError(node_id, "kernel larger than input")
    return (extent - kernel) // stride + 1


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
    if len({s[:3] for s in ins}) > 1:  # (n, h, w)
        raise ShapeMismatchError(node.id, "concat spatial dims differ")
    head = ins[0]
    return TensorShape(head.n, head.h, head.w, sum(s.c for s in ins))


def _pool(node: LayerNode, ins: List[TensorShape]) -> TensorShape:
    src = ins[0]
    if node.params.get("pool", "global_avg") == "global_avg":
        return TensorShape(src.n, 1, 1, src.c)
    return _window(node, src, src.c)


# A kind's arity is its input count, where ARITY_MERGE means two or more.
ARITY_NONE, ARITY_ONE, ARITY_MERGE = 0, 1, 2
_ARITY_MESSAGES = {  # arity -> its fault's message, formatted with the kind
    ARITY_NONE: "{} nodes take no inputs",
    ARITY_ONE: "{} takes exactly one input",
    ARITY_MERGE: "{} needs at least two inputs",
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
    KIND_PWCONV: KindRule(  # a 1x1 kernel: _node_problem rejects others
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
    "kernel": (lambda v: type(v) in (list, tuple) and len(v) == 2
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


_BLOCK_TYPES = (("weight_format", NumericFormat),
                ("act_format", NumericFormat),
                ("quant", QuantizationAnnotation))


def _node_problem(node: LayerNode) -> Optional[Tuple[str, str]]:
    """The first rule ``node`` breaks, as (where in the node, message), or
    None. The rules, in order: a known kind; params with no unknown key,
    each value passing its ``_PARAM_CHECKS`` entry and every required key
    present (a windowed pool needs a kernel); the kind's arity; a 1x1
    pointwise kernel; each format a ``NumericFormat`` and ``quant`` a
    ``QuantizationAnnotation``, or absent; ``quant`` only on compute
    kinds; and weights a power-of-two quantizer can take."""
    kind = node.kind
    rule = KIND_RULES.get(kind) if type(kind) is str else None
    if rule is None:
        return ".kind", f"unknown node kind {kind!r}"
    params = node.params
    for key, value in params.items():
        if key not in rule.params:
            return f".params.{key}", f"unknown key {key!r}"
        accepts, expected = _PARAM_CHECKS[key]
        if not accepts(value):
            return f".params.{key}", f"{key} must be {expected}, got {value!r}"
    required = rule.required
    if params.get("pool", "global_avg") != "global_avg":
        required = required | {"kernel"}  # a windowed pool
    if not params.keys() >= required:
        key = min(required - params.keys())
        return f".params.{key}", f"missing param {key!r}"
    if min(len(node.inputs), ARITY_MERGE) != rule.arity:
        return ".inputs", _ARITY_MESSAGES[rule.arity].format(kind)
    if kind == KIND_PWCONV and list(params.get("kernel", (1, 1))) != [1, 1]:
        return (".params.kernel",
                f"pointwise kernel must be 1x1, got {list(params['kernel'])}")
    for (field, cls), block in zip(_BLOCK_TYPES, node[4:]):
        if not (block is None or isinstance(block, cls)):
            return (f".{field}", f"{field} must be a {cls.__name__} or "
                    f"absent, got {block!r}")
    quant = node.quant
    if quant is None:
        return None
    if kind not in COMPUTE_KINDS:
        return (".quant", "quant is only valid on compute layers "
                f"({', '.join(COMPUTE_KINDS)}), not {kind}")
    # Power-of-two weights code a sign bit plus at least one shift bit.
    weights = node.weight_format or FP32
    if (quant.weight_quantizer == "pot"
            and not (weights.is_fixed and weights.total_bits >= 2)):
        return (".quant.weight_quantizer", "power-of-two weights need a "
                f"fixed-point weight_format of at least 2 bits, got {weights}")
    return None


def _reject_unknown(doc: dict, allowed: FrozenSet[str], path: str) -> None:
    """Raise for the first key of ``doc``, in document order, that is not
    in ``allowed``; callers test ``doc.keys() <= allowed`` first."""
    key = next(key for key in doc if key not in allowed)
    raise ParseError(f"unknown key {key!r}", f"{path}.{key}")


def _at(i: int, where: str = "") -> str:
    """The JSON path of ``where`` in node ``i``, built only to raise."""
    return f"$.nodes[{i}]{where}"


_ROOT_KEYS = frozenset({"ir_version", "name", "input", "nodes"})
_INPUT_KEYS = frozenset({"n", "h", "w", "c"})
_NODE_KEYS = frozenset({"id", "kind", "params", "inputs", "weight_format",
                        "act_format", "quant"})
_FORMAT_KEYS = frozenset({"kind", "bits", "exp", "man"})
_QUANT_KEYS = frozenset({"granularity", "vectors_per_channel", "scale",
                         "weight_quantizer"})
_WIDTH_TYPES = (int, type(None))  # exp and man may be absent
_MISSING = object()  # a node key the document leaves out


def _parse_format(doc, memo: dict, i: int, where: str) -> NumericFormat:
    """The format ``doc`` at ``where`` in node ``i`` describes, shared
    through ``memo``, one parse's memo keyed on type-checked values (8,
    8.0 and true differ)."""
    if not isinstance(doc, dict):
        raise ParseError("format must be an object", _at(i, where))
    if not doc.keys() <= _FORMAT_KEYS:
        _reject_unknown(doc, _FORMAT_KEYS, _at(i, where))
    try:
        key = kind, bits, exp, man = (doc["kind"], doc["bits"],
                                      doc.get("exp"), doc.get("man"))
    except KeyError as exc:
        raise ParseError(f"missing format key {exc}", _at(i, where)) from exc
    if not (type(kind) is str and type(bits) is int
            and type(exp) in _WIDTH_TYPES and type(man) in _WIDTH_TYPES):
        raise ParseError("format kind must be a string, widths integers",
                         _at(i, where))
    fmt = memo.get(key)
    if fmt is None:
        try:
            fmt = memo[key] = NumericFormat(*key)
        except OutOfRangeError as exc:
            raise ParseError(str(exc), _at(i, where)) from exc
    return fmt


def _parse_quant(doc, memo: dict, i: int) -> QuantizationAnnotation:
    """The annotation ``doc`` in node ``i`` describes, shared through
    ``memo`` like formats and keyed on checked values only. Its key's
    third value is a string, a format key's a width or None, so no
    format's key equals it."""
    if not isinstance(doc, dict):
        raise ParseError("quant must be an object", _at(i, ".quant"))
    if not doc.keys() <= _QUANT_KEYS:
        _reject_unknown(doc, _QUANT_KEYS, _at(i, ".quant"))
    scale = doc.get("scale", POT_SCALE)
    if scale != POT_SCALE:
        scale = _parse_format(scale, memo, i, ".quant.scale")
    granularity = doc.get("granularity", GRANULARITY_CHANNELWISE)
    weight_quantizer = doc.get("weight_quantizer", "linear")
    vectors = doc.get("vectors_per_channel")
    problem = _quant_problem(granularity, weight_quantizer, vectors)
    if problem:
        raise ParseError(problem[1], _at(i, f".quant.{problem[0]}"))
    key = granularity, scale, weight_quantizer, vectors
    quant = memo.get(key)
    if quant is None:
        quant = memo[key] = QuantizationAnnotation(
            granularity, scale, weight_quantizer, vectors)
    return quant


def _parse_node(doc, i: int, memo: dict, node_id, inputs, body) -> LayerNode:
    """The node at ``$.nodes[i]`` of id ``node_id``, inputs ``inputs``
    and body ``doc`` (the keys left), held to every check. A body that
    passes is stored in ``memo`` under its key ``body``, if it has one
    (``parse_graph``); a rejected body is never stored."""
    if not doc.keys() <= _NODE_KEYS:
        _reject_unknown(doc, _NODE_KEYS, _at(i))
    if node_id is _MISSING or "kind" not in doc:
        key = "id" if node_id is _MISSING else "kind"
        raise ParseError(f"missing node key {key!r}", _at(i))
    if type(node_id) is not str:
        raise ParseError("node id must be a string", _at(i, ".id"))
    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ParseError("params must be an object", _at(i, ".params"))
    if type(inputs) is not list:  # parse_graph resolves each entry
        raise ParseError("inputs must be a list", _at(i, ".inputs"))
    weight_format = act_format = quant = None
    if "weight_format" in doc:
        weight_format = _parse_format(doc["weight_format"], memo, i,
                                      ".weight_format")
    if "act_format" in doc:
        act_format = _parse_format(doc["act_format"], memo, i, ".act_format")
    if "quant" in doc:
        quant = _parse_quant(doc["quant"], memo, i)
    try:
        node = LayerNode(node_id, doc["kind"], params, inputs,
                         weight_format, act_format, quant)
    except ParseError as exc:  # a node rule, at its path in the node
        raise exc.__class__(exc.message, _at(i, exc.path)) from None
    if body is not None:
        memo[body] = (node.kind, node.params, weight_format, act_format,
                      quant)
    return node


def parse_graph(text: str) -> Graph:
    """Parse and structurally resolve a graph document (strict mode).

    Each error names its JSON path. A node body, every key but ``id``
    and ``inputs``, is read and made into a ``LayerNode``, which holds it
    to the node rules, once per parse (``_parse_node``): it is keyed on
    its arity and its ``marshal`` encoding, in which 8, 8.0 and true
    differ (version 2 writes no back-references, so equal bodies encode
    alike), and a node with a string id repeating an accepted body is a
    copy of the first one with its own id and inputs. ``Graph`` then
    checks the ids and references."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # malformed, or an integer too long to read
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    if not doc.keys() <= _ROOT_KEYS:
        _reject_unknown(doc, _ROOT_KEYS, "$")
    version = doc.get("ir_version")
    if type(version) is not int or version != IR_VERSION:
        raise ParseError(f"unsupported ir_version {version!r}", "$.ir_version")
    inp = doc.get("input")
    if not isinstance(inp, dict):
        raise ParseError("missing input shape", "$.input")
    if not inp.keys() <= _INPUT_KEYS:
        _reject_unknown(inp, _INPUT_KEYS, "$.input")
    for key, value in inp.items():
        if not _positive_int(value):
            raise ParseError(f"{key} must be a positive integer, got "
                             f"{value!r}", f"$.input.{key}")
    if not inp.keys() >= _INPUT_KEYS:
        key = min(_INPUT_KEYS - inp.keys())
        raise ParseError(f"missing input key {key!r}", f"$.input.{key}")
    shape = TensorShape(**inp)

    docs = doc.get("nodes", [])
    if not isinstance(docs, list):
        raise ParseError("nodes must be a list", "$.nodes")
    name = doc.get("name", "")
    if type(name) is not str:
        raise ParseError(f"name must be a string, got {name!r}", "$.name")
    memo: dict = {}  # this parse's formats, quants and node bodies
    nodes = []
    for i, nd in enumerate(docs):
        if not isinstance(nd, dict):
            raise ParseError("node must be an object", _at(i))
        # The document is this parse's own, so the node takes its containers.
        node_id = nd.pop("id", _MISSING)
        inputs = nd.pop("inputs", [])
        body = None
        if type(inputs) is list:
            arity = len(inputs) if len(inputs) < ARITY_MERGE else ARITY_MERGE
            try:
                body = arity, marshal.dumps(nd, 2)
            except ValueError:  # nested too deeply to encode: it fails a check
                pass
        shared = memo.get(body)
        if shared is not None and type(node_id) is str:  # an accepted body
            kind, params, weight_format, act_format, quant = shared
            nodes.append(_node(LayerNode, (node_id, kind, params,
                                           tuple(inputs), weight_format,
                                           act_format, quant)))
        else:
            nodes.append(_parse_node(nd, i, memo, node_id, inputs, body))
    return Graph(name, shape, nodes)


_escape = json.encoder.encode_basestring_ascii  # the C escaper json uses
_INF = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _json_key(key) -> str:
    """A dict key as json.dumps coerces it to a string: a number, bool or
    None as its JSON value."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json_value(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def json_value(value, indent: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it when nested
    at ``indent``: ASCII-escaped strings, tuples as lists, ``{}`` and
    ``[]`` for empty containers, and json's TypeError for other types.
    Unlike ``dumps`` with an indent, whose pure-Python encoder leaves a
    reference cycle behind on every call, it leaves no cyclic garbage."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        items = [json_value(item, inner) for item in value]
    elif isinstance(value, dict):
        brackets = "{}"
        items = [_escape(_json_key(key)) + ": " + json_value(item, inner)
                 for key, item in value.items()]
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} "
                        "is not JSON serializable")
    if not items:
        return brackets
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


_KEY = ",\n      "  # ends a node's key: the next one sits at depth 3
_to_json = methodcaller("to_json")
_copy = methodcaller("copy")  # params as a dict: a view's copy is one


def serialize_graph(g: Graph) -> str:
    """Canonical JSON rendering; parse(serialize(g)) == g and the byte
    stream is stable for golden-file diffs.

    The bytes equal ``json.dumps(doc, indent=2) + "\\n"``, where ``doc``
    holds the root keys and each node's id, kind, a dict of its params, a
    list of its inputs and the formats and quant it carries. They are
    written without json's pure-Python indenting encoder: the fixed keys
    directly, strings through the C escaper json.dumps uses, and each
    params, format or quant object once per call: a parse and the zoo
    builders share one object per distinct block."""
    # A block's text by the id of its params dict, format or quant
    # annotation; the graph keeps each object, so its id stays valid.
    blocks: Dict[int, str] = {}

    def block(value, to_doc) -> str:
        text = blocks.get(id(value))
        if text is None:
            text = blocks[id(value)] = json_value(to_doc(value), "      ")
        return text

    nodes = []
    for node_id, kind, params, inputs, weights, acts, quant in g.nodes:
        try:  # ids, kinds and refs are strings in any parsed graph
            refs = ",\n        ".join(map(_escape, inputs))
            text = ('    {\n      "id": ' + _escape(node_id)
                    + _KEY + '"kind": ' + _escape(kind))
        except TypeError:  # one is not: render them as params are
            refs = ",\n        ".join(json_value(ref, "        ")
                                       for ref in inputs)
            text = ('    {\n      "id": ' + json_value(node_id, "      ")
                    + _KEY + '"kind": ' + json_value(kind, "      "))
        text += (_KEY + '"params": ' + block(params, _copy)
                 + _KEY + '"inputs": '
                 + ("[\n        " + refs + "\n      ]" if refs else "[]"))
        if weights is not None:
            text += _KEY + '"weight_format": ' + block(weights, _to_json)
        if acts is not None:
            text += _KEY + '"act_format": ' + block(acts, _to_json)
        if quant is not None:
            text += _KEY + '"quant": ' + block(quant, _to_json)
        nodes.append(text + "\n    }")
    body = "[\n" + ",\n".join(nodes) + "\n  ]" if nodes else "[]"
    return (f'{{\n  "ir_version": {IR_VERSION},\n  "name": '
            + json_value(g.name, "  ") + ',\n  "input": '
            + json_value(g.input_shape.to_json(), "  ")
            + ',\n  "nodes": ' + body + "\n}\n")


def topological_order(g: Graph) -> List[LayerNode]:
    """Kahn topological sort, stable with respect to declaration order:
    a heap keyed on declaration index places, of the nodes ready at each
    step, the first declared, in O((V + E) log V). So a graph declared in
    topological order sorts to its declaration order. Every input
    resolves (``Graph`` checks that); on a cycle it raises a ParseError
    at ``$.nodes[i].inputs`` of the first declared node the sort could
    not place."""
    position = {n.id: i for i, n in enumerate(g.nodes)}
    indegree = [len(n.inputs) for n in g.nodes]
    consumers: List[List[int]] = [[] for _ in g.nodes]
    for i, node in enumerate(g.nodes):
        for ref in node.inputs:
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
        raise ParseError("graph contains a cycle",
                         _at(next(i for i, d in enumerate(indegree) if d),
                             ".inputs"))
    return order


def validate(g: Graph) -> List[Diagnostic]:
    """Structural diagnostics of a graph; an empty list means all
    invariants hold. Its nodes keep the node rules and its references
    resolve (``LayerNode`` and ``Graph`` check those when they are made),
    so what is left is the cycle check and the shapes: a cycle is one
    ``dag-violation`` diagnostic; with none, shapes are inferred in
    topological order by kind rule, each node whose shape fails gets a
    ``shape`` diagnostic, and a node with a failed input is skipped.
    ``analyze`` raises only the first; this collects every one."""
    try:
        order = topological_order(g)
    except ParseError:
        return [Diagnostic("<graph>", "dag-violation",
                           "graph contains a cycle")]
    diags: List[Diagnostic] = []
    shapes: Dict[str, TensorShape] = {}
    for node in order:
        if all(ref in shapes for ref in node.inputs):
            try:
                shapes[node.id] = KIND_RULES[node.kind].shape(
                    node, [shapes[ref] for ref in node.inputs]
                    or [g.input_shape])
            except ShapeMismatchError as exc:
                diags.append(Diagnostic(node.id, "shape", exc.reason))
    return diags


def node_shape(g: Graph, node: LayerNode,
               ins: List[TensorShape]) -> TensorShape:
    """The output shape of ``node`` of ``g`` on input shapes ``ins`` (the
    graph's input shape for a node with no inputs), by its kind's rule,
    which every node's kind has (``LayerNode``). A mismatch
    raises ``ShapeMismatchError`` at the node's ``$.nodes[i]``."""
    try:
        return KIND_RULES[node.kind].shape(node, ins)
    except ShapeMismatchError as exc:
        raise ShapeMismatchError(exc.node_id, exc.reason,
                                 _at(g.nodes.index(node))) from None


def weight_elements(node: LayerNode, in_shape: TensorShape) -> int:
    """Parameter count of one node per sample (kernel weights, or 4 per
    channel for normalization layers; zero for everything else)."""
    return KIND_RULES[node.kind].weights(node, in_shape)
