"""Graph parsing, validation, shape inference, serialization."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from acev2 import ir
from acev2.analysis import analyze
from acev2.census import layer_walk
from acev2.errors import DanglingInputError, ParseError, ShapeMismatchError, UnknownKindError
from acev2.formats import NumericFormat
from acev2.ir import (
    Diagnostic,
    Graph,
    LayerNode,
    QuantizationAnnotation,
    TensorShape,
    parse_graph,
    serialize_graph,
    topological_order,
    validate,
    weight_elements,
)

from test_kinds import unchecked

MINIMAL = """
{
  "ir_version": 1,
  "name": "trivial",
  "input": {"n": 1, "h": 8, "w": 8, "c": 3},
  "nodes": [
    {"id": "in", "kind": "Input", "params": {}, "inputs": []},
    {"id": "out", "kind": "Output", "params": {}, "inputs": ["in"]}
  ]
}
"""


def chain(*nodes):
    return Graph("t", TensorShape(1, 8, 8, 3), list(nodes))


def walk_shapes(g):
    """Every node's output shape, from the analysis walk."""
    return {node.id: layer.shape for node, layer in layer_walk(g)}


def test_parse_minimal_graph():
    g = parse_graph(MINIMAL)
    assert len(g.nodes) == 2
    assert g.input_shape == TensorShape(1, 8, 8, 3)
    assert validate(g) == []


def test_roundtrip_is_identity():
    g = parse_graph(MINIMAL)
    text = serialize_graph(g)
    again = parse_graph(text)
    assert serialize_graph(again) == text
    assert [n.id for n in again.nodes] == [n.id for n in g.nodes]


@pytest.mark.parametrize("text", ["[]", "3", '"doc"', "null"])
def test_a_document_that_is_not_an_object_is_a_parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (str(err.value), err.value.path) == (
        "document root must be an object", "")


def test_unknown_top_level_key_rejected():
    with pytest.raises(ParseError):
        parse_graph(MINIMAL.replace('"name": "trivial",',
                                    '"name": "trivial", "extra": 1,'))


def test_unknown_node_key_rejected():
    bad = MINIMAL.replace('"params": {}, "inputs": []',
                          '"params": {}, "inputs": [], "wat": true', 1)
    with pytest.raises(ParseError) as err:
        parse_graph(bad)
    assert "wat" in str(err.value)


def test_unknown_kind():
    with pytest.raises(UnknownKindError):
        parse_graph(MINIMAL.replace('"kind": "Output"', '"kind": "Blob"'))


def test_dangling_input():
    with pytest.raises(DanglingInputError) as err:
        parse_graph(MINIMAL.replace('"inputs": ["in"]', '"inputs": ["missing"]'))
    assert err.value.missing_id == "missing"


def test_wrong_ir_version():
    with pytest.raises(ParseError):
        parse_graph(MINIMAL.replace('"ir_version": 1', '"ir_version": 2'))


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a": ' * 200_000])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="^invalid JSON: nested too deeply$"):
        parse_graph(text)


def test_an_integer_too_long_to_read_is_a_parse_error():
    """json.loads refuses an integer of more than 4,300 digits with a
    plain ValueError; the parse reports it as invalid JSON."""
    text = MINIMAL.replace('"h": 8', '"h": 1' + "0" * 5002)
    with pytest.raises(ParseError, match="^invalid JSON: .*5003 digits"):
        parse_graph(text)


def test_duplicate_ids_rejected():
    with pytest.raises(ParseError) as err:
        parse_graph(MINIMAL.replace('"id": "out"', '"id": "in"'))
    assert err.value.path == "$.nodes[1].id"
    assert str(err.value) == "$.nodes[1].id: duplicate node id 'in'"


def test_duplicate_ids_in_a_built_graph_rejected():
    """A built graph names the node repeating an id, as a parse does."""
    with pytest.raises(ParseError, match="duplicate node id 'a'") as err:
        chain(LayerNode("in", "Input"), LayerNode("a", "Output", {}, ["in"]),
              LayerNode("b", "Output", {}, ["in"]),
              LayerNode("a", "Output", {}, ["b"]))
    assert err.value.path == "$.nodes[3].id"


def test_replace_checks_the_graph_it_makes():
    """``_replace`` builds its graph as ``Graph`` does, checked."""
    g = parse_graph(MINIMAL)
    with pytest.raises(ParseError) as err:
        g._replace(nodes=g.nodes + g.nodes[:1])
    assert str(err.value) == "$.nodes[2].id: duplicate node id 'in'"
    with pytest.raises(DanglingInputError) as err:
        g._replace(nodes=g.nodes[1:])
    assert str(err.value) == "$.nodes[0].inputs: unresolved input id 'in'"
    renamed = g._replace(name="renamed")
    assert renamed.nodes is g.nodes and type(renamed) is type(g) is Graph


@pytest.mark.parametrize("name", [5, None, ["x"], {"a": 1}, True])
def test_non_string_name_is_a_parse_error_with_its_path(name):
    doc = json.loads(MINIMAL)
    doc["name"] = name
    with pytest.raises(ParseError) as err:
        parse_graph(json.dumps(doc))
    assert err.value.path == "$.name"


def test_absent_name_is_empty():
    doc = json.loads(MINIMAL)
    del doc["name"]
    assert parse_graph(json.dumps(doc)).name == ""


def test_first_unknown_key_in_document_order_is_named():
    bad = MINIMAL.replace('"params": {}, "inputs": []',
                          '"params": {}, "inputs": [], "zz": 1, "aa": 2', 1)
    with pytest.raises(ParseError) as err:
        parse_graph(bad)
    assert err.value.path == "$.nodes[0].zz"


def test_quant_annotation_roundtrip():
    g = chain(
        LayerNode("in", "Input"),
        LayerNode("conv", "PointwiseConv2D", {"out_channels": 4}, ["in"],
                  weight_format=NumericFormat.fixed(4),
                  act_format=NumericFormat.fixed(4),
                  quant=QuantizationAnnotation(
                      granularity="subchannelwise", vectors_per_channel=2)),
        LayerNode("out", "Output", {}, ["conv"]),
    )
    again = parse_graph(serialize_graph(g))
    quant = again.node("conv").quant
    assert quant.granularity == "subchannelwise"
    assert quant.vectors_per_channel == 2
    assert serialize_graph(again) == serialize_graph(g)


def test_subchannelwise_requires_vector_count():
    with pytest.raises(ParseError):
        QuantizationAnnotation(granularity="subchannelwise")


class TestValidate:
    def test_pointwise_kernel_rule(self):
        with pytest.raises(ParseError) as err:
            LayerNode("pw", "PointwiseConv2D",
                      {"out_channels": 4, "kernel": [3, 3]}, ["in"])
        assert str(err.value) \
            == ".params.kernel: pointwise kernel must be 1x1, got [3, 3]"

    def test_cycle_detected(self):
        g = chain(
            LayerNode("in", "Input"),
            LayerNode("a", "Add", {}, ["in", "b"]),
            LayerNode("b", "Add", {}, ["in", "a"]),
            LayerNode("out", "Output", {}, ["b"]),
        )
        assert validate(g) == [Diagnostic("<graph>", "dag-violation",
                                          "graph contains a cycle")]
        with pytest.raises(ParseError):
            topological_order(g)

    def test_batchnorm_arity(self):
        with pytest.raises(ParseError) as err:
            LayerNode("bn", "BatchNorm", {}, ["in", "in"])
        assert str(err.value) == ".inputs: BatchNorm takes exactly one input"

    @pytest.mark.parametrize("fields,error,where,message", [
        (("x", "Conv2D", {"kernel": [3, 3]}, ["in"]), ParseError,
         ".params.out_channels", "missing param 'out_channels'"),
        (("x", "Pool", {"pool": "max"}, ["in"]), ParseError,
         ".params.kernel", "missing param 'kernel'"),
        (("x", "Activation", {"activation": "gelu"}, ["in"]), ParseError,
         ".params.activation", "activation must be one of relu, prelu, "
         "dprelu, got 'gelu'"),
        (("x", "BatchNorm", {}, ["in"], None, None,
          QuantizationAnnotation()), ParseError, ".quant",
         "quant is only valid on compute layers (Conv2D, DepthwiseConv2D, "
         "PointwiseConv2D, Dense), not BatchNorm"),
        (("x", "Dense", {"units": 4}, ["in"], NumericFormat.flt(5, 10), None,
          QuantizationAnnotation(scale_format="pot", weight_quantizer="pot")),
         ParseError, ".quant.weight_quantizer", "power-of-two weights need "
         "a fixed-point weight_format of at least 2 bits, got fp16"),
        (("x", "Blob", {}, ["in"]), UnknownKindError, ".kind",
         "unknown node kind 'Blob'"),
        (("x", "PointwiseConv2D", {"kernel": (3, 3), "out_channels": 4},
          ["in"]), ParseError, ".params.kernel",
         "pointwise kernel must be 1x1, got [3, 3]"),
        (("x", "Conv2D", {"kernel": [3, 3], "out_channels": 4},
          ["in", "in"]), ParseError, ".inputs",
         "Conv2D takes exactly one input"),
    ])
    def test_a_node_breaking_a_parse_rule(self, fields, error, where,
                                          message):
        """A node made in code is held to the rules parse_graph raises
        for, when it is made, at its path in the node; a parse of a
        document holding it raises the same error and message at the
        node's ``$.nodes[i]`` followed by that path."""
        with pytest.raises(ParseError) as made:
            LayerNode(*fields)
        assert (type(made.value), made.value.path, made.value.message) \
            == (error, where, message)
        g = chain(LayerNode("in", "Input"), unchecked(*fields),
                  LayerNode("out", "Output", {}, ["x"]))
        with pytest.raises(ParseError) as parsed:
            parse_graph(serialize_graph(g))
        assert (type(parsed.value), str(parsed.value)) \
            == (error, f"$.nodes[1]{where}: {message}")

    @pytest.mark.parametrize("field,block", [
        ("weight_format", "int8"), ("act_format", 8), ("quant", "pot"),
        ("weight_format", QuantizationAnnotation()),
        ("quant", NumericFormat.fixed(8)),
    ])
    def test_a_node_with_a_block_of_another_type(self, field, block):
        """A parse makes only formats and annotations. A node made in
        code with a block of another type breaks a node rule at its
        field's path, as a ``ParseError``, with no ``AttributeError``
        from the rules."""
        cls = "QuantizationAnnotation" if field == "quant" else "NumericFormat"
        with pytest.raises(ParseError) as err:
            LayerNode("x", "Conv2D", {"kernel": [3, 3], "out_channels": 4},
                      ["in"], **{field: block})
        assert (type(err.value), str(err.value)) == (ParseError, (
            f".{field}: {field} must be a {cls} or absent, got {block!r}"))

    def test_dangling_input_of_a_built_graph(self):
        """A graph built in code with a dangling input is never made, so
        ``validate`` never sees one: it raises as a parse does, for the
        first node holding one."""
        with pytest.raises(DanglingInputError) as err:
            chain(
                LayerNode("in", "Input"),
                LayerNode("a", "Add", {}, ["in", "ghost"]),
                LayerNode("b", "Activation", {}, ["phantom"]),
                LayerNode("out", "Output", {}, ["a"]),
            )
        assert err.value.missing_id == "ghost"
        assert str(err.value) == \
            "$.nodes[1].inputs: unresolved input id 'ghost'"

    def test_shape_mismatches_of_a_built_graph(self):
        """A parse infers no shapes; ``validate`` reports each node whose
        shape fails, skips the nodes fed by one, and names the node that
        ``analyze`` raises for first."""
        g = chain(
            LayerNode("in", "Input"),
            LayerNode("pw", "PointwiseConv2D", {"out_channels": 4}, ["in"]),
            LayerNode("add", "Add", {}, ["in", "pw"]),
            LayerNode("relu", "Activation", {}, ["add"]),
            LayerNode("cat", "Concat", {}, ["pw", "relu"]),
            LayerNode("add2", "Add", {}, ["pw", "in"]),
            LayerNode("out", "Output", {}, ["cat"]),
        )
        three, four = (str(TensorShape(1, 8, 8, c)) for c in (3, 4))
        differ = "add inputs differ: ['{}', '{}']".format
        assert validate(g) == [
            Diagnostic("add", "shape", differ(three, four)),
            Diagnostic("add2", "shape", differ(four, three))]
        with pytest.raises(ShapeMismatchError) as err:
            analyze(g)
        assert (err.value.node_id, err.value.path) == ("add", "$.nodes[2]")

    def test_a_fan_out_of_failing_branches_validates_in_linear_time(
            self, monkeypatch):
        """Each failing shape is reported without looking the node up in
        the node list, which compares it with every earlier node: no
        ``LayerNode.__eq__`` call at all."""
        k = 300
        nodes = [LayerNode("in", "Input")]
        nodes += [LayerNode(f"c{b}", "Conv2D", {"kernel": [9, 9],
                                                 "out_channels": 4,
                                                 "padding": "valid"},
                            ["in"]) for b in range(k)]
        nodes.append(LayerNode("out", "Output", {}, ["c0"]))
        calls = []
        eq = LayerNode.__eq__
        monkeypatch.setattr(LayerNode, "__eq__",
                            lambda a, b: calls.append(1) or eq(a, b))
        diags = validate(chain(*nodes))
        assert diags == [Diagnostic(f"c{b}", "shape",
                                    "kernel larger than input")
                         for b in range(k)]
        assert calls == []


FP16_DOC = {"kind": "float", "bits": 16, "exp": 5, "man": 10}


def format_graph(weight=None, scale=None):
    """Two pointwise convs at int8/fp16; ``weight`` or ``scale`` replaces
    the first conv's weight format or quantization scale document."""
    def conv(i, src):
        return {"id": f"pw{i}", "kind": "PointwiseConv2D",
                "params": {"out_channels": 4}, "inputs": [src],
                "weight_format": {"kind": "fixed", "bits": 8},
                "act_format": dict(FP16_DOC),
                "quant": {"scale": dict(FP16_DOC)}}
    nodes = [{"id": "in", "kind": "Input", "params": {}, "inputs": []},
             conv(0, "in"), conv(1, "pw0"),
             {"id": "out", "kind": "Output", "params": {}, "inputs": ["pw1"]}]
    if weight is not None:
        nodes[1]["weight_format"] = weight
    if scale is not None:
        nodes[1]["quant"]["scale"] = scale
    return json.dumps({"ir_version": 1, "name": "formats",
                       "input": {"n": 1, "h": 4, "w": 4, "c": 3},
                       "nodes": nodes})


def parsed_formats(g):
    return [f for n in g.nodes
            for f in (n.weight_format, n.act_format,
                      n.quant and n.quant.scale_format) if f]


class TestFormats:
    def test_equal_formats_in_one_document_are_one_object(self):
        g = parse_graph(format_graph())
        pw0, pw1 = g.node("pw0"), g.node("pw1")
        assert pw0.weight_format is pw1.weight_format
        assert (pw0.act_format is pw1.act_format is pw0.quant.scale_format
                is pw1.quant.scale_format)
        assert len({id(f) for f in parsed_formats(g)}) == 2

    def test_two_parses_share_no_format(self):
        text = format_graph()
        first, second = parse_graph(text), parse_graph(text)
        assert serialize_graph(first) == serialize_graph(second)
        ids = {id(f) for f in parsed_formats(first)}
        assert not ids & {id(f) for f in parsed_formats(second)}

    def test_equal_quant_documents_in_one_parse_are_one_object(self):
        text = format_graph()
        g = parse_graph(text)
        assert g.node("pw0").quant is g.node("pw1").quant
        other = parse_graph(text)
        assert other.node("pw0").quant == g.node("pw0").quant
        assert other.node("pw0").quant is not g.node("pw0").quant
        doc = json.loads(text)
        doc["nodes"][2]["quant"]["granularity"] = "layerwise"
        g = parse_graph(json.dumps(doc))
        assert g.node("pw0").quant is not g.node("pw1").quant
        assert g.node("pw1").quant.granularity == "layerwise"

    @pytest.mark.parametrize("weight,scale,path", [
        ({"kind": "fixed", "bits": 70}, None, "$.nodes[1].weight_format"),
        ({"kind": "fixed", "bits": "8"}, None, "$.nodes[1].weight_format"),
        ({"kind": "fixed", "bits": True}, None, "$.nodes[1].weight_format"),
        ({"kind": "fixed", "bits": 8.0}, None, "$.nodes[1].weight_format"),
        ({"kind": ["fixed"], "bits": 8}, None, "$.nodes[1].weight_format"),
        ({"kind": "float", "bits": 16, "exp": 5, "man": 9}, None,
         "$.nodes[1].weight_format"),
        (None, {"kind": "fixed", "bits": 8, "zz": 1},
         "$.nodes[1].quant.scale.zz"),
        (None, {"kind": "float"}, "$.nodes[1].quant.scale"),
        (None, {"kind": "fixed", "bits": 70}, "$.nodes[1].quant.scale"),
        (None, "fp32", "$.nodes[1].quant.scale"),
    ])
    def test_bad_format_is_a_parse_error_with_its_path(self, weight, scale,
                                                       path):
        with pytest.raises(ParseError) as err:
            parse_graph(format_graph(weight, scale))
        assert err.value.path == path

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.builds(NumericFormat.fixed, st.integers(1, 64)),
        st.just(NumericFormat.binary()),
        st.integers(1, 31).flatmap(lambda e: st.builds(
            NumericFormat.flt, st.just(e), st.integers(0, 63 - e)))))
    def test_cached_hash_matches_a_fresh_equal_instance(self, fmt):
        fields = (fmt.kind, fmt.total_bits, fmt.exponent_bits,
                  fmt.mantissa_bits)
        fresh = NumericFormat(*fields)
        parsed = parse_graph(format_graph(weight=fmt.to_json())
                             ).node("pw0").weight_format
        assert fresh == fmt == parsed
        assert hash(fresh) == hash(fmt) == hash(parsed) == hash(fields)


class TestShapes:
    def test_conv_stride_two_same_padding(self):
        g = Graph("t", TensorShape(1, 224, 224, 3), [
            LayerNode("in", "Input"),
            LayerNode("conv", "Conv2D",
                      {"kernel": [3, 3], "stride": 2, "out_channels": 32,
                       "padding": "same"}, ["in"]),
            LayerNode("out", "Output", {}, ["conv"]),
        ])
        assert walk_shapes(g)["conv"] == TensorShape(1, 112, 112, 32)

    def test_valid_padding(self):
        g = Graph("t", TensorShape(1, 10, 10, 3), [
            LayerNode("in", "Input"),
            LayerNode("conv", "Conv2D",
                      {"kernel": [3, 3], "stride": 1, "out_channels": 8,
                       "padding": "valid"}, ["in"]),
            LayerNode("out", "Output", {}, ["conv"]),
        ])
        assert walk_shapes(g)["conv"] == TensorShape(1, 8, 8, 8)

    def test_add_requires_equal_shapes(self):
        g = Graph("t", TensorShape(1, 56, 56, 64), [
            LayerNode("in", "Input"),
            LayerNode("down", "Conv2D",
                      {"kernel": [3, 3], "stride": 2, "out_channels": 64,
                       "padding": "same"}, ["in"]),
            LayerNode("add", "Add", {}, ["in", "down"]),
            LayerNode("out", "Output", {}, ["add"]),
        ])
        with pytest.raises(ShapeMismatchError):
            walk_shapes(g)

    def test_a_mismatch_is_a_parse_error_at_the_declared_node(self):
        g = Graph("t", TensorShape(1, 8, 8, 3), [  # declared out of order
            LayerNode("out", "Output", {}, ["add"]),
            LayerNode("add", "Add", {}, ["in", "down"]),
            LayerNode("in", "Input"),
            LayerNode("down", "Conv2D",
                      {"kernel": [3, 3], "stride": 2, "out_channels": 3},
                      ["in"]),
        ])
        with pytest.raises(ParseError) as err:
            walk_shapes(g)
        assert isinstance(err.value, ShapeMismatchError)
        assert err.value.path == "$.nodes[1]"
        assert err.value.node_id == "add"
        assert str(err.value).startswith("$.nodes[1]: add: add inputs differ")

    def test_add_of_matching_shapes(self):
        g = Graph("t", TensorShape(1, 56, 56, 64), [
            LayerNode("in", "Input"),
            LayerNode("id1", "Activation", {"activation": "relu"}, ["in"]),
            LayerNode("add", "Add", {}, ["id1", "in"]),
            LayerNode("out", "Output", {}, ["add"]),
        ])
        assert walk_shapes(g)["add"] == TensorShape(1, 56, 56, 64)

    def test_concat_sums_channels(self):
        g = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("a", "PointwiseConv2D", {"out_channels": 4}, ["in"]),
            LayerNode("b", "PointwiseConv2D", {"out_channels": 6}, ["in"]),
            LayerNode("cat", "Concat", {}, ["a", "b"]),
            LayerNode("out", "Output", {}, ["cat"]),
        ])
        assert walk_shapes(g)["cat"].c == 10

    def test_dense_and_global_pool(self):
        g = Graph("t", TensorShape(1, 7, 7, 64), [
            LayerNode("in", "Input"),
            LayerNode("pool", "Pool", {"pool": "global_avg"}, ["in"]),
            LayerNode("fc", "Dense", {"units": 10}, ["pool"]),
            LayerNode("out", "Output", {}, ["fc"]),
        ])
        shapes = walk_shapes(g)
        assert shapes["pool"] == TensorShape(1, 1, 1, 64)
        assert shapes["fc"] == TensorShape(1, 1, 1, 10)
        assert weight_elements(g.node("fc"), shapes["pool"]) == 640

    def test_deterministic(self, mbv2_relu):
        assert walk_shapes(mbv2_relu) == walk_shapes(mbv2_relu)


def test_weight_elements_by_kind():
    shape = TensorShape(1, 8, 8, 16)
    assert weight_elements(
        LayerNode("c", "Conv2D", {"kernel": [3, 3], "out_channels": 8},
                  ["in"]), shape) == 3 * 3 * 16 * 8
    assert weight_elements(
        LayerNode("d", "DepthwiseConv2D", {"kernel": [3, 3]}, ["in"]),
        shape) == 144
    assert weight_elements(
        LayerNode("p", "PointwiseConv2D", {"out_channels": 4}, ["in"]),
        shape) == 64
    assert weight_elements(LayerNode("b", "BatchNorm", {}, ["in"]),
                           shape) == 64
    assert weight_elements(LayerNode("a", "Add", {}, ["in", "in"]),
                           shape) == 0


def reference_order(g):
    """Stable Kahn sort as a plain list: sort the ready set by
    declaration index, take the first."""
    position = {n.id: i for i, n in enumerate(g.nodes)}
    indegree = {n.id: len(n.inputs) for n in g.nodes}
    consumers = {n.id: [] for n in g.nodes}
    for node in g.nodes:
        for ref in node.inputs:
            consumers[ref].append(node.id)
    ready = [n.id for n in g.nodes if indegree[n.id] == 0]
    order = []
    while ready:
        ready.sort(key=position.__getitem__)
        nid = ready.pop(0)
        order.append(nid)
        for consumer in consumers[nid]:
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                ready.append(consumer)
    return order


def dag_node(node_id, inputs):
    """An Input, an Activation or an Add, as the count of ``inputs``
    needs."""
    kind = ("Input", "Activation", "Add")[min(len(inputs), 2)]
    return LayerNode(node_id, kind, {}, inputs)


def make_dag(inputs, declared):
    """The DAG whose node ``n{i}`` takes the nodes ``inputs[i]`` names,
    declared in the order of the indices ``declared``, and its inputs."""
    nodes = [dag_node(f"n{i}", [f"n{j}" for j in inputs[i]])
             for i in declared]
    return Graph("dag", TensorShape(1, 1, 1, 1), nodes), inputs


@st.composite
def shuffled_dags(draw, shuffle=True):
    """A DAG over nodes 0..n-1 (edges only from lower to higher index,
    repeated inputs allowed), declared in a random order, or in index
    order with ``shuffle=False``."""
    n = draw(st.integers(1, 40))
    inputs = [draw(st.lists(st.integers(0, i - 1), max_size=4)) if i else []
              for i in range(n)]
    declared = draw(st.permutations(range(n))) if shuffle else range(n)
    return make_dag(inputs, declared)


class TestTopologicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags())
    def test_matches_the_sort_then_pop_reference(self, dag):
        g, _ = dag
        order = [node.id for node in topological_order(g)]
        assert order == reference_order(g)
        placed = set()
        for nid in order:
            assert all(ref in placed for ref in g.node(nid).inputs)
            placed.add(nid)

    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags(shuffle=False))
    @example(make_dag([[]] * 12, range(12)))  # by id, n10 sorts before n2
    @example(make_dag([[], [0], [0], [1, 2]], range(4)))
    def test_a_dag_declared_in_order_sorts_to_its_declaration(self, dag):
        """Every graph goes through the one stable heap: a DAG declared in
        topological order comes back in declaration order, since each node
        is ready once its earlier inputs are placed, and is then the first
        declared of the ready nodes."""
        g, _ = dag
        assert topological_order(g) == list(g.nodes)

    @settings(max_examples=100, deadline=None)
    @given(shuffled_dags(), st.data())
    def test_injected_cycle_raises(self, dag, data):
        g, inputs = dag
        edges = [(i, j) for i, ins in enumerate(inputs) for j in ins]
        nodes = list(g.nodes)
        if not edges:
            nodes.append(dag_node("loop", ["loop"]))
        else:
            consumer, producer = data.draw(st.sampled_from(edges))
            i = nodes.index(g.node(f"n{producer}"))
            nodes[i] = dag_node(nodes[i].id,
                                [*nodes[i].inputs, f"n{consumer}"])
        with pytest.raises(ParseError, match="cycle"):
            topological_order(Graph(g.name, g.input_shape, nodes))

    def test_dangling_input_raises(self):
        """At the graph's construction: the sort only sees graphs whose
        inputs resolve."""
        with pytest.raises(DanglingInputError) as err:
            chain(LayerNode("in", "Input"),
                  LayerNode("out", "Output", {}, ["missing"]))
        assert err.value.path == "$.nodes[1].inputs"

    def test_declared_order_with_repeats_and_merges_is_kept(self):
        g = chain(
            LayerNode("in", "Input"),
            LayerNode("a", "Activation", {}, ["in"]),
            LayerNode("b", "Add", {}, ["in", "a", "in"]),
            LayerNode("c", "Concat", {}, ["b", "b"]),
            LayerNode("d", "Add", {}, ["a", "c", "b"]),
            LayerNode("out", "Output", {}, ["d"]),
        )
        order = topological_order(g)
        assert order == list(g.nodes)
        assert [n.id for n in order] == reference_order(g)

    def test_self_reference_in_declared_order_is_a_cycle(self):
        g = chain(LayerNode("in", "Input"),
                  LayerNode("a", "Add", {}, ["in", "a"]))
        with pytest.raises(ParseError, match="cycle"):
            topological_order(g)

    def test_a_cycle_names_the_first_node_the_sort_cannot_place(self):
        g = chain(
            LayerNode("in", "Input"),
            LayerNode("x", "Activation", {}, ["b"]),  # waits on the cycle
            LayerNode("a", "Add", {}, ["in", "b"]),
            LayerNode("b", "Add", {}, ["in", "a"]),
        )
        with pytest.raises(ParseError) as err:
            topological_order(g)
        assert err.value.path == "$.nodes[1].inputs"
        assert str(err.value) == "$.nodes[1].inputs: graph contains a cycle"

    def test_a_graph_rebuilt_with_other_inputs_sorts_anew(self):
        """A graph cannot change in place; one rebuilt from its nodes with
        one input edited is sorted by its own inputs."""
        nodes = (LayerNode("in", "Input"),
                 LayerNode("a", "Activation", {}, ["in"]),
                 LayerNode("b", "Activation", {}, ["a"]))
        assert [n.id for n in topological_order(chain(*nodes))] \
            == ["in", "a", "b"]

        def rewired(ref):
            return chain(nodes[0], nodes[1]._replace(inputs=(ref,)), nodes[2])

        with pytest.raises(ParseError, match="cycle"):
            topological_order(rewired("b"))
        with pytest.raises(DanglingInputError):
            rewired("ghost")
        # every input a forward reference
        assert [n.id for n in topological_order(chain(*reversed(nodes)))] \
            == ["in", "a", "b"]


def probe_doc():
    """A valid Input -> Conv2D -> Activation -> Output document."""
    return {"ir_version": 1, "name": "probe",
            "input": {"n": 1, "h": 8, "w": 8, "c": 3},
            "nodes": [
                {"id": "in", "kind": "Input", "params": {}, "inputs": []},
                {"id": "conv", "kind": "Conv2D",
                 "params": {"kernel": [3, 3], "stride": 1, "out_channels": 8,
                            "padding": "same"}, "inputs": ["in"]},
                {"id": "act", "kind": "Activation",
                 "params": {"activation": "prelu"}, "inputs": ["conv"]},
                {"id": "out", "kind": "Output", "params": {},
                 "inputs": ["act"]}]}


def mutated(change):
    doc = probe_doc()
    change(doc)
    return json.dumps(doc)


def set_node(i, key, value):
    return lambda doc: doc["nodes"][i].__setitem__(key, value)


def set_param(i, key, value):
    def change(doc):
        params = doc["nodes"][i]["params"]
        if value is KeyError:
            del params[key]
        else:
            params[key] = value
    return change


def with_node(kind, params):
    """Insert ``kind`` with ``params`` between the activation and Output."""
    def change(doc):
        doc["nodes"].insert(3, {"id": "x", "kind": kind, "params": params,
                                "inputs": ["act"]})
        doc["nodes"][4]["inputs"] = ["x"]
    return change


def test_probe_document_parses():
    assert validate(parse_graph(mutated(lambda doc: None))) == []


BAD_STRUCTURE = {  # case -> (mutation, the JSON path its error names)
    "node_list": (lambda doc: doc.__setitem__("nodes", [[]]), "$.nodes[0]"),
    "nodes_string": (lambda doc: doc.__setitem__("nodes", "nope"), "$.nodes"),
    "params_list_conv": (set_node(1, "params", []), "$.nodes[1].params"),
    "params_list_output": (set_node(3, "params", []), "$.nodes[3].params"),
    "quant_list": (set_node(1, "quant", []), "$.nodes[1].quant"),
    "ir_version_true": (lambda doc: doc.__setitem__("ir_version", True),
                        "$.ir_version"),
    "ir_version_float": (lambda doc: doc.__setitem__("ir_version", 1.0),
                         "$.ir_version"),
    "id_list": (set_node(1, "id", []), "$.nodes[1].id"),
    "inputs_string": (set_node(1, "inputs", "in"), "$.nodes[1].inputs"),
    "inputs_number": (set_node(1, "inputs", [0]), "$.nodes[1].inputs"),
    "inputs_nested_list": (set_node(1, "inputs", [["in"]]),
                           "$.nodes[1].inputs"),
    "inputs_object": (set_node(1, "inputs", {"in": 1}), "$.nodes[1].inputs"),
    "kind_list": (set_node(1, "kind", ["Conv2D"]), "$.nodes[1].kind"),
    "input_missing_c": (lambda doc: doc["input"].pop("c"), "$.input.c"),
    "activation_two_inputs": (set_node(2, "inputs", ["conv", "conv"]),
                              "$.nodes[2].inputs"),
}


@pytest.mark.parametrize("case", sorted(BAD_STRUCTURE))
def test_non_object_document_is_a_parse_error_with_its_path(case):
    change, path = BAD_STRUCTURE[case]
    with pytest.raises(ParseError) as err:
        parse_graph(mutated(change))
    assert err.value.path == path


CONV_PARAMS = "$.nodes[1].params"
BAD_PARAMS = {  # case -> (mutation, the JSON path its error names)
    "missing_kernel": (set_param(1, "kernel", KeyError),
                       f"{CONV_PARAMS}.kernel"),
    "missing_out_channels": (set_param(1, "out_channels", KeyError),
                             f"{CONV_PARAMS}.out_channels"),
    "stride_zero": (set_param(1, "stride", 0), f"{CONV_PARAMS}.stride"),
    "stride_true": (set_param(1, "stride", True), f"{CONV_PARAMS}.stride"),
    "stride_float": (set_param(1, "stride", 1.0), f"{CONV_PARAMS}.stride"),
    "kernel_string": (set_param(1, "kernel", "3x3"), f"{CONV_PARAMS}.kernel"),
    "kernel_three_dims": (set_param(1, "kernel", [3, 3, 3]),
                          f"{CONV_PARAMS}.kernel"),
    "kernel_zero": (set_param(1, "kernel", [0, 3]), f"{CONV_PARAMS}.kernel"),
    "kernel_float": (set_param(1, "kernel", [3.0, 3]),
                     f"{CONV_PARAMS}.kernel"),
    "out_channels_float": (set_param(1, "out_channels", 8.0),
                           f"{CONV_PARAMS}.out_channels"),
    "out_channels_negative": (set_param(1, "out_channels", -8),
                              f"{CONV_PARAMS}.out_channels"),
    "out_channels_zero": (set_param(1, "out_channels", 0),
                          f"{CONV_PARAMS}.out_channels"),
    "padding_full": (set_param(1, "padding", "full"),
                     f"{CONV_PARAMS}.padding"),
    "activation_gelu": (set_param(2, "activation", "gelu"),
                        "$.nodes[2].params.activation"),
    "activation_list": (set_param(2, "activation", ["relu"]),
                        "$.nodes[2].params.activation"),
    "dense_units_zero": (with_node("Dense", {"units": 0}),
                         "$.nodes[3].params.units"),
    "dense_missing_units": (with_node("Dense", {}),
                            "$.nodes[3].params.units"),
    "pointwise_missing_out_channels": (with_node("PointwiseConv2D", {}),
                                       "$.nodes[3].params.out_channels"),
    "depthwise_missing_kernel": (with_node("DepthwiseConv2D", {}),
                                 "$.nodes[3].params.kernel"),
    "quantnorm_string": (with_node("BatchNorm", {"quantnorm": "yes"}),
                         "$.nodes[3].params.quantnorm"),
    "pool_number": (with_node("Pool", {"pool": 3}), "$.nodes[3].params.pool"),
    "windowed_pool_missing_kernel": (with_node("Pool", {"pool": "max"}),
                                     "$.nodes[3].params.kernel"),
    "pointwise_kernel_3x3": (with_node("PointwiseConv2D",
                                       {"out_channels": 2, "kernel": [3, 3]}),
                             "$.nodes[3].params.kernel"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARAMS))
def test_bad_param_is_a_parse_error_with_its_path(case):
    change, path = BAD_PARAMS[case]
    with pytest.raises(ParseError) as err:
        parse_graph(mutated(change))
    assert err.value.path == path


@pytest.mark.parametrize("kind,params", [
    ("Pool", {"pool": "global_avg"}),
    ("Pool", {}),
    ("Pool", {"pool": "max", "kernel": [2, 2], "stride": 2,
              "padding": "valid"}),
    ("Dense", {"units": 4}),
    ("BatchNorm", {"quantnorm": False}),
    ("DepthwiseConv2D", {"kernel": [1, 3]}),
    ("PointwiseConv2D", {"out_channels": 2, "stride": 2}),
])
def test_good_params_parse(kind, params):
    """A parse keeps the params it checked, a kernel as a tuple."""
    g = parse_graph(mutated(with_node(kind, params)))
    assert validate(g) == []
    assert g.node("x").params == {
        key: tuple(value) if key == "kernel" else value
        for key, value in params.items()}


def set_quant(i, **fields):
    return set_node(i, "quant", dict({"scale": "pot"}, **fields))


def set_input(key, value):
    return lambda doc: doc["input"].__setitem__(key, value)


SUB = "subchannelwise"
QUANT = "$.nodes[1].quant"
BAD_FIELDS = {  # case -> (mutation, the JSON path its error names)
    "vectors_string": (set_quant(1, granularity=SUB, vectors_per_channel="2"),
                       f"{QUANT}.vectors_per_channel"),
    "vectors_float": (set_quant(1, granularity=SUB, vectors_per_channel=2.5),
                      f"{QUANT}.vectors_per_channel"),
    "vectors_true": (set_quant(1, granularity=SUB, vectors_per_channel=True),
                     f"{QUANT}.vectors_per_channel"),
    "vectors_one": (set_quant(1, granularity=SUB, vectors_per_channel=1),
                    f"{QUANT}.vectors_per_channel"),
    "vectors_missing": (set_quant(1, granularity=SUB),
                        f"{QUANT}.vectors_per_channel"),
    "vectors_not_subchannelwise": (set_quant(1, vectors_per_channel=2),
                                   f"{QUANT}.vectors_per_channel"),
    "granularity_number": (set_quant(1, granularity=7),
                           f"{QUANT}.granularity"),
    "granularity_list": (set_quant(1, granularity=[SUB]),
                         f"{QUANT}.granularity"),
    "weight_quantizer_number": (set_quant(1, weight_quantizer=3),
                                f"{QUANT}.weight_quantizer"),
    "weight_quantizer_unknown": (set_quant(1, weight_quantizer="log"),
                                 f"{QUANT}.weight_quantizer"),
    "input_n_float": (set_input("n", 1.5), "$.input.n"),
    "input_n_true": (set_input("n", True), "$.input.n"),
    "input_h_string": (set_input("h", "8"), "$.input.h"),
    "input_w_zero": (set_input("w", 0), "$.input.w"),
    "input_c_negative": (set_input("c", -3), "$.input.c"),
    "input_c_null": (set_input("c", None), "$.input.c"),
}


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
def test_bad_quant_or_input_field_is_a_parse_error_with_its_path(case):
    change, path = BAD_FIELDS[case]
    with pytest.raises(ParseError) as err:
        parse_graph(mutated(change))
    assert err.value.path == path


def test_good_subchannelwise_quant_parses():
    g = parse_graph(mutated(set_quant(1, granularity=SUB,
                                      vectors_per_channel=4)))
    assert validate(g) == []
    assert g.node("conv").quant.vectors_per_channel == 4


@pytest.mark.parametrize("kind,params", [
    ("BatchNorm", {}),
    ("Activation", {"activation": "relu"}),
    ("Add", {}),
    ("Concat", {}),
    ("Pool", {}),
])
def test_quant_on_a_kind_outside_the_compute_layers_is_a_parse_error(
        kind, params):
    def change(doc):
        with_node(kind, params)(doc)
        node = doc["nodes"][3]
        if kind in ("Add", "Concat"):
            node["inputs"].append("act")
        node["quant"] = {"granularity": "layerwise",
                         "scale": {"kind": "fixed", "bits": 8}}
    doc = json.loads(mutated(change))
    del doc["nodes"][3]["quant"]
    assert validate(parse_graph(json.dumps(doc))) == []
    with pytest.raises(ParseError) as err:
        parse_graph(mutated(change))
    assert err.value.path == "$.nodes[3].quant"
    assert f"not {kind}" in str(err.value)


class TestSharedParams:
    def test_only_nodes_of_one_body_share_a_params_dict(self):
        doc = probe_doc()
        conv = doc["nodes"][1]
        doc["nodes"][2:2] = [  # a twin of the conv, then one of each kind
            dict(conv, id="twin", params=dict(conv["params"])),
            dict(conv, id="wide", params=dict(conv["params"],
                                              out_channels=16)),
            dict(conv, id="tall", params=dict(conv["params"],
                                              kernel=[3, 1])),
            dict(conv, id="reordered",
                 params=dict(reversed(conv["params"].items()))),
            dict(conv, id="narrow", params=dict(conv["params"]),
                 weight_format={"kind": "fixed", "bits": 4}),
        ]
        text = json.dumps(doc)
        g = parse_graph(text)
        params = {node.id: node.params for node in g.nodes}
        assert params["twin"] is params["conv"]
        # Equal params of different bodies are equal, not shared.
        assert params["in"] == params["out"] == {}
        assert params["narrow"] == params["conv"]
        distinct = ["conv", "wide", "tall", "reordered", "narrow", "act",
                    "in", "out"]
        assert len({id(params[name]) for name in distinct}) == len(distinct)
        assert list(params["reordered"]) == list(reversed(params["conv"]))
        assert serialize_graph(g) == json.dumps(doc, indent=2) + "\n"
        other = parse_graph(text)
        assert not {id(n.params) for n in g.nodes} \
            & {id(n.params) for n in other.nodes}

    def test_twins_share_one_params_dict(self):
        """Nodes of one body share its params dict, formats and quant,
        whatever their ids and inputs, absent params included."""
        doc = probe_doc()
        conv = dict(doc["nodes"][1], quant={"scale": "pot"},
                    weight_format={"kind": "fixed", "bits": 8})
        act = doc["nodes"][2]
        del act["params"]
        doc["nodes"][1] = conv
        doc["nodes"][3:3] = [dict(conv, id="conv2", inputs=["act"]),
                             dict(act, id="act2", inputs=["conv2"])]
        doc["nodes"][-1]["inputs"] = ["act2"]
        g = parse_graph(json.dumps(doc))
        for first, twin in (("conv", "conv2"), ("act", "act2")):
            a, b = g.node(first), g.node(twin)
            assert b.params is a.params
            assert b.weight_format is a.weight_format
            assert b.quant is a.quant
        assert g.node("act2").params == {}
        assert g.node("conv2").quant is not None


DROP = object()  # a key to leave out of a node
CONV_BODY = {"kind": "Conv2D", "params": {"kernel": [1, 1], "out_channels": 4},
             "weight_format": {"kind": "fixed", "bits": 8}}
NORM_BODY = {"kind": "BatchNorm", "params": {"quantnorm": True}}
ADD_BODY = {"kind": "Add", "params": {}}
FILLER_BODY = {"kind": "Activation", "params": {"activation": "relu"}}


def twin_doc(first, second):
    """A document of an Input and two nodes, ``a`` with body ``first``
    and ``b`` as ``second`` gives it, both reading the Input (twice for a
    merge) unless ``second`` says otherwise."""
    nodes = [{"id": "in", "kind": "Input", "inputs": []}]
    for node_id, body in (("a", first), ("b", second)):
        if not isinstance(body, dict):  # an entry that is no node object
            nodes.append(body)
            continue
        node = {"id": node_id,
                "inputs": ["in", "in"] if body["kind"] == "Add" else ["in"]}
        node.update(body)
        nodes.append({k: v for k, v in node.items() if v is not DROP})
    return json.dumps({"ir_version": 1, "name": "twins",
                       "input": {"n": 1, "h": 4, "w": 4, "c": 3},
                       "nodes": nodes})


FORMAT_ERROR = "format kind must be a string, widths integers"
TWINS = {  # case -> (accepted body, its twin, the twin's error and path)
    "bits_float": (CONV_BODY, dict(CONV_BODY, weight_format={
        "kind": "fixed", "bits": 8.0}), FORMAT_ERROR, ".weight_format"),
    "bits_true": (CONV_BODY, dict(CONV_BODY, weight_format={
        "kind": "fixed", "bits": True}), FORMAT_ERROR, ".weight_format"),
    "out_channels_float": (CONV_BODY, dict(CONV_BODY, params={
        "kernel": [1, 1], "out_channels": 4.0}),
        "out_channels must be a positive integer, got 4.0",
        ".params.out_channels"),
    "quantnorm_one": (NORM_BODY, dict(NORM_BODY, params={"quantnorm": 1}),
                      "quantnorm must be true or false, got 1",
                      ".params.quantnorm"),
    "add_one_input": (ADD_BODY, dict(ADD_BODY, inputs=["in"]),
                      "Add needs at least two inputs", ".inputs"),
    "missing_id": (CONV_BODY, dict(CONV_BODY, id=DROP),
                   "missing node key 'id'", ""),
    "integer_id": (CONV_BODY, dict(CONV_BODY, id=7),
                   "node id must be a string", ".id"),
    "inputs_string": (CONV_BODY, dict(CONV_BODY, inputs="x"),
                      "inputs must be a list", ".inputs"),
    "inputs_missing": (CONV_BODY, dict(CONV_BODY, inputs=DROP),
                       "Conv2D takes exactly one input", ".inputs"),
    "not_an_object": (CONV_BODY, ["Conv2D"], "node must be an object", ""),
}


class TestBodyMemo:
    """A parse checks each distinct node body once; a repeat of an
    accepted body fails exactly as it would with no body before it."""

    @pytest.mark.parametrize("case", sorted(TWINS))
    def test_a_twin_of_an_accepted_body_fails_as_in_a_fresh_parse(self,
                                                                   case):
        accepted, twin, message, where = TWINS[case]
        parse_graph(twin_doc(accepted, accepted))
        with pytest.raises(ParseError) as after_twin:
            parse_graph(twin_doc(accepted, twin))
        with pytest.raises(ParseError) as fresh:
            parse_graph(twin_doc(FILLER_BODY, twin))
        error = after_twin.value
        assert (type(error), str(error), error.path) == (
            type(fresh.value), str(fresh.value), fresh.value.path)
        assert error.path == "$.nodes[2]" + where
        assert str(error) == f"{error.path}: {message}"

    def test_a_twin_with_its_keys_reordered_is_accepted(self):
        twin = dict(reversed(CONV_BODY.items()),
                    params=dict(reversed(CONV_BODY["params"].items())))
        g = parse_graph(twin_doc(CONV_BODY, twin))
        a, b = g.node("a"), g.node("b")
        assert validate(g) == []
        assert (a.kind, a.params, a.weight_format) \
            == (b.kind, b.params, b.weight_format)
        assert list(b.params) == ["out_channels", "kernel"]

    def test_a_node_without_inputs_reads_as_one_with_none(self):
        """An ``Input`` twin that omits ``inputs`` repeats the body of one
        that gives ``inputs: []``: it parses to the same node, sharing
        the first one's params."""
        body = {"kind": "Input", "params": {}, "inputs": []}
        g = parse_graph(twin_doc(body, dict(body, inputs=DROP)))
        a, b = g.node("a"), g.node("b")
        assert b == a._replace(id="b") and b.inputs == ()
        assert b.params is a.params

    def test_twins_share_one_node_body(self):
        g = parse_graph(twin_doc(CONV_BODY, CONV_BODY))
        a, b = g.node("a"), g.node("b")
        assert a.params is b.params and a.weight_format is b.weight_format
        assert a.inputs == b.inputs and a.inputs is not b.inputs

    def test_one_node_check_per_distinct_body_and_arity(self, monkeypatch):
        """A 512-branch fan-out, Input -> 512 x (PointwiseConv2D ->
        BatchNorm) -> Concat -> Output, with four channel counts: the
        node rules run once per distinct body and arity, not per node."""
        nodes = [{"id": "in", "kind": "Input", "params": {}, "inputs": []}]
        for b in range(512):
            nodes += [
                {"id": f"b{b}_pw", "kind": "PointwiseConv2D",
                 "params": {"out_channels": 1 + b % 4}, "inputs": ["in"],
                 "weight_format": {"kind": "fixed", "bits": 4}},
                {"id": f"b{b}_bn", "kind": "BatchNorm", "params": {},
                 "inputs": [f"b{b}_pw"]}]
        nodes += [{"id": "cat", "kind": "Concat", "params": {},
                   "inputs": [f"b{b}_bn" for b in range(512)]},
                  {"id": "out", "kind": "Output", "params": {},
                   "inputs": ["cat"]}]
        distinct = {(json.dumps({k: v for k, v in node.items()
                                 if k not in ("id", "inputs")}),
                     min(len(node["inputs"]), 2)) for node in nodes}
        calls = []

        def counted(node):
            calls.append(node.id)
            return node_problem(node)

        node_problem = ir._node_problem
        monkeypatch.setattr(ir, "_node_problem", counted)
        g = parse_graph(json.dumps({
            "ir_version": 1, "name": "fanout",
            "input": {"n": 1, "h": 4, "w": 4, "c": 3}, "nodes": nodes}))
        assert len(g.nodes) == 1027
        assert len(calls) == len(distinct) == 8
