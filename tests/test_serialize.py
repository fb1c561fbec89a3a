"""serialize_graph against json.dumps: its bytes equal
``json.dumps(reference_doc(g), indent=2) + "\\n"``, where ``reference_doc``
is the dict builder that serialize_graph rendered through json.dumps."""

import itertools
import json
import marshal
import math

import pytest
from hypothesis import given, settings, strategies as st

from acev2 import census, ir, zoo
from acev2.analysis import analyze
from acev2.errors import OutOfRangeError
from acev2.formats import NumericFormat
from acev2.ir import (
    Graph,
    LayerNode,
    QuantizationAnnotation,
    TensorShape,
    json_value,
    parse_graph,
    serialize_graph,
)

from test_kinds import graphs


def format_doc(fmt):
    doc = {"kind": fmt.kind, "bits": fmt.total_bits}
    if fmt.is_float:
        doc["exp"] = fmt.exponent_bits
        doc["man"] = fmt.mantissa_bits
    return doc


def quant_doc(quant):
    doc = {"granularity": quant.granularity}
    if quant.vectors_per_channel is not None:
        doc["vectors_per_channel"] = quant.vectors_per_channel
    doc["scale"] = ("pot" if quant.scale_format == "pot"
                    else format_doc(quant.scale_format))
    doc["weight_quantizer"] = quant.weight_quantizer
    return doc


def reference_doc(g):
    nodes = []
    for node in g.nodes:
        doc = {"id": node.id, "kind": node.kind, "params": dict(node.params),
               "inputs": list(node.inputs)}
        if node.weight_format is not None:
            doc["weight_format"] = format_doc(node.weight_format)
        if node.act_format is not None:
            doc["act_format"] = format_doc(node.act_format)
        if node.quant is not None:
            doc["quant"] = quant_doc(node.quant)
        nodes.append(doc)
    s = g.input_shape
    return {"ir_version": 1, "name": g.name,
            "input": {"n": s.n, "h": s.h, "w": s.w, "c": s.c},
            "nodes": nodes}


def reference(g):
    return json.dumps(reference_doc(g), indent=2) + "\n"


# Any code point, lone surrogates and control characters included.
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
FLOATS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324]))
INTS = st.one_of(st.integers(), st.integers(2 ** 63, 2 ** 200),
                 st.integers(-2 ** 200, -2 ** 63))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
# json.dumps coerces these keys to strings; serialize_graph does the same.
KEYS = st.one_of(TEXT, st.booleans(), st.none(), INTS, FLOATS)
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.lists(inner, max_size=3).map(tuple),
    st.dictionaries(KEYS, inner, max_size=3),
), max_leaves=12)
# Ids must hash for the graph's index, and not repeat (1 == True == 1.0).
IDS = st.one_of(TEXT, st.booleans(), st.none(), INTS,
                st.floats(allow_nan=False))
FORMATS = st.one_of(
    st.none(), st.integers(1, 64).map(NumericFormat.fixed),
    st.just(NumericFormat.binary()),
    st.builds(NumericFormat.flt, st.integers(1, 11), st.integers(0, 52)))
QUANTS = st.one_of(st.none(), st.builds(
    QuantizationAnnotation, st.sampled_from(["layerwise", "channelwise"]),
    st.one_of(st.just("pot"), FORMATS.filter(bool)),
    st.sampled_from(["linear", "pot"])))


@st.composite
def json_graphs(draw):
    """A random valid graph, then renamed with JSON values for its name
    and ids (inputs follow the ids), with some params and formats
    replaced by arbitrary ones; serializing checks none of it."""
    g = draw(graphs())
    ids = draw(st.lists(IDS, min_size=len(g.nodes), max_size=len(g.nodes),
                        unique=True))
    rename = dict(zip((node.id for node in g.nodes), ids))
    nodes = []
    for node in g.nodes:
        params = draw(st.one_of(st.just(node.params),
                                st.dictionaries(KEYS, JSON, max_size=4)))
        weight, act, quant = node.weight_format, node.act_format, node.quant
        if draw(st.booleans()):
            weight, act, quant = draw(FORMATS), draw(FORMATS), draw(QUANTS)
        nodes.append(LayerNode(rename[node.id], node.kind, params,
                               [rename[ref] for ref in node.inputs],
                               weight, act, quant))
    return Graph(draw(st.one_of(TEXT, JSON)), g.input_shape, nodes)


@settings(max_examples=150, deadline=None)
@given(json_graphs())
def test_bytes_equal_json_dumps_of_the_reference_document(g):
    assert serialize_graph(g) == reference(g)


# Values equal under == that json.dumps writes apart, in groups. The
# serializer renders each distinct block once, so it must never take one
# twin's text for another's.
TWINS = (
    (1, 1.0, True),
    (0, -0.0, 0.0, False),
    ([1], (1,), [1.0], [True]),
    ({"a": 1, "b": 2}, {"b": 2, "a": 1}, {"a": 1.0, "b": 2}),
    ({1: "x"}, {1.0: "x"}, {True: "x"}),
)


def copied(block):
    """An equal format or quant annotation that is another object."""
    if isinstance(block, QuantizationAnnotation):
        return QuantizationAnnotation(
            block.granularity, copied(block.scale_format),
            block.weight_quantizer, block.vectors_per_channel)
    return block if block in (None, "pot") else NumericFormat(*block)


@st.composite
def twin_graphs(draw):
    """A random valid graph whose params are drawn from few shapes with
    each value a member of a group of twins, in either key order, and
    whose formats and quants are the node's own or equal copies."""
    g = draw(graphs())
    shapes = draw(st.lists(st.lists(st.integers(0, len(TWINS) - 1),
                                    max_size=3), min_size=1, max_size=3))
    nodes = []
    for node in g.nodes:
        shape = draw(st.sampled_from(shapes))
        params = {f"p{j}": draw(st.sampled_from(TWINS[i]))
                  for j, i in enumerate(shape)}
        if draw(st.booleans()):
            params = dict(reversed(params.items()))
        if draw(st.booleans()):  # the params themselves are a twin
            params = dict(draw(st.sampled_from(TWINS[3] + TWINS[4])))
        blocks = node.weight_format, node.act_format, node.quant
        if draw(st.booleans()):
            blocks = map(copied, blocks)
        nodes.append(LayerNode(node.id, node.kind, params, node.inputs,
                               *blocks))
    return Graph(g.name, g.input_shape, nodes)


@settings(max_examples=300, deadline=None)
@given(twin_graphs())
def test_twins_render_apart(g):
    assert serialize_graph(g) == reference(g)


def test_a_buffer_with_a_rendered_floats_bits_still_raises():
    """marshal writes a numpy float and a numpy int of the same eight
    bytes alike; json.dumps writes the one and rejects the other."""
    np = pytest.importorskip("numpy")
    g = Graph("t", TensorShape(1, 1, 1, 1), [
        LayerNode("a", "Input", {"x": np.float64(1.0)}),
        LayerNode("b", "Input", {"x": np.int64(4607182418800017408)})])
    message = "Object of type int64 is not JSON serializable"
    with pytest.raises(TypeError, match=message):
        reference(g)
    with pytest.raises(TypeError, match=message):
        serialize_graph(g)


@settings(max_examples=150, deadline=None)
@given(JSON)
def test_json_value_equals_json_dumps_with_an_indent(value):
    """``json_value`` renders ``analyze --format json``'s report too, at
    the root of a document."""
    assert json_value(value) == json.dumps(value, indent=2)


def zoo_builds():
    """Every zoo builder under each combination of its flags, keyed by
    the `zoo emit` arguments that select it."""
    builds = {f"pikelpn-{s}": lambda s=s: zoo.build_pikelpn(s)
              for s in sorted(zoo.PIKE_SCALES)}
    for w, a, act, gran in itertools.product(
            (4, 8), (4, 8), ("relu", "prelu", "dprelu"),
            ("layerwise", "channelwise", "subchannelwise")):
        builds[f"mobilenet_v2-{w}w{a}a-{act}-{gran}"] = (
            lambda w=w, a=a, act=act, gran=gran:
            zoo.build_mobilenet_v2(w, a, act, gran))
    fixed = NumericFormat.fixed
    for w, a in itertools.product((2, 8), (4, 8)):
        builds[f"mobilenet_v1-{w}w{a}a"] = lambda w=w, a=a: \
            zoo.build_mobilenet_v1(weight_fmt=fixed(w), act_fmt=fixed(a))
    for b, bits in itertools.product((2, 3, 4), (1, 4)):
        fmt = NumericFormat.binary() if bits == 1 else fixed(bits)
        builds[f"resnet50-{b}branches-{bits}bit"] = lambda b=b, fmt=fmt: \
            zoo.build_resnet50_branches(b, fmt, fmt)
    return builds


ZOO_BUILDS = zoo_builds()


@pytest.mark.parametrize("key", sorted(ZOO_BUILDS))
def test_zoo_bytes_equal_json_dumps(key):
    g = ZOO_BUILDS[key]()
    assert serialize_graph(g) == reference(g)


@pytest.mark.parametrize("key", sorted(ZOO_BUILDS))
def test_a_build_shares_each_distinct_block(key):
    """Within one build, params of one marshal encoding (8, 8.0 and true
    differ) are one object, and so are equal formats and equal quant
    annotations, as in a parse; two builds share no params."""
    g, again = ZOO_BUILDS[key](), ZOO_BUILDS[key]()
    params = [node.params for node in g.nodes]
    assert len({id(p) for p in params}) == len(
        {marshal.dumps(dict(p), 2) for p in params}) < len(g.nodes)
    for fields in (("weight_format", "act_format"), ("quant",)):
        blocks = [getattr(node, field) for node in g.nodes
                  for field in fields if getattr(node, field) is not None]
        assert len({id(b) for b in blocks}) == len(set(blocks))
    assert not {id(p) for p in params} & {id(n.params) for n in again.nodes}


@pytest.mark.parametrize("key", sorted(ZOO_BUILDS))
def test_a_built_graph_analyzes_as_its_parse(key, monkeypatch):
    """A build shares its blocks as its parse does, so ``analyze`` of the
    two gives equal reports, ``energy_mj`` to the bit, from as many
    distinct layers. The parse checks each distinct node body and arity
    once and keeps them, so the walks of the parsed graph check none,
    and the walk of the build checks as many as the parse did."""
    built = ZOO_BUILDS[key]()
    text = serialize_graph(built)
    bodies = {(json.dumps({k: v for k, v in node.items()
                           if k not in ("id", "inputs")}),
               min(len(node["inputs"]), 2))
              for node in json.loads(text)["nodes"]}
    calls = []
    node_problem = ir._node_problem

    def counted(node):
        calls.append(node.id)
        return node_problem(node)

    monkeypatch.setattr(ir, "_node_problem", counted)
    parsed = parse_graph(text)
    assert len(calls) == len(bodies)
    seen = []
    checks = []
    for g in (built, parsed):
        layers = {id(layer) for _, layer in census.layer_walk(g)}
        calls.clear()
        report = analyze(g)
        seen.append((report, report.energy_mj.hex(), len(layers)))
        checks.append(len(calls))
    census.census_graph(parsed)
    assert seen[0] == seen[1]
    assert checks == [len(bodies), 0] and calls == []


def copied_blocks(g):
    """``g`` with a copy of every block for each node: no two nodes share
    a params dict, format or quant annotation."""
    def copy(block):
        return None if block is None else block.__class__(*block)

    return Graph(g.name, g.input_shape, [
        LayerNode(n.id, n.kind, dict(n.params), n.inputs,
                  copy(n.weight_format), copy(n.act_format), copy(n.quant))
        for n in g.nodes])


@pytest.mark.parametrize("key", sorted(ZOO_BUILDS))
def test_share_blocks_gives_copied_blocks_the_layers_of_the_parse(key):
    """A graph built with per-node copies of its blocks walks one layer
    per node body and input shapes, not per distinct layer; after
    ``share_blocks`` it has the distinct layers, the report and the bytes
    of its parse."""
    g = ZOO_BUILDS[key]()
    parsed = parse_graph(serialize_graph(g))
    copied = copied_blocks(g)

    def layers(graph):
        return len({id(layer) for _, layer in census.layer_walk(graph)})

    assert layers(copied) > layers(parsed)
    copied = Graph(g.name, g.input_shape, ir.share_blocks(copied.nodes))
    report = analyze(copied)
    assert (report, report.energy_mj.hex(), layers(copied)) == (
        analyze(parsed), analyze(parsed).energy_mj.hex(), layers(parsed))
    assert serialize_graph(copied) == serialize_graph(parsed)


def test_share_blocks_is_type_exact_and_keeps_what_it_cannot_key():
    """Params share by their ``marshal`` encoding, so 8 and 8.0 and 1
    and true stay apart; formats share by class and value. Params marshal
    cannot encode, or an unhashable format, keep their own object. The
    nodes given are left as they are: the shared ones are new nodes,
    equal to them."""
    int8 = NumericFormat.fixed(8)
    odd = {"units": object()}
    unhashable = ["fixed", 8]
    nodes = [LayerNode("a", "Dense", {"units": 8}, weight_format=int8),
             LayerNode("b", "Dense", {"units": 8},
                       weight_format=NumericFormat(*int8)),
             LayerNode("c", "Dense", {"units": 8.0}),
             LayerNode("d", "Pool", {"pool": "max", "stride": 1}),
             LayerNode("e", "Pool", {"pool": "max", "stride": True},
                       weight_format=("fixed", 8, None, None)),
             LayerNode("f", "Dense", odd, weight_format=unhashable)]
    shared = ir.share_blocks(nodes)
    assert shared == nodes and nodes[0].params is not nodes[1].params
    a, b, c, d, e, f = shared
    assert a.params is b.params and a.weight_format is b.weight_format
    assert a.params is not c.params and d.params is not e.params
    assert e.weight_format.__class__ is tuple
    assert f.params is nodes[5].params and f.weight_format is unhashable


@pytest.mark.parametrize("key", sorted(ZOO_BUILDS))
def test_each_distinct_block_renders_once(key, monkeypatch):
    """A build shares one params dict, format or quant annotation per
    distinct block, so each distinct params, format or quant document is
    rendered once, one render per distinct block object."""
    g = ZOO_BUILDS[key]()
    objects = {id(block) for node in g.nodes
               for block in (node.params, node.weight_format,
                             node.act_format, node.quant)
               if block is not None}
    docs = [dict(node.params) for node in g.nodes]
    docs += [block.to_json() for node in g.nodes
             for block in (node.weight_format, node.act_format, node.quant)
             if block is not None]
    rendered = []

    def counted(value, indent="", _render=json_value):
        if indent == "      ":  # a node's value: depth 3
            rendered.append(value)
        return _render(value, indent)

    monkeypatch.setattr(ir, "json_value", counted)
    assert serialize_graph(g) == reference(g)
    assert len(rendered) == len(objects) == len(
        {marshal.dumps(doc, 2) for doc in docs})
    assert len(rendered) < len(g.nodes)


def node_with_params(params):
    return Graph("t", TensorShape(1, 1, 1, 1),
                 [LayerNode("in", "Input", params)])


def test_empty_graph():
    g = Graph("", TensorShape(1, 1, 1, 1), [])
    assert serialize_graph(g) == reference(g)
    assert serialize_graph(g).endswith('"nodes": []\n}\n')


def test_non_string_keys_are_coerced_as_json_dumps_coerces_them():
    g = node_with_params({1: 2, 2.5: [], False: {}, None: (1,)})
    text = serialize_graph(g)
    assert text == reference(g)
    assert json.loads(text)["nodes"][0]["params"] == {
        "1": 2, "2.5": [], "false": {}, "null": [1]}


@pytest.mark.parametrize("params,message", [
    ({(1, 2): 3}, "keys must be str, int, float, bool or None, not tuple"),
    ({"x": {1, 2}}, "Object of type set is not JSON serializable"),
])
def test_what_json_dumps_rejects_is_the_same_type_error(params, message):
    g = node_with_params(params)
    with pytest.raises(TypeError, match=message):
        reference(g)
    with pytest.raises(TypeError, match=message):
        serialize_graph(g)


@pytest.mark.parametrize("fields", [
    ("fixed", 8.0), ("fixed", True), ("fixed", 8.5),
    ("float", 16.0, 5, 10), ("float", 16, True, 14), ("float", 16, 5, 10.0),
], ids=lambda fields: "-".join(map(str, fields)))
def test_formats_with_non_integer_widths_do_not_construct(fields):
    """8.0 and True equal widths but print and serialize apart, and a
    document holding them does not parse: no such format exists."""
    with pytest.raises(OutOfRangeError, match="must be an integer"):
        NumericFormat(*fields)
