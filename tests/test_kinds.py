"""The per-kind rule table: its coverage, and properties of random valid
graphs built from every node kind."""

import json
import math
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from acev2 import cost, ir
from acev2.analysis import analyze, entry_ace
from acev2.census import MAC_CATEGORIES, census_graph, layer_walk
from acev2.cost import MAC, MULTIPLY
from acev2.errors import DanglingInputError, ParseError, ShapeMismatchError
from acev2.formats import FP16, FP32, NumericFormat
from acev2.ir import (
    KIND_RULES,
    Graph,
    LayerNode,
    QuantizationAnnotation,
    TensorShape,
    parse_graph,
    serialize_graph,
    validate,
    weight_elements,
)

FIXTURES = Path(__file__).parent / "fixtures"


def test_table_keys_are_exactly_the_kind_constants():
    kinds = {value for name, value in vars(ir).items()
             if name.startswith("KIND_") and isinstance(value, str)}
    assert set(KIND_RULES) == kinds


def test_every_kind_fixture_covers_the_table():
    g = parse_graph((FIXTURES / "all_kinds_n2.json").read_text())
    assert {node.kind for node in g.nodes} == set(KIND_RULES)
    pools = {node.params["pool"] for node in g.nodes if node.kind == "Pool"}
    assert pools == {"global_avg", "max"}
    assert g.input_shape.n == 2


def reference_macs(node, src, out):
    """MACs by kind, written out: one kernel application per output
    element for convolutions, one input sample per output for Dense."""
    p = node.params
    if node.kind == "Conv2D":
        return out.elements * p["kernel"][0] * p["kernel"][1] * src.c
    if node.kind == "DepthwiseConv2D":
        return out.elements * p["kernel"][0] * p["kernel"][1]
    if node.kind == "PointwiseConv2D":
        return out.elements * src.c
    return out.elements * (src.elements // src.n)


FIXED = st.integers(2, 16).map(NumericFormat.fixed)
QUANTS = st.one_of(
    st.none(),
    st.builds(QuantizationAnnotation, st.sampled_from(
        ["layerwise", "channelwise"]), st.one_of(FIXED, st.just("pot"))),
    st.builds(QuantizationAnnotation, st.just("subchannelwise"), FIXED,
              vectors_per_channel=st.integers(2, 3)),
    st.builds(QuantizationAnnotation, scale_format=st.just("pot"),
              weight_quantizer=st.just("pot")),
)
BODY_KINDS = sorted(set(KIND_RULES) - {"Input", "Output"})


def window_params(draw, src):
    """Kernel, stride and padding that fit ``src``."""
    kernel = [draw(st.integers(1, 3)), draw(st.integers(1, 3))]
    fits = max(kernel) <= min(src.h, src.w)
    return {"kernel": kernel, "stride": draw(st.integers(1, 2)),
            "padding": draw(st.sampled_from(["same", "valid"] if fits
                                            else ["same"]))}


@st.composite
def graphs(draw):
    """A valid graph over every node kind: a random producer for each
    node, merges over producers of a matching shape, one Output."""
    shape = TensorShape(1, draw(st.integers(1, 9)), draw(st.integers(1, 9)),
                        draw(st.integers(1, 5)))
    nodes = [LayerNode("in", "Input")]
    shapes = {"in": shape}
    for i in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(BODY_KINDS))
        src = draw(st.sampled_from(sorted(shapes)))
        s = shapes[src]
        params, inputs = {}, [src]
        weight_format = act_format = quant = None
        if kind in ir.COMPUTE_KINDS:
            weight_format, act_format = draw(FIXED), draw(FIXED)
            quant = draw(QUANTS)
        if kind == "Conv2D":
            params = dict(window_params(draw, s),
                          out_channels=draw(st.integers(1, 5)))
        elif kind == "DepthwiseConv2D":
            params = window_params(draw, s)
        elif kind == "PointwiseConv2D":
            params = {"out_channels": draw(st.integers(1, 5)),
                      "stride": draw(st.integers(1, 2))}
        elif kind == "Dense":
            params = {"units": draw(st.integers(1, 5))}
        elif kind == "BatchNorm":
            params = {"quantnorm": draw(st.booleans())}
            weight_format = draw(st.one_of(st.none(), FIXED))
        elif kind == "Activation":
            params = {"activation": draw(st.sampled_from(
                ir.ACTIVATION_KINDS))}
            weight_format = draw(st.one_of(st.none(), FIXED))
        elif kind == "Pool":
            pool = draw(st.sampled_from(["global_avg", "max", "avg"]))
            params = {"pool": pool}
            if pool != "global_avg":
                params.update(window_params(draw, s))
        else:  # Add and Concat merge producers of a matching shape
            match = ((lambda t: t == s) if kind == "Add"
                     else (lambda t: (t.n, t.h, t.w) == (s.n, s.h, s.w)))
            peers = sorted(k for k, t in shapes.items() if match(t))
            inputs += draw(st.lists(st.sampled_from(peers), min_size=1,
                                    max_size=3))
            act_format = draw(st.one_of(st.none(), FIXED))
        node = LayerNode(f"{kind.lower()}{i}", kind, params, inputs,
                         weight_format, act_format, quant)
        nodes.append(node)
        shapes[node.id] = KIND_RULES[kind].shape(
            node, [shapes[ref] for ref in node.inputs])
    nodes.append(LayerNode("out", "Output", {}, [nodes[-1].id]))
    return Graph("random", shape, nodes)


def walk_shapes(g):
    """Every node's output shape, from the analysis walk."""
    return {node.id: layer.shape for node, layer in layer_walk(g)}


def at_batch(g, n):
    s = g.input_shape
    return Graph(g.name, TensorShape(n, s.h, s.w, s.c), g.nodes)


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(2, 4))
def test_random_graphs_are_linear_in_batch_and_round_trip(g, n):
    assert validate(g) == []
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text

    one, many = g, at_batch(g, n)
    tally1, tally_n = census_graph(one), census_graph(many)
    assert [(e.layer_id, e.op_class, e.category) for e in tally_n.entries] \
        == [(e.layer_id, e.op_class, e.category) for e in tally1.entries]
    assert [e.count for e in tally_n.entries] \
        == [n * e.count for e in tally1.entries]
    report1, report_n = analyze(one), analyze(many)
    assert report_n.total_ace == n * report1.total_ace

    fp1, fp_n = report1.footprint, report_n.footprint
    assert fp_n.weight_elems == fp1.weight_elems
    assert fp_n.activation_elems == n * fp1.activation_elems

    shapes = walk_shapes(many)
    for node in many.nodes:
        if node.kind in ir.COMPUTE_KINDS:
            core = [e.count for e in tally_n.entries
                    if e.layer_id == node.id and e.category != "quant_scale"]
            macs = reference_macs(node, shapes[node.inputs[0]],
                                  shapes[node.id])
            assert core and set(core) == {macs}


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_a_built_reference_fault_raises_as_its_parse_does(g, data):
    """One input renamed to an id no node holds (or to no string at all),
    or one node given another's id: ``Graph`` of the edited nodes and
    ``parse_graph`` of the same edit of the graph's document raise the
    same type, path and message, naming the edited input's node or the
    second holder of the id."""
    doc = json.loads(serialize_graph(g))
    nodes = list(g.nodes)
    i = data.draw(st.integers(1, len(nodes) - 1))  # each holds an input
    if data.draw(st.booleans()):
        j = data.draw(st.integers(0, len(nodes[i].inputs) - 1))
        ref = data.draw(st.sampled_from(["ghost", "", 5, None, ["in"]]))
        doc["nodes"][i]["inputs"][j] = ref
        inputs = list(nodes[i].inputs)
        inputs[j] = ref
        nodes[i] = nodes[i]._replace(inputs=tuple(inputs))
        expected = (DanglingInputError, f"$.nodes[{i}].inputs",
                    f"unresolved input id {ref!r}")
    else:
        k = data.draw(st.integers(0, len(nodes) - 1).filter(lambda k: k != i))
        twin = nodes[k].id
        doc["nodes"][i]["id"] = twin
        nodes[i] = nodes[i]._replace(id=twin)
        expected = (ParseError, f"$.nodes[{max(i, k)}].id",
                    f"duplicate node id {twin!r}")
    error, path, message = expected
    with pytest.raises(ParseError) as parsed:
        parse_graph(json.dumps(doc))
    with pytest.raises(ParseError) as built:
        Graph(g.name, g.input_shape, nodes)
    for raised in (parsed.value, built.value):
        assert (type(raised), raised.path, str(raised)) \
            == (error, path, f"{path}: {message}")


def reference_branch_factor(g, order):
    """The widest topological cut, from an explicit edge list swept over
    every cut."""
    position = {node.id: i for i, node in enumerate(order)}
    edges = [(position[ref], position[node.id])
             for node in g.nodes for ref in node.inputs]
    cuts = [sum(src < cut <= dst for src, dst in edges)
            for cut in range(1, len(order))]
    return max([1] + cuts)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_analyze_equals_its_reports_called_separately(g):
    """Each figure of ``analyze``, priced in one pass per distinct key,
    equals the same figure priced entry by entry over ``census_graph``
    in walk order, with the footprint counted node by node. So does each
    figure of ``g`` with twins, built or parsed, whose repeated layers the
    pricing pass resolves once."""
    twins = with_twins(g)
    for graph in (g, twins, parse_graph(serialize_graph(twins))):
        report = analyze(graph)
        by_category, total_pj, flagged, ops = {}, 0.0, [], 0
        for e in census_graph(graph).entries:
            by_category[e.category] = (by_category.get(e.category, 0)
                                       + entry_ace(e))
            unit = cost.energy_of_op(e.op_class, e.format_a, e.format_b,
                                     shift_range=e.shift_range)
            total_pj += unit.picojoules * e.count
            if unit.extrapolated:
                flagged.append((e.layer_id, e.op_class))
            ops += e.count * (2 if e.op_class == MAC else 1)
        total = sum(by_category.values())
        assert (report.total_ace, report.ace_by_category) \
            == (total, by_category)
        mac = sum(v for k, v in by_category.items() if k in MAC_CATEGORIES)
        assert report.mac_share == (float(mac / total) if total else None)
        assert (report.energy_mj, report.extrapolated_energy_ops) \
            == (total_pj / 1e9, flagged)

        shapes = walk_shapes(graph)
        weights = sum(weight_elements(node, shapes[node.inputs[0]])
                      for node in graph.nodes if node.inputs)
        activations = sum(shapes[node.id].elements for node in graph.nodes
                          if node.kind not in ("Activation", "Output"))
        factor = reference_branch_factor(graph, graph.nodes)
        fp = report.footprint
        assert (fp.weight_elems, fp.activation_elems,
                fp.concurrent_branch_factor) == (weights, activations, factor)
        assert report.arithmetic_intensity == ops / (
            factor * (weights + activations))


def op_counts(g):
    """Census op counts per (op class, category)."""
    counts = Counter()
    for e in census_graph(g).entries:
        counts[e.op_class, e.category] += e.count
    return counts


@settings(max_examples=100, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_declaration_order_changes_no_cost(g, rng):
    """Declaring the nodes in another order, with a forward reference so
    that the full sort runs, changes the walk order and no cost: the same
    exact bit-adders, op counts, weights, activations and extrapolated
    ops, and the energy to within float rounding. The branch factor is
    that of the order the sort gives."""
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    nodes.sort(key=lambda node: node.kind != "Output")  # a forward reference
    shuffled = Graph(g.name, g.input_shape, nodes)
    report, other = analyze(g), analyze(shuffled)
    assert (other.total_ace, other.ace_by_category) \
        == (report.total_ace, report.ace_by_category)
    assert op_counts(shuffled) == op_counts(g)
    assert (other.footprint.weight_elems, other.footprint.activation_elems) \
        == (report.footprint.weight_elems, report.footprint.activation_elems)
    assert Counter(other.extrapolated_energy_ops) \
        == Counter(report.extrapolated_energy_ops)
    assert math.isclose(other.energy_mj, report.energy_mj, rel_tol=1e-12)
    assert other.footprint.concurrent_branch_factor == reference_branch_factor(
        shuffled, ir.topological_order(shuffled))


@settings(max_examples=100, deadline=None)
@given(graphs(), st.randoms(use_true_random=False))
def test_the_walk_visits_the_sorted_order(g, rng):
    """The walk visits the nodes in stable topological order, whether it
    walks them as declared or sorts them, for a graph and for shuffled
    declarations of it."""
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    for graph in (g, Graph(g.name, g.input_shape, nodes)):
        assert [node for node, _ in layer_walk(graph)] \
            == ir.topological_order(graph)


def with_nodes(g, change):
    """``g`` with ``change(node)`` in place of each node it returns."""
    return Graph(g.name, g.input_shape, [change(node) or node
                                         for node in g.nodes])


def layer_ace(g, category):
    """Bit-adders per layer in one census category, and the op classes
    that make them up."""
    ace, ops = {}, set()
    for e in census_graph(g).entries:
        if e.category == category:
            ace[e.layer_id] = ace.get(e.layer_id, 0) + entry_ace(e)
            ops.add(e.op_class)
    return ace, ops


@settings(max_examples=100, deadline=None)
@given(graphs(), st.sampled_from([FP16, FP32]))
def test_pot_scales_replace_float_scale_multiplies(g, scale):
    """Double Quantization: a power-of-two scale in place of a float one
    removes each layer's scale multiplies and never raises its scale
    cost. (A narrow fixed-point scale can cost less than the shift.)"""
    def scaled(fmt):
        return with_nodes(g, lambda node: node._replace(
            quant=node.quant._replace(scale_format=fmt))
            if node.quant and node.quant.weight_quantizer == "linear"
            else None)

    floated, float_ops = layer_ace(scaled(scale), "quant_scale")
    assume(floated)
    pot, pot_ops = layer_ace(scaled("pot"), "quant_scale")
    assert float_ops == {MULTIPLY} and MULTIPLY not in pot_ops
    assert pot.keys() == floated.keys()
    assert all(pot[layer] <= floated[layer] for layer in floated)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.integers(1, 16))
def test_a_fixed_point_batchnorm_costs_less_than_fp32(g, bits):
    """QuantNorm: a BatchNorm whose parameters are fixed-point at 16 bits
    or fewer costs fewer bit-adders than the same node at fp32."""
    def norms_at(fmt):
        return with_nodes(g, lambda node: node._replace(weight_format=fmt)
                          if node.kind == "BatchNorm" else None)

    fp32, _ = layer_ace(norms_at(FP32), "batchnorm")
    assume(fp32)
    fixed, _ = layer_ace(norms_at(NumericFormat.fixed(bits)), "batchnorm")
    assert fixed.keys() == fp32.keys()
    assert all(fixed[layer] < fp32[layer] for layer in fp32)


WIDTH_SLOTS = ("weight_format", "act_format", "scale_format")


def fixed_at(node, slot):
    """The fixed-point format in ``slot`` of ``node`` (its quant's, for
    the scale), or None."""
    fmt = getattr(node.quant if slot == "scale_format" else node, slot, None)
    return fmt if isinstance(fmt, NumericFormat) and fmt.is_fixed else None


def total_ace(g):
    return sum(map(entry_ace, census_graph(g).entries))


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_lowering_a_fixed_point_width_never_raises_total_ace(g, data):
    """Any weight, activation or scale width of any node, lowered (pot
    weights keep their 2-bit minimum), costs no more bit-adders."""
    slots = [(i, slot) for i, node in enumerate(g.nodes)
             for slot in WIDTH_SLOTS if fixed_at(node, slot)]
    assume(slots)
    i, slot = data.draw(st.sampled_from(slots))
    node = g.nodes[i]
    pot = node.quant is not None and node.quant.weight_quantizer == "pot"
    floor = 2 if pot and slot == "weight_format" else 1
    bits = fixed_at(node, slot).total_bits
    assume(bits > floor)
    lower = NumericFormat.fixed(data.draw(st.integers(floor, bits - 1)))
    if slot == "scale_format":
        lowered = node._replace(quant=node.quant._replace(scale_format=lower))
    else:
        lowered = node._replace(**{slot: lower})
    nodes = list(g.nodes)
    nodes[i] = lowered
    narrow = Graph(g.name, g.input_shape, nodes)
    assert validate(narrow) == []
    assert total_ace(narrow) <= total_ace(g)


def conv_costs(g):
    """Conv bit-adders, conv op counts per op class, and weights."""
    entries = [e for e in census_graph(g).entries if e.category == "conv"]
    counts = Counter()
    for e in entries:
        counts[e.op_class] += e.count
    return (sum(map(entry_ace, entries)), counts,
            sum(layer.weights for _, layer in layer_walk(g)))


@settings(max_examples=150, deadline=None)
@given(graphs(), st.data())
def test_splitting_a_conv_across_a_concat_keeps_its_cost(g, data):
    """A Conv2D of c output channels, replaced by two convs of c1 and
    c - c1 channels on the same input joined by a Concat under its id,
    keeps the graph's conv bit-adders, MACs and weights."""
    convs = [i for i, node in enumerate(g.nodes)
             if node.kind == "Conv2D" and node.params["out_channels"] > 1]
    assume(convs)
    i = data.draw(st.sampled_from(convs))
    conv = g.nodes[i]
    channels = conv.params["out_channels"]
    first = data.draw(st.integers(1, channels - 1))
    halves = [conv._replace(id=f"{conv.id}_{half}",
                            params=dict(conv.params, out_channels=c))
              for half, c in (("a", first), ("b", channels - first))]
    cat = LayerNode(conv.id, "Concat", {}, [half.id for half in halves])
    split = Graph(g.name, g.input_shape,
                  [*g.nodes[:i], *halves, cat, *g.nodes[i + 1:]])
    assert validate(split) == []
    assert conv_costs(split) == conv_costs(g)


def with_twins(g):
    """``g`` with a parallel sibling after each body node: the same kind,
    params, formats, quant and inputs under a new id, so each twin
    repeats a layer."""
    nodes = []
    for node in g.nodes:
        nodes.append(node)
        if node.kind not in ("Input", "Output"):
            nodes.append(node._replace(id=node.id + "_twin"))
    return Graph(g.name, g.input_shape, nodes)


def renamed(text):
    """Document ``text`` with every node id, and every reference to it,
    renamed."""
    doc = json.loads(text)
    for node in doc["nodes"]:
        node["id"] = "r_" + node["id"]
        node["inputs"] = ["r_" + ref for ref in node["inputs"]]
    return json.dumps(doc)


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_repeated_layers_cost_what_fresh_ones_do(g):
    """A parse shares one params dict per distinct node body, so twins
    hit the layer memo; with a fresh params dict on every node nothing is
    shared and every node misses. Both give the same report, to the
    last bit of the energy, and the same tally. Renaming every id
    renames the extrapolated ops and changes nothing else."""
    text = serialize_graph(with_twins(g))
    shared, fresh = parse_graph(text), parse_graph(text)
    fresh = with_nodes(fresh, lambda node: node._replace(
        params=dict(node.params)))
    walks = layer_walk(shared), layer_walk(fresh)
    assert len({id(layer) for _, layer in walks[0]}) < len(walks[0])
    assert len({id(layer) for _, layer in walks[1]}) == len(walks[1])

    report = analyze(shared)
    assert report == analyze(fresh)
    assert repr(report.energy_mj) == repr(analyze(fresh).energy_mj)
    assert census_graph(shared).entries == census_graph(fresh).entries

    other = analyze(parse_graph(renamed(text)))
    assert other.extrapolated_energy_ops == [
        ("r_" + layer, op) for layer, op in report.extrapolated_energy_ops]
    assert other._replace(extrapolated_energy_ops=[]) \
        == report._replace(extrapolated_energy_ops=[])
    assert repr(other.energy_mj) == repr(report.energy_mj)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.name)
def test_macs_from_weights_match_the_written_out_count(fixture):
    g = parse_graph(fixture.read_text())
    shapes = walk_shapes(g)
    macs = {e.layer_id: e.count for e in census_graph(g).entries
            if e.category in ("conv", "dense")}
    for node in g.nodes:
        if node.kind in ir.COMPUTE_KINDS:
            assert macs[node.id] == reference_macs(
                node, shapes[node.inputs[0]], shapes[node.id])


@pytest.mark.parametrize("kind,inputs,rule,message", [
    ("Input", ["in"], "input-arity", "Input nodes take no inputs"),
    ("Output", [], "single-input", "Output takes exactly one input"),
    ("Conv2D", ["in", "in"], "single-input",
     "Conv2D takes exactly one input"),
    ("Pool", ["in", "in"], "single-input", "Pool takes exactly one input"),
    ("Add", ["in"], "merge-arity", "Add needs at least two inputs"),
    ("Concat", [], "merge-arity", "Concat needs at least two inputs"),
])
def test_arity_diagnostics(kind, inputs, rule, message):
    params = {"kernel": [1, 1], "out_channels": 1} if kind == "Conv2D" else {}
    g = Graph("t", TensorShape(1, 4, 4, 3), [
        LayerNode("in", "Input"), LayerNode("x", kind, params, inputs)])
    diags = [d for d in validate(g) if d.node_id == "x"]
    assert [(d.rule, d.message) for d in diags] == [(rule, message)]


@pytest.mark.parametrize("kind", ["Concat", "Add"])
def test_merges_accept_two_or_more_inputs(kind):
    g = Graph("t", TensorShape(1, 4, 4, 3), [
        LayerNode("in", "Input"), LayerNode("x", kind, {}, ["in"] * 5)])
    assert validate(g) == []


def broken(node, how, pick):
    """``node`` breaking one node rule the way ``how`` names (``pick``
    chooses the param to drop), or None if ``how`` does not apply."""
    kind = node.kind
    required = sorted(KIND_RULES[kind].required)
    if how == "drop a required param" and required:
        key = required[pick % len(required)]
        return node._replace(params={k: v for k, v in node.params.items()
                                     if k != key})
    if how == "add an input" and kind != "Input":
        return node._replace(inputs=(*node.inputs, "in"))
    if how == "windowed pool without a kernel" and kind == "Pool":
        return node._replace(params={"pool": "max"})
    if how == "quant on a non-compute kind" and kind not in ir.COMPUTE_KINDS:
        return node._replace(quant=QuantizationAnnotation())
    if how == "3x3 pointwise kernel" and kind == "PointwiseConv2D":
        return node._replace(params=dict(node.params, kernel=[3, 3]))
    if how == "pot weights on fp16" and kind in ir.COMPUTE_KINDS:
        return node._replace(weight_format=FP16,
                             quant=QuantizationAnnotation(
                                 scale_format="pot", weight_quantizer="pot"))
    return None


BREAKS = ("drop a required param", "add an input",
          "windowed pool without a kernel", "quant on a non-compute kind",
          "3x3 pointwise kernel", "pot weights on fp16")


@settings(max_examples=200, deadline=None)
@given(graphs(), st.sampled_from(BREAKS), st.integers(0, 1), st.data())
def test_validate_and_parse_hold_a_graph_to_one_rule_set(g, how, pick, data):
    """One node of a valid graph, broken: ``validate`` reports a problem
    exactly when parsing the serialized graph raises, and both name the
    same node with the same message; ``analyze`` and ``census_graph`` of
    the broken graph then raise the parse's error, type, path and
    message. (Adding an input to a merge breaks no node rule, and the
    parse does not complain; it can break the merge's shape, which
    ``validate`` reports for the node that ``analyze`` raises for.)"""
    candidates = [i for i, node in enumerate(g.nodes)
                  if broken(node, how, pick) is not None]
    assume(candidates)
    i = data.draw(st.sampled_from(candidates))
    nodes = list(g.nodes)
    nodes[i] = broken(nodes[i], how, pick)
    g = Graph(g.name, g.input_shape, nodes)
    diags = validate(g)
    try:
        parse_graph(serialize_graph(g))
    except ParseError as exc:
        named = int(exc.path[len("$.nodes["):].split("]")[0])
        assert [(d.node_id, str(exc)) for d in diags] \
            == [(nodes[named].id, f"{exc.path}: {diags[0].message}")]
        assert named == i
        for walk_stage in (analyze, census_graph):
            with pytest.raises(ParseError) as walked:
                walk_stage(g)
            assert (type(walked.value), walked.value.path, str(walked.value)) \
                == (type(exc), exc.path, str(exc))
    else:
        assert [d.rule for d in diags] in ([], ["shape"])
        if diags:
            with pytest.raises(ShapeMismatchError) as walked:
                analyze(g)
            assert (walked.value.node_id, diags[0].node_id) \
                == (nodes[i].id, nodes[i].id)


def int_slots(value):
    """(container, key) of each integer nested in the JSON value
    ``value``."""
    if isinstance(value, dict):
        keys = list(value)
    elif isinstance(value, list):
        keys = range(len(value))
    else:
        return []
    slots = []
    for key in keys:
        if type(value[key]) is int:
            slots.append((value, key))
        else:
            slots += int_slots(value[key])
    return slots


def dicts_in(value):
    """``value`` and every dict nested in it that has two or more keys."""
    if isinstance(value, list):
        return [d for item in value for d in dicts_in(item)]
    if not isinstance(value, dict):
        return []
    found = [value] if len(value) > 1 else []
    return found + [d for item in value.values() for d in dicts_in(item)]


@st.composite
def twinned_documents(draw):
    """The document of a random valid graph with copies of node bodies
    under new ids and the same inputs, some of them changed: an integer
    made a float or a bool (which no rule accepts), or the keys of one of
    its objects reversed (which changes nothing a rule reads)."""
    doc = json.loads(serialize_graph(draw(graphs())))
    nodes = []
    for node in doc["nodes"]:
        nodes.append(node)
        for c in range(draw(st.integers(0, 2))):
            twin = dict(json.loads(json.dumps(node)), id=f"{node['id']}_{c}")
            body = {k: v for k, v in twin.items() if k not in ("id", "inputs")}
            how = draw(st.sampled_from(["same", "float", "bool", "reorder"]))
            slots = int_slots(body)
            if how in ("float", "bool") and slots:
                container, key = draw(st.sampled_from(slots))
                cast = float if how == "float" else bool
                container[key] = cast(container[key])
            elif how == "reorder":
                target = draw(st.sampled_from(dicts_in(body) + [twin]))
                items = list(target.items())
                target.clear()
                target.update(reversed(items))
            nodes.append(twin)
    doc["nodes"] = nodes
    return doc


def alone(doc, k):
    """How node ``k`` of ``doc`` fares parsed in a document of its own,
    after an Input for each id it reads: None if accepted, else the
    error's type, its path within the node and its message."""
    node = doc["nodes"][k]
    sources = [{"id": ref, "kind": "Input"}
               for ref in dict.fromkeys(node["inputs"])]
    try:
        parse_graph(json.dumps(dict(doc, nodes=sources + [node])))
    except ParseError as exc:
        at = f"$.nodes[{len(sources)}]"
        assert exc.path.startswith(at)
        return type(exc), exc.path[len(at):], str(exc)[len(exc.path) + 2:]
    return None


@settings(max_examples=150, deadline=None)
@given(twinned_documents())
def test_a_parse_fails_where_the_first_node_failing_alone_does(doc):
    """A parse checks each distinct node body once, yet it accepts a
    document exactly when each node, parsed alone, is accepted, and
    otherwise raises the first such node's error at its path."""
    verdicts = [alone(doc, k) for k in range(len(doc["nodes"]))]
    failing = [(k, verdict) for k, verdict in enumerate(verdicts) if verdict]
    try:
        parse_graph(json.dumps(doc))
    except ParseError as exc:
        assert failing
        k, (kind, where, message) = failing[0]
        path = f"$.nodes[{k}]{where}"
        assert (type(exc), exc.path, str(exc)) \
            == (kind, path, f"{path}: {message}")
    else:
        assert not failing
