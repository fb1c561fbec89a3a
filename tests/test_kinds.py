"""The per-kind rule table: its coverage, and properties of random valid
graphs built from every node kind."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from acev2 import ir
from acev2.analysis import (
    ace_report,
    analyze,
    arithmetic_intensity,
    branch_factor,
    data_footprint,
    energy_report,
)
from acev2.census import census_graph
from acev2.formats import NumericFormat
from acev2.ir import (
    KIND_RULES,
    Graph,
    LayerNode,
    QuantizationAnnotation,
    TensorShape,
    infer_shapes,
    parse_graph,
    serialize_graph,
    validate,
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
        node = LayerNode(f"{kind.lower()}{i}", kind, inputs=[src])
        if kind in ir.COMPUTE_KINDS:
            node.weight_format, node.act_format = draw(FIXED), draw(FIXED)
            node.quant = draw(QUANTS)
        if kind == "Conv2D":
            node.params = dict(window_params(draw, s),
                               out_channels=draw(st.integers(1, 5)))
        elif kind == "DepthwiseConv2D":
            node.params = window_params(draw, s)
        elif kind == "PointwiseConv2D":
            node.params = {"out_channels": draw(st.integers(1, 5)),
                           "stride": draw(st.integers(1, 2))}
        elif kind == "Dense":
            node.params = {"units": draw(st.integers(1, 5))}
        elif kind == "BatchNorm":
            node.params = {"quantnorm": draw(st.booleans())}
            node.weight_format = draw(st.one_of(st.none(), FIXED))
        elif kind == "Activation":
            node.params = {"activation": draw(st.sampled_from(
                ir.ACTIVATION_KINDS))}
            node.weight_format = draw(st.one_of(st.none(), FIXED))
        elif kind == "Pool":
            pool = draw(st.sampled_from(["global_avg", "max", "avg"]))
            node.params = {"pool": pool}
            if pool != "global_avg":
                node.params.update(window_params(draw, s))
        else:  # Add and Concat merge producers of a matching shape
            match = ((lambda t: t == s) if kind == "Add"
                     else (lambda t: (t.n, t.h, t.w) == (s.n, s.h, s.w)))
            peers = sorted(k for k, t in shapes.items() if match(t))
            node.inputs += draw(st.lists(st.sampled_from(peers), min_size=1,
                                         max_size=3))
            node.act_format = draw(st.one_of(st.none(), FIXED))
        nodes.append(node)
        shapes[node.id] = KIND_RULES[kind].shape(
            node, [shapes[ref] for ref in node.inputs])
    nodes.append(LayerNode("out", "Output", {}, [nodes[-1].id]))
    return Graph("random", shape, nodes)


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
    assert ace_report(tally_n)[0] == n * ace_report(tally1)[0]

    fp1, fp_n = data_footprint(one), data_footprint(many)
    assert fp_n.weight_elems == fp1.weight_elems
    assert fp_n.activation_elems == n * fp1.activation_elems

    shapes = infer_shapes(many)
    for node in many.nodes:
        if node.kind in ir.COMPUTE_KINDS:
            core = [e.count for e in tally_n.entries
                    if e.layer_id == node.id and e.category != "quant_scale"]
            macs = reference_macs(node, shapes[node.inputs[0]],
                                  shapes[node.id])
            assert core and set(core) == {macs}


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
@given(graphs(), st.randoms(use_true_random=False))
def test_analyze_equals_its_reports_called_separately(g, rng):
    report = analyze(g)
    tally = census_graph(g)
    total, by_category, shares = ace_report(tally)
    assert (report.total_ace, report.ace_by_category) == (total, by_category)
    assert (report.mac_share, report.elementwise_share) == (
        shares or (None, None))
    assert (report.energy_mj, report.extrapolated_energy_ops) \
        == energy_report(tally)
    assert report.footprint == data_footprint(g)
    assert report.arithmetic_intensity == arithmetic_intensity(g, tally)
    assert report.footprint.concurrent_branch_factor \
        == reference_branch_factor(g, g.nodes)

    nodes = list(g.nodes)
    rng.shuffle(nodes)  # forward references: the full sort runs
    shuffled = Graph(g.name, g.input_shape, nodes)
    order = ir.topological_order(shuffled)
    assert branch_factor(shuffled) == reference_branch_factor(shuffled, order)


@pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.name)
def test_macs_from_weights_match_the_written_out_count(fixture):
    g = parse_graph(fixture.read_text())
    shapes = infer_shapes(g)
    macs = {e.layer_id: e.count for e in census_graph(g, shapes).entries
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
