"""Operation tallies over the zoo graphs and hand-built fragments."""

import json

import pytest

from acev2 import zoo
from acev2.census import (
    CAT_ACTIVATION,
    CAT_BATCHNORM,
    CAT_CONV,
    CAT_QUANT_SCALE,
    CAT_SKIP,
    CENSUS_RULES,
    TallyEntry,
    census_graph,
    layer_walk,
)
from acev2.cost import ADD, MAC, MULTIPLY, SHIFT
from acev2.errors import ParseError
from acev2.formats import FP32, NumericFormat
from acev2.ir import (
    COMPUTE_KINDS,
    Graph,
    KIND_RULES,
    LayerNode,
    POT_SCALE,
    QuantizationAnnotation,
    TensorShape,
    parse_graph,
    weight_elements,
)

INT4 = NumericFormat.fixed(4)
INT8 = NumericFormat.fixed(8)


class TestTallyEntry:
    FIELDS = ("layer_id", "op_class", "count", "format_a", "format_b",
              "category", "shift_range")

    def test_positional_and_keyword_construction_agree(self):
        positional = TallyEntry("pw", SHIFT, 10, INT8, None, CAT_CONV, 8)
        keyword = TallyEntry(layer_id="pw", op_class=SHIFT, count=10,
                             format_a=INT8, format_b=None, category=CAT_CONV,
                             shift_range=8)
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert positional.shift_range == 8
        assert TallyEntry._fields == self.FIELDS

    def test_shift_range_defaults_to_none(self):
        entry = TallyEntry("pw", MAC, 10, INT8, INT4, CAT_CONV)
        assert entry.shift_range is None
        assert entry == TallyEntry("pw", MAC, 10, INT8, INT4, CAT_CONV, None)

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_cannot_be_set(self, name):
        entry = TallyEntry("pw", MAC, 10, INT8, INT4, CAT_CONV)
        with pytest.raises(AttributeError):
            setattr(entry, name, None)
        assert entry._replace(count=3).count == 3
        assert entry.count == 10


def without_memo(g):
    """``g`` with a fresh params dict on every node, so no two nodes share
    a layer key and ``layer_walk`` computes every node's layer afresh."""
    return Graph(g.name, g.input_shape,
                 [LayerNode(node.id, node.kind, dict(node.params), node.inputs,
                            node.weight_format, node.act_format, node.quant)
                  for node in g.nodes])


def one_conv_graph(quant=None, weight=INT4, act=INT4):
    return Graph("t", TensorShape(1, 8, 8, 16), [
        LayerNode("in", "Input"),
        LayerNode("pw", "PointwiseConv2D", {"out_channels": 32}, ["in"],
                  weight_format=weight, act_format=act, quant=quant),
        LayerNode("out", "Output", {}, ["pw"]),
    ])


class TestComputeLayers:
    def test_conv_macs(self):
        g = Graph("t", TensorShape(1, 224, 224, 3), [
            LayerNode("in", "Input"),
            LayerNode("conv", "Conv2D",
                      {"kernel": [3, 3], "stride": 2, "out_channels": 32,
                       "padding": "same"}, ["in"],
                      weight_format=INT8, act_format=INT8),
            LayerNode("out", "Output", {}, ["conv"]),
        ])
        entries = census_graph(g).entries
        assert len(entries) == 1
        e = entries[0]
        assert e.op_class == MAC
        assert e.count == 112 * 112 * 32 * 9 * 3
        assert (e.format_a, e.format_b) == (INT8, INT8)

    def test_depthwise_divides_by_groups(self):
        g = Graph("t", TensorShape(1, 8, 8, 16), [
            LayerNode("in", "Input"),
            LayerNode("dw", "DepthwiseConv2D",
                      {"kernel": [3, 3], "stride": 1, "padding": "same"},
                      ["in"], weight_format=INT8, act_format=INT8),
            LayerNode("out", "Output", {}, ["dw"]),
        ])
        (entry,) = census_graph(g).entries
        assert entry.count == 8 * 8 * 16 * 9

    def test_unannotated_layer_defaults_to_fp32(self):
        g = one_conv_graph(weight=None, act=None)
        (entry,) = census_graph(g).entries
        assert entry.format_a == FP32
        assert entry.format_b == FP32

    def test_pot_weights_turn_macs_into_shift_plus_add(self):
        g = one_conv_graph(QuantizationAnnotation(weight_quantizer="pot",
                                                  scale_format=POT_SCALE))
        tally = census_graph(g)
        macs = 8 * 8 * 32 * 16
        by_class = {e.op_class: e for e in tally.entries}
        assert set(by_class) == {SHIFT, ADD}
        assert by_class[SHIFT].count == macs
        assert by_class[SHIFT].shift_range == 8  # 4-bit grid: sign + 3 bits
        assert by_class[SHIFT].category == CAT_CONV
        assert by_class[ADD].count == macs
        # no scale ops: power-of-two levels carry no learned scale factor
        assert tally.count(category=CAT_QUANT_SCALE) == 0

    @pytest.mark.parametrize("weight", [FP32, NumericFormat.binary(), None],
                             ids=str)
    def test_pot_weights_need_two_fixed_point_bits(self, weight):
        g = one_conv_graph(QuantizationAnnotation(weight_quantizer="pot",
                                                  scale_format=POT_SCALE),
                           weight=weight)
        with pytest.raises(ParseError) as err:
            census_graph(g)
        assert str(err.value) == (
            "$.nodes[1].quant.weight_quantizer: power-of-two weights need a "
            f"fixed-point weight_format of at least 2 bits, got {weight or FP32}")


class TestQuantScale:
    def test_channelwise_one_multiply_per_output_element(self):
        g = one_conv_graph(QuantizationAnnotation())
        tally = census_graph(g)
        assert tally.count(MULTIPLY, CAT_QUANT_SCALE) == 8 * 8 * 32
        (scale,) = [e for e in tally.entries if e.category == CAT_QUANT_SCALE]
        assert scale.format_a == FP32

    def test_subchannelwise_doubles_the_multiplies(self):
        g = one_conv_graph(QuantizationAnnotation(
            granularity="subchannelwise", vectors_per_channel=2))
        assert census_graph(g).count(MULTIPLY, CAT_QUANT_SCALE) == 2 * 8 * 8 * 32

    def test_pot_scale_swaps_class_but_keeps_count(self):
        g_float = one_conv_graph(QuantizationAnnotation(scale_format=FP32))
        g_pot = one_conv_graph(QuantizationAnnotation(scale_format=POT_SCALE))
        mults = census_graph(g_float).count(MULTIPLY, CAT_QUANT_SCALE)
        shifts = census_graph(g_pot).count(SHIFT, CAT_QUANT_SCALE)
        assert mults == shifts == 8 * 8 * 32

    def test_fixed_point_scale_multiplies_at_that_format(self):
        g = one_conv_graph(QuantizationAnnotation(scale_format=INT8))
        (scale,) = [e for e in census_graph(g).entries
                    if e.category == CAT_QUANT_SCALE]
        assert scale.op_class == MULTIPLY
        assert scale.format_a == INT8


class TestElementwiseLayers:
    def build_act(self, kind):
        return Graph("t", TensorShape(1, 8, 8, 4), [
            LayerNode("in", "Input"),
            LayerNode("act", "Activation", {"activation": kind}, ["in"]),
            LayerNode("out", "Output", {}, ["act"]),
        ])

    def test_relu_is_free(self):
        assert census_graph(self.build_act("relu")).entries == []

    def test_prelu_multiplies(self):
        tally = census_graph(self.build_act("prelu"))
        assert tally.count(MULTIPLY, CAT_ACTIVATION) == 256
        assert tally.count(ADD, CAT_ACTIVATION) == 0

    def test_dprelu_adds_exactly_one_add_per_element_over_prelu(self):
        prelu = census_graph(self.build_act("prelu"))
        dprelu = census_graph(self.build_act("dprelu"))
        assert (dprelu.count(MULTIPLY, CAT_ACTIVATION)
                == prelu.count(MULTIPLY, CAT_ACTIVATION))
        assert dprelu.count(ADD, CAT_ACTIVATION) == 256

    def test_batchnorm_mult_and_add_at_param_format(self):
        g = Graph("t", TensorShape(1, 8, 8, 4), [
            LayerNode("in", "Input"),
            LayerNode("bn", "BatchNorm", {}, ["in"]),
            LayerNode("qn", "BatchNorm", {"quantnorm": True}, ["bn"],
                      weight_format=INT8),
            LayerNode("out", "Output", {}, ["qn"]),
        ])
        entries = census_graph(g).entries
        fp = [e for e in entries if e.layer_id == "bn"]
        lowered = [e for e in entries if e.layer_id == "qn"]
        assert {e.op_class for e in fp} == {MULTIPLY, ADD}
        assert all(e.format_a == FP32 for e in fp)
        assert all(e.format_a == INT8 for e in lowered)

    def test_skip_add_counts_once_regardless_of_fanin(self):
        def merge(n_inputs):
            refs = ["in"] * n_inputs
            g = Graph("t", TensorShape(1, 8, 8, 4), [
                LayerNode("in", "Input"),
                LayerNode("add", "Add", {}, refs),
                LayerNode("out", "Output", {}, ["add"]),
            ])
            return census_graph(g).count(ADD, CAT_SKIP)
        assert merge(2) == merge(3) == merge(4) == 256

    def test_concat_and_pool_cost_nothing(self):
        g = Graph("t", TensorShape(1, 8, 8, 4), [
            LayerNode("in", "Input"),
            LayerNode("cat", "Concat", {}, ["in", "in"]),
            LayerNode("pool", "Pool", {"pool": "global_avg"}, ["cat"]),
            LayerNode("out", "Output", {}, ["pool"]),
        ])
        assert census_graph(g).entries == []


class TestModelLevelCounts:
    def test_mbv2_batchnorm_tallies(self, mbv2_relu):
        tally = census_graph(mbv2_relu)
        mults = tally.count(MULTIPLY, CAT_BATCHNORM)
        adds = tally.count(ADD, CAT_BATCHNORM)
        assert mults == adds
        assert mults == pytest.approx(6.67e6, rel=0.05)

    def test_mbv2_prelu_multiplies(self):
        g = zoo.build_mobilenet_v2(4, 4, "prelu", "channelwise")
        tally = census_graph(g)
        assert tally.count(MULTIPLY, CAT_ACTIVATION) == pytest.approx(6.1e6, rel=0.05)
        assert tally.count(ADD, CAT_ACTIVATION) == 0

    def test_activation_swap_changes_nothing_else(self, mbv2_relu):
        relu = census_graph(mbv2_relu)
        dprelu = census_graph(zoo.build_mobilenet_v2(4, 4, "dprelu",
                                                     "channelwise"))
        strip = lambda tally: [e for e in tally.entries
                               if e.category != CAT_ACTIVATION]
        assert strip(dprelu) == strip(relu)
        elems = dprelu.count(MULTIPLY, CAT_ACTIVATION)
        assert dprelu.count(ADD, CAT_ACTIVATION) == elems > 0

    def test_mbv2_scale_counts_by_granularity(self, mbv2_relu):
        channelwise = census_graph(mbv2_relu)
        sub = census_graph(zoo.build_mobilenet_v2(4, 4, "relu", "subchannelwise"))
        n1 = channelwise.count(MULTIPLY, CAT_QUANT_SCALE)
        n2 = sub.count(MULTIPLY, CAT_QUANT_SCALE)
        assert n1 == pytest.approx(6.67e6, rel=0.05)
        assert n2 == 2 * n1

    def test_tally_is_additive_over_layers(self, mbv2_relu):
        total = census_graph(mbv2_relu)
        walk = layer_walk(without_memo(mbv2_relu))
        assert len({id(layer) for _, layer in walk}) == len(walk)
        per_layer = [row for _, layer in walk for row in layer.rows]
        assert sum(row[1] for row in per_layer) == sum(
            e.count for e in total.entries)

    def test_dense_scales_with_batch_and_weights_do_not(self):
        one = zoo.build_mobilenet_v1()
        s = one.input_shape
        two = Graph(one.name, TensorShape(2, s.h, s.w, s.c), one.nodes)

        def fc(g):
            shapes = {n.id: layer.shape for n, layer in layer_walk(g)}
            (entry,) = [e for e in census_graph(g).entries
                        if e.layer_id == "fc" and e.op_class == MAC]
            node = g.node("fc")
            return entry.count, weight_elements(node, shapes[node.inputs[0]])

        macs1, weights1 = fc(one)
        macs2, weights2 = fc(two)
        assert macs1 == 1024 * 1000
        assert macs2 == 2 * macs1
        assert weights2 == weights1 == 1024 * 1000

    def test_trivial_graph_has_empty_tally(self):
        g = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("out", "Output", {}, ["in"]),
        ])
        assert census_graph(g).entries == []

    def test_rule_keys_are_the_kinds_that_do_arithmetic(self):
        assert list(CENSUS_RULES) == [*COMPUTE_KINDS, "BatchNorm",
                                      "Activation", "Add"]
        assert set(CENSUS_RULES) <= set(KIND_RULES)

    def test_unknown_activation_built_in_code_is_named(self):
        """The walk holds a graph built in code to the param rule a parse
        raises for, at the node's path."""
        g = Graph("t", TensorShape(1, 2, 2, 3), [
            LayerNode("in", "Input"),
            LayerNode("act", "Activation", {"activation": "gelu"}, ["in"]),
        ])
        with pytest.raises(ParseError) as err:
            census_graph(g)
        assert str(err.value) == (
            "$.nodes[1].params.activation: activation must be one of relu, "
            "prelu, dprelu, got 'gelu'")

    @pytest.mark.parametrize("kind", ["Input", "Output", "Concat", "Pool"])
    def test_kinds_without_a_rule_tally_nothing(self, kind):
        inputs = {"Input": [], "Concat": ["in", "in"]}.get(kind, ["in"])
        g = Graph("t", TensorShape(1, 2, 2, 3), [
            LayerNode("in", "Input"), LayerNode("x", kind, {}, inputs)])
        layers = {node.id: layer for node, layer in layer_walk(g)}
        assert layers["x"].rows == ()

    def test_missing_shape_is_reported(self):
        """A compute layer with no input to take a shape from breaks its
        arity rule, reported at its path before any count is made."""
        g = Graph("t", TensorShape(1, 2, 2, 3), [
            LayerNode("pw", "PointwiseConv2D", {"out_channels": 4}, [],
                      weight_format=INT4, act_format=INT4)])
        with pytest.raises(ParseError) as err:
            census_graph(g)
        assert str(err.value) == (
            "$.nodes[0].inputs: PointwiseConv2D takes exactly one input")


def test_layer_walk_tells_apart_nodes_that_share_params():
    """Nodes of one body share a params dict, yet over different input
    shapes they are distinct layers, as are nodes of equal params that
    differ in kind, weight format, activation format or quant; a true
    twin repeats one. The walk agrees with a walk that computes every
    node afresh."""
    def pw(node_id, src="in", wf=8, af=8, quant=None, **params):
        quant = quant or {"scale": {"kind": "fixed", "bits": 8}}
        return {"id": node_id, "kind": "PointwiseConv2D",
                "params": dict({"out_channels": 4}, **params),
                "inputs": [src],
                "weight_format": {"kind": "fixed", "bits": wf},
                "act_format": {"kind": "fixed", "bits": af}, "quant": quant}

    def merge(node_id, kind):
        return {"id": node_id, "kind": kind, "params": {},
                "inputs": ["a", "b"]}

    g = parse_graph(json.dumps({
        "ir_version": 1, "name": "shared",
        "input": {"n": 1, "h": 8, "w": 8, "c": 4},
        "nodes": [
            {"id": "in", "kind": "Input", "params": {}, "inputs": []},
            pw("a"), pw("twin"), pw("b", quant={"scale": "pot"}),
            pw("c", wf=4), pw("d", af=4), pw("s", stride=2), pw("e", "s"),
            merge("add", "Add"), merge("cat", "Concat"),
            {"id": "out", "kind": "Output", "params": {}, "inputs": ["cat"]},
        ]}))
    assert g.node("a").params is g.node("e").params
    # A params dict is shared by node body only, not across kinds.
    assert g.node("add").params == g.node("cat").params
    assert g.node("add").params is not g.node("cat").params
    walk = layer_walk(g)
    layers = {node.id: layer for node, layer in walk}
    assert layers["twin"] is layers["a"]
    assert len({id(layer) for layer in layers.values()}) == len(walk) - 1

    fresh = layer_walk(without_memo(g))
    assert len({id(layer) for _, layer in fresh}) == len(fresh)
    shapes = {node.id: layer.shape for node, layer in fresh}
    for (node, layer), (_, reference) in zip(walk, fresh, strict=True):
        assert layer == reference
        src = shapes[node.inputs[0]] if node.inputs else None
        assert layer.weights == (weight_elements(node, src) if src else 0)
    assert census_graph(g).entries == [TallyEntry(node.id, *row)
                                       for node, layer in fresh
                                       for row in layer.rows]
