"""Cost reports: exact totals, shares, energy, intensity, comparisons."""

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest

from acev2 import census, cost, ir, zoo
from acev2.analysis import analyze, bn_share, compare, entry_ace
from acev2.census import CAT_QUANT_SCALE, TallyEntry, census_graph
from acev2.cost import MULTIPLY, SHIFT
from acev2.errors import AnalysisError, ParseError, ShapeMismatchError
from acev2.formats import FP32, NumericFormat
from acev2.ir import Graph, LayerNode, TensorShape

INT4 = NumericFormat.fixed(4)
INT8 = NumericFormat.fixed(8)


class TestAceReport:
    def test_empty_tally_flags_undefined_shares(self):
        report = analyze(Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"), LayerNode("out", "Output", {}, ["in"])]))
        assert report.total_ace == 0
        assert report.ace_by_category == {}
        assert (report.mac_share, report.elementwise_share) == (None, None)

    def test_total_is_exact_and_permutation_invariant(self, mbv2_relu):
        total = analyze(mbv2_relu).total_ace
        nodes = list(mbv2_relu.nodes)
        random.Random(7).shuffle(nodes)  # a new walk order, so tally order
        shuffled = Graph(mbv2_relu.name, mbv2_relu.input_shape, nodes)
        assert analyze(shuffled).total_ace == total
        assert isinstance(total, Fraction)

    def test_shares_sum_to_one(self, mbv2_relu_report):
        r = mbv2_relu_report
        assert r.mac_share + r.elementwise_share == pytest.approx(1.0)

    def test_total_equals_category_sum(self, mbv2_relu_report):
        r = mbv2_relu_report
        assert sum(r.ace_by_category.values()) == r.total_ace

    def test_entry_errors_carry_the_layer_id(self):
        bad = TallyEntry("layer9", SHIFT, 10, FP32, None, CAT_QUANT_SCALE,
                         shift_range=8)
        with pytest.raises(AnalysisError) as err:
            entry_ace(bad)
        assert err.value.layer_id == "layer9"

    def test_weight_width_monotonicity(self):
        def total(bits):
            g = zoo.build_mobilenet_v2(bits, 4, "relu", "channelwise")
            return analyze(g).total_ace
        totals = [total(b) for b in (2, 4, 8)]
        assert totals[0] < totals[1] < totals[2]

    def test_pot_substitution_strictly_decreases_total(self):
        study = dict(pointwise_pot=False, quantnorm_bits=None, act_bits=4,
                     include_mid_norm=True)
        float_scales = analyze(zoo.build_pikelpn("1x", pot_scales=False, **study))
        pot_scales = analyze(zoo.build_pikelpn("1x", pot_scales=True, **study))
        assert pot_scales.total_ace < float_scales.total_ace
        # count preserved, class swapped
        f_tally = census_graph(zoo.build_pikelpn("1x", pot_scales=False, **study))
        p_tally = census_graph(zoo.build_pikelpn("1x", pot_scales=True, **study))
        assert (f_tally.count(MULTIPLY, CAT_QUANT_SCALE)
                == p_tally.count(SHIFT, CAT_QUANT_SCALE) > 0)


class TestOnePass:
    MODELS = (
        lambda: zoo.build_pikelpn("1x"),
        lambda: zoo.build_mobilenet_v2(4, 4, "dprelu", "subchannelwise"),
        lambda: zoo.build_resnet50_branches(3),
    )

    def test_analyze_sorts_only_a_graph_declared_out_of_order(
            self, monkeypatch, mbv2_relu):
        """A graph declared in topological order is walked as declared,
        with no sort. One with a forward reference is sorted once, and the
        stable sort gives back the order the graph was built in."""
        calls = []
        sort = ir.topological_order

        def counted(g):
            calls.append(g.name)
            return sort(g)

        for module in (ir, census):  # analysis sorts only through census
            monkeypatch.setattr(module, "topological_order", counted)
        expected = analyze(mbv2_relu)
        assert calls == []
        nodes = list(mbv2_relu.nodes)
        nodes.append(nodes.pop(1))  # the stem, now after its consumer
        forward = Graph(mbv2_relu.name, mbv2_relu.input_shape, nodes)
        assert analyze(forward) == expected
        assert calls == [mbv2_relu.name]

    @pytest.mark.parametrize("build", MODELS)
    def test_each_key_is_priced_at_most_once(self, monkeypatch, build):
        g = build()
        calls = []
        for name in ("ace_mac", "ace_multiply", "ace_add", "ace_shift",
                     "energy_of_op"):
            def counted(*args, _name=name, _fn=getattr(cost, name), **kw):
                calls.append((_name, args, tuple(sorted(kw.items()))))
                return _fn(*args, **kw)
            monkeypatch.setattr(cost, name, counted)
        analyze(g)
        entries = census_graph(g).entries
        keys = {(e.category, e.op_class, e.format_a, e.format_b,
                 e.shift_range) for e in entries}
        energy = [c for c in calls if c[0] == "energy_of_op"]
        assert len(calls) - len(energy) == len(keys)
        assert len(energy) == len(set(energy)) == len({k[1:] for k in keys})
        assert len(calls) <= 2 * len(keys) < len(entries)

    @pytest.mark.parametrize("build", MODELS)
    def test_per_key_pricing_equals_per_entry_pricing(self, build):
        g = build()
        tally = census_graph(g)
        by_category = {}
        total_pj = 0.0
        flagged = []
        for e in tally.entries:
            by_category[e.category] = (by_category.get(e.category, 0)
                                       + entry_ace(e))
            unit = cost.energy_of_op(e.op_class, e.format_a, e.format_b,
                                     shift_range=e.shift_range)
            total_pj += unit.picojoules * e.count
            if unit.extrapolated:
                flagged.append((e.layer_id, e.op_class))
        report = analyze(g)
        assert list(report.ace_by_category.items()) \
            == list(by_category.items())
        assert (report.energy_mj, report.extrapolated_energy_ops) \
            == (total_pj / 1e9, flagged)

    @pytest.mark.parametrize("build", MODELS)
    def test_each_node_body_is_checked_once(self, monkeypatch, build):
        """The node rules read a node's body, every key but ``id`` and
        ``inputs``, and its arity, never its input shapes. So a parse
        checks each distinct body and arity once, though a body recurs as
        distinct layers over different input shapes, and keeps the bodies
        it checked: ``analyze`` and ``census_graph`` of the parsed graph
        check none, and the walk of a build checks as many as its parse."""
        built = build()
        text = ir.serialize_graph(built)
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
        g = ir.parse_graph(text)
        assert len(calls) == len(bodies)
        calls.clear()
        layers = {id(layer) for _, layer in census.layer_walk(g)}
        analyze(g)
        census_graph(g)
        assert calls == [] and len(bodies) < len(layers)
        analyze(built)
        assert len(calls) == len(bodies)

    def test_a_copied_parsed_graph_stays_checked(self, monkeypatch):
        """A graph cannot change in place, so a copy of a parsed graph,
        shallow, deep or unpickled, is as checked as the graph: its walk
        checks no node, where a build's walk checks each body."""
        built = zoo.build_pikelpn("1x")
        g = ir.parse_graph(ir.serialize_graph(built))
        calls = []
        node_problem = ir._node_problem

        def counted(node):
            calls.append(node.id)
            return node_problem(node)

        monkeypatch.setattr(ir, "_node_problem", counted)
        analyze(built)
        assert len(calls) > 0
        for twin in (copy.copy(g), copy.deepcopy(g),
                     pickle.loads(pickle.dumps(g))):
            calls.clear()
            assert twin == g and analyze(twin) == analyze(g)
            census_graph(twin)
            assert calls == []

    def test_a_parsed_graph_cannot_be_edited_in_place(self):
        """An in-place edit of a parsed graph raises at the edit, and the
        graph reports as before."""
        g = ir.parse_graph(ir.serialize_graph(zoo.build_mobilenet_v1()))
        report = analyze(g)
        node = g.nodes[4]  # b1_dw, a DepthwiseConv2D
        with pytest.raises(TypeError):
            node.params["stride"] = 0
        with pytest.raises(TypeError):  # the stem's kernel is a tuple
            g.nodes[1].params["kernel"][0] = 0
        with pytest.raises(AttributeError):
            node.inputs.append("in")
        with pytest.raises(AttributeError):
            node.params = {}
        with pytest.raises(AttributeError):
            g.nodes = g.nodes[:4]
        with pytest.raises(TypeError):
            g.nodes[4] = node._replace(params={"stride": 0})
        with pytest.raises(AttributeError):
            del g.name
        assert analyze(g) == report

    def test_a_graph_takes_no_new_attribute(self):
        """A graph has no attributes but its fields, so the parse mark
        cannot be set on a graph built in code: the walk still checks its
        nodes. The mark is the parsed graph's class, which copies and
        pickles keep and ``Graph(...)`` and ``_replace`` drop; a parsed
        graph prints as any graph does."""
        built = Graph("t", TensorShape(1, 8, 8, 4), [
            LayerNode("in", "Input"),
            LayerNode("dw", "DepthwiseConv2D", {"kernel": [3, 3],
                                                "stride": 0}, ["in"]),
            LayerNode("out", "Output", {}, ["dw"])])
        for name in ("_parsed", "nodes_by_id"):
            with pytest.raises(AttributeError):
                setattr(built, name, True)
        with pytest.raises(ParseError) as err:
            analyze(built)
        assert err.value.path == "$.nodes[1].params.stride"
        g = ir.parse_graph(ir.serialize_graph(zoo.build_mobilenet_v1()))
        with pytest.raises(AttributeError):
            g._parsed = False
        assert g._parsed and not built._parsed
        assert all(twin._parsed for twin in (
            copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))))
        assert not (Graph(*g)._parsed or g._replace(name="x")._parsed)
        assert repr(g) == repr(Graph(*g)) and repr(g).startswith("Graph(")

    def test_a_cycle_raises_before_a_node_declared_ahead_of_it(self):
        """The walk raises what it would raise after a sort: a cycle comes
        first, though a node declared before it breaks a node rule (in a
        built graph) or fails its shape."""
        shape = TensorShape(1, 4, 4, 4)
        cycle = [LayerNode("a", "Activation", {}, ["b"]),
                 LayerNode("b", "Activation", {}, ["a"]),
                 LayerNode("out", "Output", {}, ["b"])]
        for params in ({"kernel": [3, 3], "stride": 0},
                       {"kernel": [5, 5], "padding": "valid"}):
            g = Graph("t", shape, [
                LayerNode("in", "Input"),
                LayerNode("dw", "DepthwiseConv2D", params, ["in"]), *cycle])
            for walk_stage in (analyze, census_graph):
                with pytest.raises(ParseError) as err:
                    walk_stage(g)
                assert type(err.value) is ParseError
                assert str(err.value) \
                    == "$.nodes[2].inputs: graph contains a cycle"

    @pytest.mark.parametrize("edit, path", [
        ("params", "$.nodes[4].params.stride"),
        ("arity", "$.nodes[6].inputs"),
    ])
    def test_an_edited_parsed_node_is_checked_in_a_new_graph(self, edit,
                                                             path):
        """A parsed node edited with ``_replace`` goes into a new graph,
        a built one. Given params that break a rule, or another arity, it
        is checked by the walk and fails as a parse would fail it, at the
        node's path."""
        g = ir.parse_graph(ir.serialize_graph(zoo.build_mobilenet_v1()))
        nodes = list(g.nodes)
        if edit == "params":
            node = nodes[4]  # b1_dw, a DepthwiseConv2D
            nodes[4] = node._replace(params={**node.params, "stride": 0})
        else:
            node = nodes[6]  # b1_dw_relu, an Activation
            nodes[6] = node._replace(inputs=(*node.inputs, "in"))
        edited = Graph(g.name, g.input_shape, nodes)
        for walk_stage in (analyze, census_graph):
            with pytest.raises(ParseError) as err:
                walk_stage(edited)
            assert err.value.path == path

    def test_first_unpriceable_entry_in_tally_order_is_named(self):
        """Of the layers whose bit-adders cannot be priced (a shift of
        fp32 activations by a power-of-two scale), the first in walk order
        is named, though an energy failure (an fp8 multiply) comes before
        it; with no bit-adder failure, the first energy failure is."""
        fp8 = NumericFormat.flt(4, 3)

        def chain(*kinds):
            nodes = [LayerNode("in", "Input")]
            for name in kinds:
                if name.startswith("fp8_mul"):
                    node = LayerNode(name, "BatchNorm", {}, [nodes[-1].id],
                                     weight_format=fp8)
                elif name.startswith("float_shift"):
                    node = LayerNode(
                        name, "PointwiseConv2D", {"out_channels": 3},
                        [nodes[-1].id], weight_format=INT8,
                        quant=ir.QuantizationAnnotation(scale_format="pot"))
                else:
                    node = LayerNode(name, "BatchNorm", {}, [nodes[-1].id],
                                     weight_format=INT8)
                nodes.append(node)
            return Graph("t", TensorShape(1, 4, 4, 3), nodes)

        with pytest.raises(AnalysisError) as err:
            analyze(chain("ok", "fp8_mul", "float_shift", "fp8_mul_again",
                          "float_shift_again"))
        assert err.value.layer_id == "float_shift"
        with pytest.raises(AnalysisError) as err:
            analyze(chain("ok", "fp8_mul", "ok_again", "fp8_mul_again"))
        assert err.value.layer_id == "fp8_mul"

    def test_analyze_reports_a_bitadder_failure_before_an_energy_one(self):
        fp8 = NumericFormat.flt(4, 3)

        def graph(scale):
            return Graph("t", TensorShape(1, 8, 8, 3), [
                LayerNode("in", "Input"),
                LayerNode("bn", "BatchNorm", {}, ["in"], weight_format=fp8),
                LayerNode("pw", "PointwiseConv2D", {"out_channels": 4},
                          ["bn"],
                          quant=ir.QuantizationAnnotation(scale_format=scale)),
                LayerNode("out", "Output", {}, ["pw"]),
            ])

        with pytest.raises(AnalysisError) as err:
            analyze(graph(FP32))
        assert err.value.layer_id == "bn"
        with pytest.raises(AnalysisError) as err:
            analyze(graph("pot"))
        assert err.value.layer_id == "pw"
        # No pricing error escapes the census, which prices nothing.
        assert census_graph(graph("pot")).entries

    def test_errors_come_in_stage_order(self):
        """The first node in walk order that breaks a node rule or whose
        shape fails, then bit-adders, then energy, wherever the failing
        nodes sit: each pricing fault lies later in the walk than the
        faults of the stages after it."""
        fp16 = NumericFormat.flt(5, 10)
        pot_weights = ir.QuantizationAnnotation(scale_format="pot",
                                                weight_quantizer="pot")

        def graph(bn=NumericFormat.flt(4, 3), s_act=None, c_weights=fp16,
                  d_channels=5):
            return Graph("t", TensorShape(1, 8, 8, 3), [
                LayerNode("in", "Input"),
                LayerNode("bn", "BatchNorm", {}, ["in"], weight_format=bn),
                LayerNode("s", "PointwiseConv2D", {"out_channels": 4},
                          ["bn"], act_format=s_act,
                          quant=ir.QuantizationAnnotation(scale_format="pot")),
                LayerNode("c", "PointwiseConv2D", {"out_channels": 4}, ["s"],
                          weight_format=c_weights, act_format=INT8,
                          quant=pot_weights),
                LayerNode("d", "PointwiseConv2D",
                          {"out_channels": d_channels}, ["s"]),
                LayerNode("add", "Add", {}, ["c", "d"]),
            ])

        for walk_stage in (analyze, census_graph):
            # c's pot weights on fp16, met before the add's mismatch
            with pytest.raises(ParseError) as err:
                walk_stage(graph())
            assert err.value.path == "$.nodes[3].quant.weight_quantizer"
            with pytest.raises(ParseError) as err:
                walk_stage(graph(d_channels=4))
            assert err.value.path == "$.nodes[3].quant.weight_quantizer"
            with pytest.raises(ShapeMismatchError) as err:
                walk_stage(graph(c_weights=INT8))
            assert err.value.path == "$.nodes[5]"
        with pytest.raises(AnalysisError) as err:
            analyze(graph(c_weights=INT8, d_channels=4))
        assert err.value.layer_id == "s"
        with pytest.raises(AnalysisError) as err:
            analyze(graph(s_act=INT8, c_weights=INT8, d_channels=4))
        assert err.value.layer_id == "bn"
        assert analyze(graph(bn=INT8, s_act=INT8, c_weights=INT8,
                             d_channels=4)).total_ace > 0

    def test_in_the_pinned_fan_out_the_first_fault_in_walk_order_is_raised(
            self):
        """in -> pw c (pot weights on c_weights) and pw d (4 vs 5
        channels) -> add -> out: c's node rule, met first, is raised as a
        parse raises it; with c valid, the mismatch at the add is raised,
        not a later node's rule (a quant on the Output)."""
        def graph(c_weights, out_quant=None):
            return Graph("t", TensorShape(1, 8, 8, 3), [
                LayerNode("in", "Input"),
                LayerNode("c", "PointwiseConv2D", {"out_channels": 4}, ["in"],
                          weight_format=c_weights,
                          quant=ir.QuantizationAnnotation(
                              scale_format="pot", weight_quantizer="pot")),
                LayerNode("d", "PointwiseConv2D", {"out_channels": 5}, ["in"]),
                LayerNode("add", "Add", {}, ["c", "d"]),
                LayerNode("out", "Output", {}, ["add"], quant=out_quant),
            ])

        with pytest.raises(ParseError) as err:
            analyze(graph(NumericFormat.flt(5, 10)))
        assert err.value.path == "$.nodes[1].quant.weight_quantizer"
        assert str(err.value).endswith(
            ": power-of-two weights need a fixed-point weight_format of at "
            "least 2 bits, got fp16")
        with pytest.raises(ShapeMismatchError) as err:
            analyze(graph(INT8, ir.QuantizationAnnotation()))
        assert err.value.path == "$.nodes[3]"


class TestBnShare:
    def test_no_norm_layers_means_zero(self):
        g = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("pw", "PointwiseConv2D", {"out_channels": 4}, ["in"],
                      weight_format=INT4, act_format=INT4),
            LayerNode("out", "Output", {}, ["pw"]),
        ])
        assert bn_share(analyze(g)) == 0.0

    def test_mbv2_share(self, mbv2_relu_report):
        assert bn_share(mbv2_relu_report) == pytest.approx(0.4187, abs=0.03)


def prelu(fmt, channels):
    """A prelu over a 1x1 input of ``channels``: one multiply at ``fmt``
    per element, and nothing else."""
    return Graph("t", TensorShape(1, 1, 1, channels), [
        LayerNode("in", "Input"),
        LayerNode("x", "Activation", {"activation": "prelu"}, ["in"],
                  weight_format=fmt),
    ])


class TestEnergy:
    def test_single_fp32_multiply_in_millijoules(self):
        report = analyze(prelu(FP32, 1))
        assert report.energy_mj == pytest.approx(3.7e-9)
        assert report.extrapolated_energy_ops == []

    def test_extrapolated_entries_are_flagged(self):
        report = analyze(prelu(INT4, 5))
        assert report.extrapolated_energy_ops == [("x", MULTIPLY)]
        assert report.energy_mj == pytest.approx(5 * 0.05e-9)

    def test_an_inf_energy_is_an_analysis_error(self):
        """10**308 fp32 multiplies fit a float count, but their energy in
        pJ reads inf with no OverflowError on the way."""
        with pytest.raises(AnalysisError,
                           match="^t: energy exceeds the float range$"):
            analyze(prelu(FP32, 10 ** 308))

    def test_an_unnamed_graph_is_named_graph(self):
        g = prelu(FP32, 10 ** 400)
        g = Graph("", g.input_shape, g.nodes)
        with pytest.raises(AnalysisError, match="^graph: energy"):
            analyze(g)


class TestArithmeticIntensity:
    def test_single_conv_hand_count(self):
        g = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("conv", "Conv2D",
                      {"kernel": [3, 3], "stride": 1, "out_channels": 4,
                       "padding": "same"}, ["in"],
                      weight_format=INT8, act_format=INT8),
            LayerNode("out", "Output", {}, ["conv"]),
        ])
        macs = 8 * 8 * 4 * 9 * 3
        weights = 3 * 3 * 3 * 4
        activations = 8 * 8 * 3 + 8 * 8 * 4  # input tensor + conv output
        expected = 2 * macs / (weights + activations)
        assert analyze(g).arithmetic_intensity == pytest.approx(expected)

    def test_chain_has_branch_factor_one(self, pike_reports,
                                         mbv2_relu_report):
        assert pike_reports["1x"].footprint.concurrent_branch_factor == 1
        # inverted residuals skip
        assert mbv2_relu_report.footprint.concurrent_branch_factor == 2

    def test_residual_branch_factors(self):
        for n in (2, 3, 4):
            footprint = analyze(zoo.build_resnet50_branches(n)).footprint
            assert footprint.concurrent_branch_factor == n

    def test_doubling_branches_halves_intensity_exactly(self):
        two = analyze(zoo.build_resnet50_branches(2))
        four = analyze(zoo.build_resnet50_branches(4))
        assert four.arithmetic_intensity == two.arithmetic_intensity / 2

    def test_activation_nodes_allocate_nothing(self):
        base = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("relu", "Activation", {"activation": "relu"}, ["in"]),
            LayerNode("out", "Output", {}, ["relu"]),
        ])
        fp = analyze(base).footprint
        assert fp.activation_elems == 8 * 8 * 3  # just the input tensor


class TestCompare:
    def test_rows_sorted_ascending_by_total(self, pike_reports):
        rows = compare([("1x", pike_reports["1x"]), ("6x", pike_reports["6x"]),
                        ("3x", pike_reports["3x"])])
        assert [r.name for r in rows] == ["1x", "3x", "6x"]

    def test_cheapest_row_is_pareto_without_accuracy(self, pike_reports):
        rows = compare([("1x", pike_reports["1x"]), ("2x", pike_reports["2x"])])
        assert rows[0].pareto and not rows[1].pareto

    def test_accuracy_keeps_expensive_rows_on_the_front(self, pike_reports):
        rows = compare(
            [("1x", pike_reports["1x"]), ("2x", pike_reports["2x"])],
            accuracies={"1x": 67.55, "2x": 69.23})
        assert all(r.pareto for r in rows)

    def test_dominated_row_flagged(self, pike_reports):
        rows = compare(
            [("1x", pike_reports["1x"]), ("2x", pike_reports["2x"])],
            accuracies={"1x": 67.55, "2x": 60.0})
        by_name = {r.name: r for r in rows}
        assert by_name["1x"].pareto and not by_name["2x"].pareto

    def test_single_report_is_pareto(self, pike_reports):
        (row,) = compare([("1x", pike_reports["1x"])])
        assert row.pareto

    def test_same_name_rows_still_dominate_each_other(self, pike_reports):
        rows = compare([("m", pike_reports["2x"]), ("m", pike_reports["1x"])])
        assert rows[0].total_ace < rows[1].total_ace
        assert [r.pareto for r in rows] == [True, False]

    def test_identical_totals_tie_break_by_name(self, pike_reports):
        rows = compare([("b", pike_reports["1x"]), ("a", pike_reports["1x"])])
        assert [r.name for r in rows] == ["a", "b"]
