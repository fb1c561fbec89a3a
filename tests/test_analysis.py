"""Cost reports: exact totals, shares, energy, intensity, comparisons."""

import random
from fractions import Fraction

import pytest

from acev2 import analysis, census, cost, ir, zoo
from acev2.analysis import (
    ace_report,
    analyze,
    arithmetic_intensity,
    bn_share,
    branch_factor,
    compare,
    data_footprint,
    energy_report,
    entry_ace,
)
from acev2.census import (
    CAT_QUANT_SCALE,
    OpTally,
    TallyEntry,
    census_graph,
)
from acev2.cost import ADD, MULTIPLY, SHIFT
from acev2.errors import AnalysisError, MissingFormatError, ShapeMismatchError
from acev2.formats import FP32, NumericFormat
from acev2.ir import Graph, LayerNode, TensorShape

INT4 = NumericFormat.fixed(4)
INT8 = NumericFormat.fixed(8)


class TestAceReport:
    def test_empty_tally_flags_undefined_shares(self):
        total, by_cat, shares = ace_report(OpTally())
        assert total == 0
        assert by_cat == {}
        assert shares is None

    def test_total_is_exact_and_permutation_invariant(self, mbv2_relu):
        tally = census_graph(mbv2_relu)
        total, _, _ = ace_report(tally)
        shuffled = OpTally(entries=list(tally.entries))
        random.Random(7).shuffle(shuffled.entries)
        total2, _, _ = ace_report(shuffled)
        assert total == total2
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

    def test_analyze_sorts_once(self, monkeypatch, mbv2_relu):
        calls = []
        sort = ir.topological_order

        def counted(g):
            calls.append(g.name)
            return sort(g)

        for module in (ir, census, analysis):
            monkeypatch.setattr(module, "topological_order", counted)
        expected = analyze(mbv2_relu)
        calls.clear()
        assert analyze(mbv2_relu) == expected
        assert len(calls) == 1

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
        tally = census_graph(build())
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
        _, ace_by_category, _ = ace_report(tally)
        assert list(ace_by_category.items()) == list(by_category.items())
        assert energy_report(tally) == (total_pj / 1e9, flagged)

    def test_first_unpriceable_entry_in_tally_order_is_named(self):
        fp8 = NumericFormat.flt(4, 3)
        tally = OpTally([
            TallyEntry("ok", MULTIPLY, 3, INT8, INT8, "conv"),
            TallyEntry("fp8_mul", MULTIPLY, 2, fp8, fp8, "conv"),
            TallyEntry("float_shift", SHIFT, 2, FP32, None, "conv",
                       shift_range=8),
            TallyEntry("mixed_add", ADD, 2, INT8, FP32, "skip"),
            TallyEntry("fp8_mul_again", MULTIPLY, 2, fp8, fp8, "conv"),
        ])
        with pytest.raises(AnalysisError) as err:
            ace_report(tally)
        assert err.value.layer_id == "float_shift"
        with pytest.raises(AnalysisError) as err:
            energy_report(tally)
        assert err.value.layer_id == "fp8_mul"

    def test_analyze_reports_a_bitadder_failure_before_an_energy_one(self):
        fp8 = NumericFormat.flt(4, 3)
        g = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("bn", "BatchNorm", {}, ["in"], weight_format=fp8),
            LayerNode("pw", "PointwiseConv2D", {"out_channels": 4}, ["bn"],
                      quant=ir.QuantizationAnnotation(scale_format="pot")),
            LayerNode("out", "Output", {}, ["pw"]),
        ])
        tally = census_graph(g)
        with pytest.raises(AnalysisError) as err:
            energy_report(tally)
        assert err.value.layer_id == "bn"
        for report in (ace_report, lambda t: analyze(g)):
            with pytest.raises(AnalysisError) as err:
                report(tally)
            assert err.value.layer_id == "pw"
        # No energy error escapes a report that prices no energy.
        assert arithmetic_intensity(g, tally) > 0

    def test_errors_come_in_stage_order(self):
        """Shape, then census, then bit-adders, then energy, wherever the
        failing nodes sit: each fault lies later in the walk than the
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

        with pytest.raises(ShapeMismatchError) as err:
            analyze(graph())
        assert err.value.path == "$.nodes[5]"
        with pytest.raises(ShapeMismatchError):
            census_graph(graph())
        for census_stage in (analyze, census_graph):
            with pytest.raises(MissingFormatError, match="^c: "):
                census_stage(graph(d_channels=4))
        with pytest.raises(AnalysisError) as err:
            analyze(graph(c_weights=INT8, d_channels=4))
        assert err.value.layer_id == "s"
        with pytest.raises(AnalysisError) as err:
            analyze(graph(s_act=INT8, c_weights=INT8, d_channels=4))
        assert err.value.layer_id == "bn"
        assert analyze(graph(bn=INT8, s_act=INT8, c_weights=INT8,
                             d_channels=4)).total_ace > 0

    def test_in_the_pinned_fan_out_the_shape_error_beats_the_census_one(self):
        """in -> pw c (pot weights on fp16) and pw d (4 vs 5 channels) ->
        add: the mismatch at the add is raised, not c's format error."""
        g = Graph("t", TensorShape(1, 8, 8, 3), [
            LayerNode("in", "Input"),
            LayerNode("c", "PointwiseConv2D", {"out_channels": 4}, ["in"],
                      weight_format=NumericFormat.flt(5, 10),
                      quant=ir.QuantizationAnnotation(
                          scale_format="pot", weight_quantizer="pot")),
            LayerNode("d", "PointwiseConv2D", {"out_channels": 5}, ["in"]),
            LayerNode("add", "Add", {}, ["c", "d"]),
        ])
        with pytest.raises(ShapeMismatchError) as err:
            analyze(g)
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


class TestEnergy:
    def test_single_fp32_multiply_in_millijoules(self):
        tally = OpTally([TallyEntry("x", MULTIPLY, 1, FP32, FP32, "conv")])
        mj, flagged = energy_report(tally)
        assert mj == pytest.approx(3.7e-9)
        assert flagged == []

    def test_extrapolated_entries_are_flagged(self):
        tally = OpTally([TallyEntry("x", MULTIPLY, 5, INT4, INT4, "conv")])
        mj, flagged = energy_report(tally)
        assert flagged == [("x", MULTIPLY)]
        assert mj == pytest.approx(5 * 0.05e-9)


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
        tally = census_graph(g)
        macs = 8 * 8 * 4 * 9 * 3
        weights = 3 * 3 * 3 * 4
        activations = 8 * 8 * 3 + 8 * 8 * 4  # input tensor + conv output
        expected = 2 * macs / (weights + activations)
        assert arithmetic_intensity(g, tally) == pytest.approx(expected)

    def test_chain_has_branch_factor_one(self, mbv2_relu):
        assert branch_factor(zoo.build_pikelpn("1x")) == 1
        assert branch_factor(mbv2_relu) == 2  # inverted residuals skip

    def test_residual_branch_factors(self):
        for n in (2, 3, 4):
            g = zoo.build_resnet50_branches(n)
            assert branch_factor(g) == n

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
        fp = data_footprint(base)
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
