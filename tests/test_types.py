"""The value types: named tuples that keep every field they are given and
reject what their checks rule out, and the graph classes, which cannot
change in place and compare and print by their fields."""

import json
import types
from fractions import Fraction

import numpy as np
import pytest

from acev2 import (analysis, census, cost, errors, formats, ir, oracle,
                   quantizers, zoo)

INT8 = formats.NumericFormat.fixed(8)
FP16 = formats.NumericFormat.flt(5, 10)

# Each tuple type with a value for every field, none of them a default.
TUPLES = [
    (formats.NumericFormat, dict(kind="float", total_bits=16,
                                 exponent_bits=5, mantissa_bits=10)),
    (cost.AceCost, dict(bitadders=Fraction(24, 5))),
    (cost.EnergyCost, dict(picojoules=0.25, extrapolated=True)),
    (ir.TensorShape, dict(n=2, h=3, w=5, c=7)),
    (ir.QuantizationAnnotation, dict(granularity="subchannelwise",
                                     scale_format=INT8,
                                     weight_quantizer="pot",
                                     vectors_per_channel=3)),
    (ir.Diagnostic, dict(node_id="x", rule="shape", message="differ")),
    (analysis.Footprint, dict(weight_elems=11, activation_elems=13,
                              concurrent_branch_factor=2)),
    (analysis.CostReport, dict(name="m", total_ace=Fraction(7, 5),
                               ace_by_category={"conv": Fraction(7, 5)},
                               mac_share=1.0, elementwise_share=0.0,
                               energy_mj=3e-9, arithmetic_intensity=0.5,
                               footprint=analysis.Footprint(1, 2, 3),
                               extrapolated_energy_ops=[("x", "add")])),
    (analysis.ComparisonRow, dict(name="m", total_ace=Fraction(3),
                                  energy_mj=1e-6, arithmetic_intensity=2.5,
                                  accuracy=0.75, pareto=False)),
    (zoo.PikeScaleConfig, dict(channel_multiplier=1.5, pointwise_act=FP16,
                               remove_mid_norm=False)),
    (oracle.CircuitTally, dict(full_adders=1, half_adders=2, mux21=3)),
    (oracle.FpAdderBreakdown, dict(
        exponent_bits=5, mantissa_bits=10,
        **{name: float(k) for k, name in enumerate(oracle.FP_ADDER_STAGES)})),
    (quantizers.LinearQuantizer, dict(bits=4, scale=0.5, zero_point=3,
                                      symmetric=False)),
    (quantizers.LinearQuantResult, dict(codes=np.arange(3),
                                        values=np.ones(3), saturated=1)),
    (quantizers.PoTQuantizer, dict(bits=3, max_exponent=-2)),
    (quantizers.BatchNormParams, dict(mu=np.zeros(2), gamma=np.ones(2),
                                      sigma=np.ones(2), beta=np.zeros(2),
                                      epsilon=0.5)),
    (quantizers.DPReLUParams, dict(eta=1.5, alpha=0.25, beta=0.125,
                                   gamma=0.5)),
    (quantizers.NormComparisonTrial, dict(quantnorm_mse=0.5,
                                          vanilla_mse=0.75)),
]


@pytest.mark.parametrize("cls,values", TUPLES,
                         ids=[cls.__name__ for cls, _ in TUPLES])
def test_each_tuple_type_keeps_every_field_it_is_given(cls, values):
    """A name re-declared with a default in a subclass body would shadow
    the tuple's field, so reading it would give the default."""
    assert cls._fields == tuple(values)
    for value in (cls(**values), cls(*values.values())):
        assert isinstance(value, tuple)
        for name, given in values.items():
            assert getattr(value, name) is given
            assert value._asdict()[name] is given


@pytest.mark.parametrize("dims", [(0, 1, 1, 1), (1, 1, 1, -1)])
def test_a_checked_tuple_type_checks_keyword_and_positional_arguments(dims):
    key, value = next((k, v) for k, v in zip("nhwc", dims) if v < 1)
    message = f"{key} must be a positive integer, got {value!r}"
    for shape in (lambda: ir.TensorShape(*dims),
                  lambda: ir.TensorShape(**dict(zip("nhwc", dims)))):
        with pytest.raises(ir.ParseError) as err:
            shape()
        assert str(err.value) == message


@pytest.mark.parametrize("key,value", [
    ("n", True), ("h", 8.0), ("w", "8"), ("c", None), ("n", 1.5), ("w", 0),
    ("c", np.int64(3))])
def test_a_shape_holds_its_dims_to_the_parse_rule(key, value):
    """True and 8.0 compare equal to dims but print, count and serialize
    apart. A shape rejects them with the message a parse gives at
    ``$.input``."""
    dims = dict(dict(n=1, h=8, w=8, c=3), **{key: value})
    message = f"{key} must be a positive integer, got {value!r}"
    with pytest.raises(ir.ParseError) as built:
        ir.TensorShape(**dims)
    assert (built.value.path, str(built.value)) == ("", message)
    if not isinstance(value, np.integer):  # JSON has no numpy integers
        with pytest.raises(ir.ParseError) as parsed:
            ir.parse_graph(json.dumps({"ir_version": 1, "input": dims,
                                       "nodes": []}))
        assert str(parsed.value) == f"$.input.{key}: {message}"


def test_shapes_print_compactly_and_repr_by_field():
    shape = ir.TensorShape(1, 8, 8, 3)
    assert str(shape) == "1x8x8x3"
    assert repr(shape) == "TensorShape(n=1, h=8, w=8, c=3)"
    assert shape == (1, 8, 8, 3)


def test_a_node_holds_a_read_only_copy_of_its_params_and_inputs():
    """A node copies the params and inputs it is given, so the caller's
    later edits do not reach it, and nothing reaches it in place."""
    params, inputs = {"units": 8}, ["in"]
    node = ir.LayerNode("a", "Dense", params, inputs)
    params["units"] = 9
    inputs.append("x")
    assert node.params == {"units": 8} and node.inputs == ("in",)
    bare = ir.LayerNode("b", "Input")
    assert bare.params == {} and bare.inputs == ()
    with pytest.raises(TypeError):
        node.params["units"] = 9
    with pytest.raises(AttributeError):
        node.kind = "Conv2D"
    assert ir.LayerNode("c", "Dense", node.params,
                        ["in"]).params is not node.params


def test_a_node_keeps_its_rules_when_what_it_was_given_changes():
    """A node made from a kernel list, or from a read-only view of a dict,
    holds its own params with the kernel as a tuple, so a later edit of
    the list, the dict or the view's dict leaves the checked node as it
    was, and the graph analyzes as before."""
    kernel, given = [3, 3], {"kernel": [3, 3], "out_channels": 4}
    view = types.MappingProxyType(given)
    made = [ir.LayerNode("c", "Conv2D", {"kernel": kernel, "out_channels": 4},
                         ["in"]),
            ir.LayerNode("c", "Conv2D", view, ["in"])]
    before = [analysis.analyze(ir.Graph("g", ir.TensorShape(1, 8, 8, 3), [
        ir.LayerNode("in", "Input"), conv,
        ir.LayerNode("out", "Output", {}, ["c"])])) for conv in made]
    kernel[0] = given["kernel"][0] = 0
    given["out_channels"] = 0
    for conv, report in zip(made, before):
        assert conv.params == {"kernel": (3, 3), "out_channels": 4}
        graph = ir.Graph("g", ir.TensorShape(1, 8, 8, 3), [
            ir.LayerNode("in", "Input"), conv,
            ir.LayerNode("out", "Output", {}, ["c"])])
        assert analysis.analyze(graph) == report and report.total_ace > 0


def test_graph_classes_compare_and_print_by_their_fields():
    quant = ir.QuantizationAnnotation(scale_format=ir.POT_SCALE)
    nodes = [ir.LayerNode("in", "Input"),
             ir.LayerNode("pw", "PointwiseConv2D", {"out_channels": 4},
                          ["in"], INT8, FP16, quant)]
    g = ir.Graph("g", ir.TensorShape(1, 2, 2, 3), nodes)
    names = {**vars(ir), **vars(formats), **vars(census),
             "mappingproxy": types.MappingProxyType}
    assert eval(repr(g), names) == g
    assert eval(repr(nodes[1]), names) == nodes[1]
    tally = census.census_graph(g)
    assert eval(repr(tally), names) == tally
    assert census.OpTally().entries == () != tally.entries
    assert isinstance(g, tuple) and isinstance(tally, tuple)

    changed = ir.LayerNode("pw", "PointwiseConv2D", {"out_channels": 4},
                           ["in"], INT8, FP16, quant)
    assert changed == nodes[1]
    changed = changed._replace(act_format=INT8)
    assert changed != nodes[1]
    assert ir.Graph("g", g.input_shape, [nodes[0], changed]) != g
    assert nodes[0] == ("in", "Input", {}, (), None, None, None)


def test_a_bitadder_count_converts_to_float():
    assert float(cost.AceCost(Fraction(24, 5))) == 4.8
    assert float(cost.AceCost(3)) == 3.0


def test_a_graph_finds_a_node_by_id_or_raises_key_error():
    g = zoo.build_pikelpn("1x")
    assert g.node("in") is g.nodes[0]
    with pytest.raises(KeyError) as err:
        g.node("ghost")
    assert err.value.args == ("ghost",)


def test_a_diagnostic_prints_its_node_rule_and_message():
    assert str(ir.Diagnostic("x", "shape", "differ")) == "x: [shape] differ"


# Each checked tuple type with arguments it rejects, and the error it raises.
REJECTED = {
    "format_kind_decimal": (formats.NumericFormat, ("decimal", 8),
                            errors.OutOfRangeError),
    "binary_two_bits": (formats.NumericFormat, ("binary", 2),
                        errors.OutOfRangeError),
    "float_split_off_by_one": (formats.NumericFormat, ("float", 16, 5, 9),
                               errors.OutOfRangeError),
    "pot_one_bit": (quantizers.PoTQuantizer, (1, 0),
                    errors.NonPositiveScaleError),
    "batchnorm_negative_sigma": (
        quantizers.BatchNormParams,
        (np.zeros(2), np.ones(2), np.array([1.0, -1.0]), np.zeros(2)),
        errors.NonPositiveScaleError),
    "batchnorm_zero_epsilon": (
        quantizers.BatchNormParams,
        (np.zeros(2), np.ones(2), np.ones(2), np.zeros(2), 0.0),
        errors.NonPositiveScaleError),
    "ace_negative": (cost.AceCost, (Fraction(-1),),
                     errors.UnsupportedOperandError),
    "energy_negative": (cost.EnergyCost, (-1.0,),
                        errors.UnsupportedOperandError),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_a_checked_tuple_type_rejects_an_out_of_range_value(case):
    cls, args, error = REJECTED[case]
    with pytest.raises(error):
        cls(*args)
