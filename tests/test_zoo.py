"""Model builders: structural invariants and published operating points.

Totals assert against the published cost figures at the tolerances the
reconstruction supports; element counts are exact properties of the
architectures and assert tightly.
"""

from itertools import dropwhile, takewhile
from pathlib import Path

import pytest

from acev2 import zoo
from acev2.analysis import analyze
from acev2.census import CAT_BATCHNORM, MAC_CATEGORIES, census_graph
from acev2.cli import fraction_decimal
from acev2.cost import MAC, MULTIPLY
from acev2.formats import NumericFormat
from acev2.ir import (
    KIND_ADD,
    KIND_CONCAT,
    KIND_PWCONV,
    infer_shapes,
    parse_graph,
    serialize_graph,
    validate,
)

INT4 = NumericFormat.fixed(4)
INT8 = NumericFormat.fixed(8)


def all_zoo_graphs():
    return [
        zoo.build_pikelpn("1x"),
        zoo.build_pikelpn("6x"),
        zoo.build_pikelpn("1x", pointwise_pot=False, pot_scales=False,
                          quantnorm_bits=None, act_bits=4,
                          include_mid_norm=True),
        zoo.build_mobilenet_v1(),
        zoo.build_mobilenet_v2(4, 4, "dprelu", "subchannelwise"),
        zoo.build_resnet50_branches(2),
        zoo.build_resnet50_branches(4),
    ]


@pytest.mark.parametrize("graph", all_zoo_graphs(),
                         ids=lambda g: g.name)
def test_every_zoo_graph_validates_clean(graph):
    assert validate(graph) == []


@pytest.mark.parametrize("graph", all_zoo_graphs(),
                         ids=lambda g: g.name)
def test_every_zoo_graph_roundtrips(graph):
    text = serialize_graph(graph)
    assert serialize_graph(parse_graph(text)) == text


class TestPikeFamily:
    def test_no_skips_and_no_parameterized_activations(self):
        for scale in zoo.PIKE_SCALES:
            g = zoo.build_pikelpn(scale)
            kinds = {n.kind for n in g.nodes}
            assert KIND_ADD not in kinds
            assert KIND_CONCAT not in kinds
            activations = {n.params.get("activation") for n in g.nodes
                           if n.kind == "Activation"}
            assert activations == {"relu"}

    def test_pointwise_dominates_the_mac_count(self):
        g = zoo.build_pikelpn("1x")
        shapes = infer_shapes(g)
        tally = census_graph(g, shapes)
        per_layer = {}
        for e in tally.entries:
            if e.category in MAC_CATEGORIES:
                per_layer[e.layer_id] = per_layer.get(e.layer_id, 0) + e.count
        pw_ids = {n.id for n in g.nodes if n.kind == KIND_PWCONV}
        # shift+add pairs double-count each kernel application; compare
        # on kernel applications by halving pot layers uniformly
        pw = sum(v for k, v in per_layer.items() if k in pw_ids) / 2
        rest = sum(v for k, v in per_layer.items() if k not in pw_ids)
        assert pw / (pw + rest) >= 0.90

    def test_family_costs_track_published_points(self, pike_reports):
        published = {"1x": 8.68e9, "2x": 15.74e9, "3x": 33.97e9,
                     "6x": 59.10e9}
        for scale, target in published.items():
            total = float(pike_reports[scale].total_ace)
            assert total == pytest.approx(target, rel=0.15), scale

    def test_elementwise_share_stays_small(self, pike_reports):
        for report in pike_reports.values():
            assert report.elementwise_share <= 0.05

    def test_strictly_ascending_with_published_ratios(self, pike_reports):
        totals = [float(pike_reports[s].total_ace)
                  for s in ("1x", "2x", "3x", "6x")]
        assert totals == sorted(totals)
        base = totals[0]
        for ratio, published in zip([t / base for t in totals[1:]],
                                    (15.74 / 8.68, 33.97 / 8.68, 59.10 / 8.68)):
            assert ratio == pytest.approx(published, rel=0.10)

    def test_one_x_drops_the_mid_block_norm(self):
        one = zoo.build_pikelpn("1x")
        two = zoo.build_pikelpn("2x")
        assert not any("dw_norm" in n.id for n in one.nodes)
        assert any("dw_norm" in n.id for n in two.nodes)


class TestMobileNetV1:
    def test_eight_bit_operating_point(self):
        report = analyze(zoo.build_mobilenet_v1())
        assert float(report.total_ace) == pytest.approx(51.44e9, rel=0.15)

    def test_mixed_width_operating_point(self):
        report = analyze(zoo.build_mobilenet_v1(weight_fmt=INT8, act_fmt=INT4))
        assert float(report.total_ace) == pytest.approx(33.8e9, rel=0.15)
        report2 = analyze(zoo.build_mobilenet_v1(weight_fmt=INT4, act_fmt=INT8))
        assert report2.total_ace == report.total_ace

    def test_intensity_is_precision_independent(self):
        variants = [
            zoo.build_mobilenet_v1(),
            zoo.build_mobilenet_v1(weight_fmt=INT8, act_fmt=INT4),
            zoo.build_mobilenet_v1(weight_fmt=INT4, act_fmt=INT8),
        ]
        intensities = {analyze(g).arithmetic_intensity for g in variants}
        assert len(intensities) == 1

    def test_width_multiplier_scales_channels(self):
        g = zoo.build_mobilenet_v1(width=0.5)
        shapes = infer_shapes(g)
        assert shapes["conv1"].c == 16
        assert shapes["b13_pw"].c == 512

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            zoo.build_mobilenet_v1(width=0.0)


class TestMobileNetV2:
    def test_relu_operating_point(self, mbv2_relu_report):
        assert float(mbv2_relu_report.total_ace) == pytest.approx(20.44e9,
                                                                  rel=0.10)

    def test_activation_ladder(self, mbv2_relu_report):
        base = float(mbv2_relu_report.total_ace)
        prelu = float(analyze(zoo.build_mobilenet_v2(
            4, 4, "prelu", "channelwise")).total_ace)
        dprelu = float(analyze(zoo.build_mobilenet_v2(
            4, 4, "dprelu", "channelwise")).total_ace)
        assert prelu == pytest.approx(26.5e9, rel=0.10)
        assert dprelu == pytest.approx(27.67e9, rel=0.10)
        assert base < prelu < dprelu

    def test_norm_share(self, mbv2_relu_report):
        from acev2.analysis import bn_share
        assert bn_share(mbv2_relu_report) == pytest.approx(0.4187, abs=0.03)


class TestResNetBranches:
    def test_norm_tally(self, resnet_binary):
        tally = census_graph(resnet_binary)
        mults = tally.count(MULTIPLY, CAT_BATCHNORM)
        assert mults == pytest.approx(10.58e6, rel=0.05)

    def test_intensity_across_branch_counts(self, resnet_binary_report):
        two = resnet_binary_report.arithmetic_intensity
        three = analyze(zoo.build_resnet50_branches(3)).arithmetic_intensity
        four = analyze(zoo.build_resnet50_branches(4)).arithmetic_intensity
        assert two == pytest.approx(73.5, rel=0.05)
        assert three == pytest.approx(49.66, rel=0.05)
        assert four == pytest.approx(36.75, rel=0.05)
        assert four == two / 2

    def test_branch_count_validation(self):
        with pytest.raises(ValueError):
            zoo.build_resnet50_branches(5)

    def test_mac_count_matches_the_published_backbone(self, resnet_binary):
        tally = census_graph(resnet_binary)
        macs = tally.count(MAC)
        assert macs == pytest.approx(3.86e9, rel=0.03)


# The README's pikelpn 1x technique ladder: each row switches one more
# technique on (DHQ: power-of-two pointwise weights, DQ: power-of-two
# scale factors, QN: QuantNorm), the last row being the default build.
LADDER = (
    ("none", dict(pointwise_pot=False, pot_scales=False,
                  quantnorm_bits=None)),
    ("DHQ", dict(pot_scales=False, quantnorm_bits=None)),
    ("DHQ + DQ", dict(quantnorm_bits=None)),
    ("DHQ + DQ + QN", {}),
)


def ladder_table() -> str:
    """The technique ladder as a markdown table, from ``analyze``."""
    rows = [("pikelpn 1x", "Total ACE (bitadders)", "Energy (mJ)",
             "Elementwise share")]
    for name, knobs in LADDER:
        report = analyze(zoo.build_pikelpn("1x", **knobs))
        rows.append((name, fraction_decimal(report.total_ace),
                     f"{report.energy_mj:.4g}",
                     f"{100 * report.elementwise_share:.2f}%"))
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["| " + " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
             + " |" for row in rows]
    lines.insert(1, "|" + "|".join("-" * (w + 2) for w in widths) + "|")
    return "\n".join(lines) + "\n"


def test_readme_technique_ladder_is_regenerated():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    lines = dropwhile(lambda line: not line.startswith("| pikelpn 1x "),
                      readme.splitlines())
    table = takewhile(lambda line: line.startswith("|"), lines)
    assert "".join(line + "\n" for line in table) == ladder_table()
