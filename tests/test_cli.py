"""Command-line behavior: output formats, exit codes, determinism."""

import errno
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acev2
from acev2 import analysis, census, cli, cost, ir, oracle, zoo
from acev2.cli import build_parser, fraction_decimal, main
from acev2.formats import NumericFormat
from acev2.ir import parse_graph, serialize_graph
from fractions import Fraction

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


@pytest.fixture(scope="module")
def pike_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("zoo") / "pikelpn_1x.json"
    assert main(["zoo", "emit", "pikelpn", "--scale", "1x",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def broken_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("zoo") / "broken.json"
    path.write_text('{"ir_version": 1, "nodes": "nope"}')
    return path


class TestFractionDecimal:
    @pytest.mark.parametrize("frac,text", [
        (Fraction(64, 5), "12.8"),
        (Fraction(24, 5), "4.8"),
        (Fraction(2, 5), "0.4"),
        (Fraction(992), "992"),
        (Fraction(-3, 4), "-0.75"),
        (Fraction(1, 8), "0.125"),
        # the fewest digits: the least power of ten the denominator divides
        (Fraction(1, 10), "0.1"),
        (Fraction(3, 10), "0.3"),
        (Fraction(1, 20), "0.05"),
        (Fraction(-7, 40), "-0.175"),
        (Fraction(1, 320), "0.003125"),  # the multiply and add anchors
        (Fraction(1, 1000), "0.001"),  # the shift anchor
    ])
    def test_exact_rendering(self, frac, text):
        assert fraction_decimal(frac) == text

    def test_non_decimal_denominator_rejected(self):
        with pytest.raises(ValueError):
            fraction_decimal(Fraction(1, 3))


class TestAnalyze:
    def test_table_output(self, pike_file, capsys):
        assert main(["analyze", str(pike_file)]) == 0
        out = capsys.readouterr().out
        assert "Total ACE" in out
        assert "Arithmetic intensity" in out

    def test_json_output_structure(self, pike_file, capsys):
        assert main(["analyze", str(pike_file), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "pikelpn_1x"
        assert payload["total_ace_value"] == pytest.approx(8.68e9, rel=0.15)
        assert payload["footprint"]["concurrent_branch_factor"] == 1

    def test_csv_output_deterministic(self, pike_file, capsys):
        assert main(["analyze", str(pike_file), "--format", "csv"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", str(pike_file), "--format", "csv"]) == 0
        assert capsys.readouterr().out == first

    def test_broken_file_is_an_input_error(self, broken_file, capsys):
        assert main(["analyze", str(broken_file)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_is_an_input_error(self, capsys):
        assert main(["analyze", "/nonexistent/model.json"]) == 1

    def test_analysis_failure_exits_two(self, tmp_path, capsys):
        # structurally valid, but a power-of-two scale cannot shift a
        # float activation, so costing fails mid-analysis
        doc = {
            "ir_version": 1, "name": "unanalyzable",
            "input": {"n": 1, "h": 8, "w": 8, "c": 3},
            "nodes": [
                {"id": "in", "kind": "Input", "params": {}, "inputs": []},
                {"id": "pw", "kind": "PointwiseConv2D",
                 "params": {"out_channels": 4}, "inputs": ["in"],
                 "quant": {"granularity": "channelwise", "scale": "pot",
                           "weight_quantizer": "linear"}},
                {"id": "out", "kind": "Output", "params": {},
                 "inputs": ["pw"]},
            ],
        }
        path = tmp_path / "unanalyzable.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 2
        assert "pw" in capsys.readouterr().err

    def test_invalid_graph_reports_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = {
            "ir_version": 1, "name": "bad",
            "input": {"n": 1, "h": 8, "w": 8, "c": 3},
            "nodes": [
                {"id": "in", "kind": "Input", "params": {}, "inputs": []},
                {"id": "pw", "kind": "PointwiseConv2D",
                 "params": {"out_channels": 4, "kernel": [3, 3]},
                 "inputs": ["in"]},
                {"id": "out", "kind": "Output", "params": {},
                 "inputs": ["pw"]},
            ],
        }
        bad.write_text(json.dumps(doc))
        assert main(["analyze", str(bad)]) == 1
        assert capsys.readouterr().err == (
            "error: $.nodes[1].params.kernel: pointwise kernel must be 1x1, "
            "got [3, 3]\n")


def format_doc(weight=None, scale=None):
    """A valid one-conv graph; ``weight`` or ``scale`` replaces its weight
    format or quantization scale document."""
    conv = {"id": "pw", "kind": "PointwiseConv2D",
            "params": {"out_channels": 4}, "inputs": ["in"],
            "weight_format": weight or {"kind": "fixed", "bits": 8},
            "act_format": {"kind": "fixed", "bits": 8},
            "quant": {"scale": scale or {"kind": "fixed", "bits": 16}}}
    return {"ir_version": 1, "name": "formats",
            "input": {"n": 1, "h": 4, "w": 4, "c": 3},
            "nodes": [{"id": "in", "kind": "Input", "params": {},
                       "inputs": []}, conv,
                      {"id": "out", "kind": "Output", "params": {},
                       "inputs": ["pw"]}]}


SCALE, WEIGHT = "$.nodes[1].quant.scale", "$.nodes[1].weight_format"
BAD_FORMATS = {  # case -> (document, the JSON path its error names)
    "scale_unknown_key": (format_doc(scale={"kind": "fixed", "bits": 8,
                                            "zz": 1}), f"{SCALE}.zz"),
    "scale_float_without_bits": (format_doc(scale={"kind": "float"}), SCALE),
    "scale_bits_70": (format_doc(scale={"kind": "fixed", "bits": 70}), SCALE),
    "weight_bits_70": (format_doc(weight={"kind": "fixed", "bits": 70}),
                       WEIGHT),
    "weight_bits_string": (format_doc(weight={"kind": "fixed", "bits": "8"}),
                           WEIGHT),
    "weight_bits_true": (format_doc(weight={"kind": "fixed", "bits": True}),
                         WEIGHT),
}


class TestBadFormats:
    @pytest.mark.parametrize("case", sorted(BAD_FORMATS))
    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_exits_one_with_the_json_path(self, case, sub, tmp_path, capsys):
        doc, json_path = BAD_FORMATS[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        assert main([sub, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {json_path}: ")
        assert "Traceback" not in err

    def test_good_format_document_analyzes(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(format_doc()))
        assert main(["analyze", str(path)]) == 0

    def test_compare_reports_the_file_and_keeps_good_rows(self, pike_file,
                                                          tmp_path, capsys):
        bad = tmp_path / "bits_70.json"
        bad.write_text(json.dumps(BAD_FORMATS["weight_bits_70"][0]))
        assert main(["compare", str(pike_file), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "pikelpn_1x," in captured.out
        assert f"error: {bad}: {WEIGHT}: " in captured.err


def oversized_doc(out_channels, h=4):
    """``format_doc()`` with ``out_channels`` and input height ``h``."""
    doc = format_doc()
    doc["nodes"][1]["params"]["out_channels"] = out_channels
    doc["input"]["h"] = h
    return doc


class TestOversizedCounts:
    """Counts a float or a printed integer cannot hold exit 2 with one
    ``analysis error:`` line, never a traceback."""

    @pytest.mark.parametrize("fmt", sorted(cli._FORMATS))
    @pytest.mark.parametrize("out_channels, message", [
        # the energy sum overflows first
        (10 ** 400, "energy exceeds the float range"),
        # the energy fits, and the total does not
        (10 ** 306, "total bit-adders exceed the float range"),
    ], ids=["1e400", "1e306"])
    def test_analyze_exits_two(self, out_channels, message, fmt, tmp_path,
                               capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(oversized_doc(out_channels)))
        assert main(["analyze", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"analysis error: formats: {message}\n"

    @pytest.mark.parametrize("out_channels", [10 ** 400, 10 ** 306],
                             ids=["1e400", "1e306"])
    def test_compare_lists_the_file_and_keeps_the_fixture(
            self, out_channels, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(oversized_doc(out_channels)))
        fixture = str(FIXTURES / "pikelpn_1x.json")
        assert main(["compare", fixture]) == 0
        alone = capsys.readouterr().out
        assert main(["compare", fixture, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == alone
        assert captured.err.startswith(f"error: {path}: formats: ")
        assert captured.err.count("\n") == 1

    def test_census_names_the_layer_whose_count_is_too_long_to_print(
            self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(oversized_doc(10 ** 3000, 10 ** 3000)))
        assert main(["census", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "analysis error: pw: mac count has too many digits to print\n")


@pytest.fixture(scope="module")
def long_footprints(tmp_path_factory):
    """Graph name -> a file whose activation footprint is too long to
    print: an unnamed Input -> Output with h, w and c each 10**2000, and
    a 1x1x1x1 Input whose 15,000 Concats each read the last node twice,
    so channels reach 2**15000 (4,516 digits) from small integers."""
    big = 10 ** 2000
    concats = [{"id": f"c{k}", "kind": "Concat", "params": {},
                "inputs": [f"c{k - 1}" if k else "in"] * 2}
               for k in range(15000)]
    docs = {"graph": ((big, big, big), []),
            "concat_chain": ((1, 1, 1), concats)}
    tmp = tmp_path_factory.mktemp("long_footprints")
    paths = {}
    for name, ((h, w, c), middle) in docs.items():
        nodes = [{"id": "in", "kind": "Input", "params": {}, "inputs": []},
                 *middle]
        nodes.append({"id": "out", "kind": "Output", "params": {},
                      "inputs": [nodes[-1]["id"]]})
        doc = {"ir_version": 1, "input": {"n": 1, "h": h, "w": w, "c": c},
               "nodes": nodes}
        if name != "graph":  # "graph" stands for an unnamed graph
            doc["name"] = name
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


class TestFootprintTooLongToPrint:
    """``analyze`` checks the footprint in ``cli._report_payload``, the
    field list every format renders; ``compare`` prints no footprint."""

    @pytest.mark.parametrize("fmt", sorted(cli._FORMATS))
    @pytest.mark.parametrize("name", ["graph", "concat_chain"])
    def test_analyze_exits_two_naming_the_graph_and_field(
            self, long_footprints, name, fmt, capsys):
        assert main(["analyze", str(long_footprints[name]),
                     "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"analysis error: {name}: activation_elems "
                                "has too many digits to print\n")

    @pytest.mark.parametrize("name", ["graph", "concat_chain"])
    def test_compare_prints_the_row(self, long_footprints, name, capsys):
        path = long_footprints[name]
        assert main(["compare", str(path)]) == 0
        captured = capsys.readouterr()
        row = path if name == "graph" else name  # unnamed: its path
        assert captured.out.splitlines()[1:] == [f"{row},0,0,0,1"]
        assert captured.err == ""


@pytest.fixture(scope="module")
def forward_file(pike_file, tmp_path_factory):
    """The PikeLPN document with its stem declared last, after the node
    that consumes it: a forward reference."""
    doc = json.loads(pike_file.read_text())
    doc["nodes"].append(doc["nodes"].pop(1))
    path = tmp_path_factory.mktemp("forward") / "pikelpn_forward.json"
    path.write_text(json.dumps(doc))
    return path


class TestSortOnlyOutOfOrder:
    @pytest.fixture
    def sorts(self, monkeypatch):
        calls = []
        sort = ir.topological_order

        def counted(g):
            calls.append(g.name)
            return sort(g)

        for module in (ir, census, analysis, cli):
            monkeypatch.setattr(module, "topological_order", counted,
                                raising=False)
        return calls

    @pytest.mark.parametrize("argv", [["analyze"], ["analyze", "--format",
                                                    "json"], ["census"]])
    def test_analyze_and_census_sort_only_out_of_order(
            self, argv, pike_file, forward_file, sorts, capsys):
        """A file declared in topological order is not sorted; one with a
        forward reference is sorted once and reports the same."""
        assert main(argv[:1] + [str(pike_file)] + argv[1:]) == 0
        assert sorts == []
        declared = capsys.readouterr().out
        assert main(argv[:1] + [str(forward_file)] + argv[1:]) == 0
        assert sorts == ["pikelpn_1x"]
        assert capsys.readouterr().out == declared

    def test_compare_sorts_only_out_of_order_files(
            self, pike_file, forward_file, sorts, capsys):
        files = [pike_file] + sorted(FIXTURES.glob("*.json")) + [forward_file]
        assert main(["compare"] + [str(p) for p in files]) == 0
        assert sorts == ["pikelpn_1x"]

    def test_a_cycle_is_named_before_a_shape_fault_ahead_of_it(
            self, pike_file, tmp_path, capsys):
        """A parsed document whose stem's valid window is larger than its
        input, and whose last two nodes form a cycle, exits 1 naming the
        cycle, as when the sort ran before the walk."""
        doc = json.loads(pike_file.read_text())
        doc["nodes"][1]["params"].update(kernel=[225, 225], padding="valid")
        doc["nodes"][-2]["inputs"] = [doc["nodes"][-1]["id"]]
        path = tmp_path / "shape_then_cycle.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "graph contains a cycle" in err
        assert f"$.nodes[{len(doc['nodes']) - 2}].inputs" in err
        doc["nodes"][-2]["inputs"] = [doc["nodes"][-3]["id"]]  # no cycle
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        assert "kernel larger than input" in capsys.readouterr().err


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_bad_argument_after_a_good_call_exits_64(self, pike_file,
                                                     capsys):
        assert main(["analyze", str(pike_file), "--format", "csv"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["analyze", str(pike_file), "--format", "yaml"])
        assert err.value.code == 64

    def test_stamp_does_not_carry_over(self, pike_file, capsys):
        assert main(["analyze", str(pike_file), "--stamp"]) == 0
        assert capsys.readouterr().out.startswith("# acev2 ")
        assert main(["analyze", str(pike_file)]) == 0
        assert capsys.readouterr().out.startswith("| Metric")


GOLDEN_CASES = [(fixture.name, sub, fmt)
                for fixture in sorted(FIXTURES.glob("*.json"))
                for sub, fmt in (("analyze", "json"), ("analyze", "csv"),
                                 ("analyze", "table"), ("census", None))]


@pytest.mark.parametrize("fixture,sub,fmt", GOLDEN_CASES)
def test_output_matches_golden_bytes(fixture, sub, fmt, capsys):
    """Reports on the checked-in fixtures are locked byte for byte."""
    argv = [sub, str(FIXTURES / fixture)]
    if fmt:
        argv += ["--format", fmt]
    suffix = {"json": "json", "csv": "csv", "table": "txt", None: "csv"}[fmt]
    golden = GOLDEN / f"{Path(fixture).stem}.{sub}.{suffix}"
    assert main(argv) == 0
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_compare_matches_golden_bytes(capsys):
    """``compare`` over every checked-in fixture is locked byte for byte."""
    argv = ["compare", *map(str, sorted(FIXTURES.glob("*.json")))]
    assert main(argv) == 0
    assert capsys.readouterr().out \
        == (GOLDEN / "compare.csv").read_text(encoding="utf-8")


class TestCensus:
    def test_csv_columns(self, pike_file, capsys):
        assert main(["census", str(pike_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "layer_id,category,op_class,count,bits_a,bits_b"
        assert len(lines) > 10

    def test_trivial_graph_is_header_only(self, tmp_path, capsys):
        doc = {
            "ir_version": 1, "name": "trivial",
            "input": {"n": 1, "h": 8, "w": 8, "c": 3},
            "nodes": [
                {"id": "in", "kind": "Input", "params": {}, "inputs": []},
                {"id": "out", "kind": "Output", "params": {},
                 "inputs": ["in"]},
            ],
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(doc))
        assert main(["census", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "layer_id,category,op_class,count,bits_a,bits_b"]

    def test_missing_file(self, capsys):
        assert main(["census", "/nonexistent.json"]) == 1


class TestOracle:
    def test_sweep_reports_pair_count(self, capsys):
        assert main(["oracle", "--max-bits", "16"]) == 0
        assert "0 mismatches / 256 pairs" in capsys.readouterr().out

    def test_fp_adder_table(self, capsys):
        assert main(["oracle", "--fp-adder", "8", "23"]) == 0
        out = capsys.readouterr().out
        assert "alignment_shift" in out
        assert "(bound 192)" in out

    def test_shifter(self, capsys):
        assert main(["oracle", "--shifter", "32", "32"]) == 0
        assert "160 muxes -> 32 bitadders" in capsys.readouterr().out

    def test_out_of_range_is_a_usage_error(self, capsys):
        assert main(["oracle", "--max-bits", "65"]) == 64

    def test_unknown_flag_exits_64(self):
        with pytest.raises(SystemExit) as err:
            main(["oracle", "--bogus"])
        assert err.value.code == 64

    # Each mode's mismatch branch, reached by patching the oracle to
    # report one: exit 3 and the stderr line.
    def test_fp_adder_over_its_bound_exits_3(self, monkeypatch, capsys):
        over = oracle.FpAdderBreakdown(8, 23, *[100.0] * 9)
        monkeypatch.setattr(oracle, "fp_adder_breakdown", lambda e, m: over)
        assert main(["oracle", "--fp-adder", "8", "23"]) == 3
        captured = capsys.readouterr()
        assert "900.0000  (bound 192)" in captured.out
        assert captured.err == "component sum exceeds the factor-6 bound\n"

    def test_fp_adder_bound_is_the_cost_model_factor(self, monkeypatch,
                                                     capsys):
        monkeypatch.setattr(cost, "FLOAT_ADD_FACTOR", 4)
        assert main(["oracle", "--fp-adder", "8", "23"]) == 3
        captured = capsys.readouterr()
        assert "(bound 128)" in captured.out
        assert captured.err == "component sum exceeds the factor-4 bound\n"

    def test_shifter_disagreeing_with_the_closed_form_exits_3(
            self, monkeypatch, capsys):
        monkeypatch.setattr(oracle, "barrel_matches_closed_form",
                            lambda i, j: False)
        assert main(["oracle", "--shifter", "32", "32"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "160 muxes -> 32 bitadders\n"
        assert captured.err == ("barrel construction disagrees with the "
                                "closed form\n")

    def test_sweep_mismatches_exit_3_listing_at_most_20(self, monkeypatch,
                                                        capsys):
        pairs = [(i, j, i * j, i * j - 1) for i in range(1, 6)
                 for j in range(1, 6)]
        monkeypatch.setattr(oracle, "verify_multiply_formula",
                            lambda max_bits: pairs)
        assert main(["oracle", "--max-bits", "5"]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "25 mismatches / 25 pairs"
        assert lines[1:] == [f"  {i}x{j}: built {b}, predicted {p}"
                             for i, j, b, p in pairs[:20]]


# zoo emit: the flags each model's builder reads, and a valid value of each
ZOO_FLAGS_READ = {
    "pikelpn": {"--scale"},
    "mobilenet_v1": {"--weight-bits", "--act-bits"},
    "mobilenet_v2": {"--weight-bits", "--act-bits", "--activation",
                     "--granularity"},
    "resnet50": {"--branches", "--weight-bits", "--act-bits"},
}
ZOO_FLAG_VALUES = {"--scale": "2x", "--weight-bits": "4", "--act-bits": "4",
                   "--activation": "prelu", "--granularity": "layerwise",
                   "--branches": "3"}


class TestZooEmit:
    def test_emitted_file_parses_and_matches_builder(self, pike_file):
        text = pike_file.read_text()
        assert text == serialize_graph(zoo.build_pikelpn("1x"))
        assert serialize_graph(parse_graph(text)) == text

    def test_resnet_flags(self, tmp_path):
        path = tmp_path / "r.json"
        assert main(["zoo", "emit", "resnet50", "--branches", "3",
                     "--weight-bits", "1", "--act-bits", "1",
                     "-o", str(path)]) == 0
        g = parse_graph(path.read_text())
        assert g.name.startswith("resnet50_3b")

    @pytest.mark.parametrize("model", list(cli._ZOO_MODELS))
    def test_each_model_writes_its_builder_graph(self, model, tmp_path):
        fixed, binary = NumericFormat.fixed, NumericFormat.binary()
        cases = {  # model -> [(arguments, the zoo call they must build)]
            "pikelpn": [(["--scale", "3x"], lambda: zoo.build_pikelpn("3x"))],
            "mobilenet_v1": [
                ([], lambda: zoo.build_mobilenet_v1()),
                (["--weight-bits", "1", "--act-bits", "4"],
                 lambda: zoo.build_mobilenet_v1(weight_fmt=fixed(1),
                                                act_fmt=fixed(4)))],
            "mobilenet_v2": [
                ([], lambda: zoo.build_mobilenet_v2(8, 8)),
                (["--weight-bits", "2", "--act-bits", "4", "--activation",
                  "dprelu", "--granularity", "subchannelwise"],
                 lambda: zoo.build_mobilenet_v2(2, 4, "dprelu",
                                                "subchannelwise"))],
            "resnet50": [
                ([], lambda: zoo.build_resnet50_branches(2, fixed(8),
                                                         fixed(8))),
                (["--branches", "4", "--weight-bits", "1", "--act-bits",
                  "4"],
                 lambda: zoo.build_resnet50_branches(4, binary, fixed(4)))],
        }
        for argv, build in cases[model]:
            out = tmp_path / "model.json"
            assert main(["zoo", "emit", model, *argv, "-o", str(out)]) == 0
            assert out.read_text() == serialize_graph(build()), argv

    def test_golden_fixtures_are_current(self):
        builders = {
            "pikelpn_1x.json": lambda: zoo.build_pikelpn("1x"),
            "mobilenet_v2_4w4a.json":
                lambda: zoo.build_mobilenet_v2(4, 4, "relu", "channelwise"),
            "resnet50_2b_binary.json": lambda: zoo.build_resnet50_branches(2),
        }
        for name, build in builders.items():
            assert (FIXTURES / name).read_text() == serialize_graph(build()), name


class TestCompare:
    def test_rows_ascend_by_cost(self, pike_file, tmp_path, capsys):
        six = tmp_path / "pikelpn_6x.json"
        assert main(["zoo", "emit", "pikelpn", "--scale", "6x",
                     "-o", str(six)]) == 0
        assert main(["compare", str(six), str(pike_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("name,total_ace")
        assert lines[1].startswith("pikelpn_1x,")
        assert lines[2].startswith("pikelpn_6x,")

    def test_single_file(self, pike_file, capsys):
        assert main(["compare", str(pike_file)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_partial_failure_keeps_good_rows(self, pike_file, broken_file,
                                             capsys):
        assert main(["compare", str(pike_file), str(broken_file)]) == 1
        captured = capsys.readouterr()
        assert "pikelpn_1x," in captured.out
        assert "broken.json" in captured.err


class TestQuantsim:
    def test_emits_per_trial_rows(self, capsys):
        assert main(["quantsim", "--trials", "25"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "trial,quantnorm_mse,vanilla_mse"
        assert len(lines) == 26
        assert "25 trials" in captured.err

    def test_thousand_trial_output_is_pinned(self, capsys):
        # the bytes of the one-trial-at-a-time study
        assert main(["quantsim", "--trials", "1000"]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == (
            "3d9d703bd5c135c4eca51362b8e07f740bc1ceeeb7389a261d695e871f12e333")
        assert "936/1000 trials" in captured.err


def test_stamp_flag_adds_version_comment(pike_file, capsys):
    assert main(["analyze", str(pike_file), "--stamp"]) == 0
    assert capsys.readouterr().out.startswith("# acev2 ")


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_cli_import_leaves_numpy_unloaded():
    """numpy is only needed by quantsim, which imports it on use."""
    src = str(Path(acev2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, acev2.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_start_up_modules_load_no_dataclasses_inspect_or_numpy():
    """Every module but quantizers, imported in a fresh interpreter with
    no site hooks (``-S``), loads none of ``dataclasses`` (which pulls in
    ``inspect``, ``ast`` and ``dis``), ``inspect`` or ``numpy``: their
    import would be most of the start-up of each acev2 process. Nor does
    it load ``statistics``, which only ``cost.pearson_correlation``
    imports, when called."""
    src = str(Path(acev2.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import acev2.cli, acev2.ir, acev2.census, acev2.analysis, "
            "acev2.cost, acev2.formats, acev2.zoo, acev2.oracle; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'numpy', "
            "'statistics') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_leaves_oracle_and_zoo_unloaded():
    """analyze, census and compare use neither; their subcommands and
    the argument types that need them import them on use."""
    src = str(Path(acev2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, acev2.cli; acev2.cli.build_parser(); print(sorted("
            "m for m in ('acev2.oracle', 'acev2.zoo') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_importing_oracle_and_formats_loads_no_graph_module():
    """The package loads a submodule only when one of its names is used."""
    src = str(Path(acev2.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, acev2.oracle, acev2.formats; print(sorted(m for m "
            "in ('acev2.analysis', 'acev2.census', 'acev2.ir', 'acev2.zoo') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_package_names_resolve_to_their_submodules():
    for name in acev2.__all__:
        value = getattr(acev2, name)
        assert value.__module__.startswith("acev2.")
    assert acev2.dadda_adder_count.__module__ == "acev2.oracle"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        acev2.nope


OUT_ARGV = {
    "zoo emit": ["zoo", "emit", "pikelpn"],
    "analyze": ["analyze", str(FIXTURES / "pikelpn_1x.json")],
    "census": ["census", str(FIXTURES / "pikelpn_1x.json")],
    "compare": ["compare", str(FIXTURES / "pikelpn_1x.json")],
    "quantsim": ["quantsim", "--trials", "2"],
}


@pytest.mark.parametrize("sub", sorted(OUT_ARGV))
@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_unwritable_out_is_an_input_error(sub, where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.out" if where == "missing_dir" \
        else tmp_path
    reason = ("No such file or directory" if where == "missing_dir"
              else "Is a directory")
    assert main(OUT_ARGV[sub] + ["-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {out}: {reason}\n"
    assert captured.out == ""


def test_compare_with_a_bad_file_and_an_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.out"
    bad = tmp_path / "missing.json"
    assert main(["compare", str(bad), str(FIXTURES / "pikelpn_1x.json"),
                 "-o", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: No such file or directory\n"
        f"error: {out}: No such file or directory\n")


def test_a_failed_stdout_write_names_no_file(monkeypatch, capsys):
    class Full:
        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["census", str(FIXTURES / "pikelpn_1x.json")]) == 1
    assert capsys.readouterr().err == "error: No space left on device\n"


@pytest.mark.parametrize("sub", ["analyze", "census", "compare"])
@pytest.mark.parametrize("where", ["missing", "a_directory"])
def test_unreadable_input_names_the_file_once(sub, where, tmp_path,
                                              capsys):
    path = tmp_path / "missing.json" if where == "missing" else tmp_path
    reason = ("No such file or directory" if where == "missing"
              else "Is a directory")
    good = [str(FIXTURES / "pikelpn_1x.json")] if sub == "compare" else []
    assert main([sub, str(path)] + good) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: {reason}\n"
    if sub == "compare":
        assert captured.out.splitlines()[1].startswith("pikelpn_1x,")


class TestNotUtf8:
    @pytest.fixture
    def utf16_file(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes((FIXTURES / "pikelpn_1x.json").read_text()
                         .encode("utf-16"))  # starts \xff\xfe
        return path

    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_exits_one(self, sub, utf16_file, capsys):
        assert main([sub, str(utf16_file)]) == 1
        assert capsys.readouterr().err == (
            "error: not UTF-8 text: invalid start byte at byte 0\n")

    def test_compare_lists_it_as_one_failure(self, utf16_file, pike_file,
                                             capsys):
        assert main(["compare", str(utf16_file), str(pike_file)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("pikelpn_1x,")
        assert captured.err == (f"error: {utf16_file}: not UTF-8 text: "
                                "invalid start byte at byte 0\n")


def test_deeply_nested_document_exits_one(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("sub", ["analyze", "census"])
def test_an_integer_too_long_to_read_exits_one(sub, pike_file, tmp_path,
                                                capsys):
    path = tmp_path / "long_h.json"
    path.write_text(pike_file.read_text().replace(
        '"h": 224', '"h": 1' + "0" * 5002, 1))
    assert main([sub, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON: ")
    assert "5003 digits" in err and err.count("\n") == 1


def bad_doc(change):
    """``format_doc()`` (Input -> PointwiseConv2D -> Output) after
    ``change``."""
    doc = format_doc()
    change(doc)
    return doc


def replace_conv(params):
    return lambda doc: doc["nodes"].__setitem__(1, {
        "id": "pw", "kind": "Conv2D", "params": params, "inputs": ["in"]})


def set_quant(**fields):
    return lambda doc: doc["nodes"][1]["quant"].update(fields)


def set_input(key, value):
    return lambda doc: doc["input"].__setitem__(key, value)


CONV = {"kernel": [3, 3], "out_channels": 4}
SUB = "subchannelwise"
QUANT = "$.nodes[1].quant"
BAD_DOCS = {  # case -> (document, the JSON path its error names)
    "vectors_string": (bad_doc(set_quant(granularity=SUB,
                                         vectors_per_channel="2")),
                       f"{QUANT}.vectors_per_channel"),
    "vectors_float": (bad_doc(set_quant(granularity=SUB,
                                        vectors_per_channel=2.5)),
                      f"{QUANT}.vectors_per_channel"),
    "granularity_number": (bad_doc(set_quant(granularity=7)),
                           f"{QUANT}.granularity"),
    "weight_quantizer_number": (bad_doc(set_quant(weight_quantizer=3)),
                                f"{QUANT}.weight_quantizer"),
    "input_n_float": (bad_doc(set_input("n", 1.5)), "$.input.n"),
    "input_n_true": (bad_doc(set_input("n", True)), "$.input.n"),
    "node_list": (bad_doc(lambda doc: doc["nodes"].append([])),
                  "$.nodes[3]"),
    "params_list": (bad_doc(lambda doc: doc["nodes"][2].__setitem__(
        "params", [])), "$.nodes[2].params"),
    "quant_list": (bad_doc(lambda doc: doc["nodes"][1].__setitem__(
        "quant", [])), "$.nodes[1].quant"),
    "ir_version_true": (bad_doc(lambda doc: doc.__setitem__(
        "ir_version", True)), "$.ir_version"),
    "missing_kernel": (bad_doc(replace_conv({"out_channels": 4})),
                       "$.nodes[1].params.kernel"),
    "stride_zero": (bad_doc(replace_conv(dict(CONV, stride=0))),
                    "$.nodes[1].params.stride"),
    "kernel_string": (bad_doc(replace_conv(dict(CONV, kernel="3x3"))),
                      "$.nodes[1].params.kernel"),
    "out_channels_float": (bad_doc(replace_conv(dict(CONV,
                                                     out_channels=8.0))),
                           "$.nodes[1].params.out_channels"),
    "out_channels_negative": (bad_doc(replace_conv(dict(CONV,
                                                        out_channels=-8))),
                              "$.nodes[1].params.out_channels"),
    "padding_full": (bad_doc(replace_conv(dict(CONV, padding="full"))),
                     "$.nodes[1].params.padding"),
    "name_number": (bad_doc(lambda doc: doc.__setitem__("name", 5)),
                    "$.name"),
    "duplicate_id": (bad_doc(lambda doc: doc["nodes"][2].__setitem__(
        "id", "pw")), "$.nodes[2].id"),
}


class TestBadDocuments:
    @pytest.mark.parametrize("case", sorted(BAD_DOCS))
    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_exits_one_with_the_json_path(self, case, sub, tmp_path, capsys):
        doc, json_path = BAD_DOCS[case]
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        assert main([sub, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {json_path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("weight_format,shown", [
        ({"kind": "float", "bits": 16, "exp": 5, "man": 10}, "fp16"),
        ({"kind": "binary", "bits": 1}, "binary"),
        (None, "fp32"),
    ], ids=["fp16", "binary", "absent"])
    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_pot_weights_on_too_few_fixed_bits_are_malformed(
            self, weight_format, shown, sub, tmp_path, capsys):
        doc = json.loads((FIXTURES / "pikelpn_1x.json").read_text())
        node = doc["nodes"][5]
        assert node["id"] == "b1_pw" and node["quant"]["weight_quantizer"] \
            == "pot"
        node.pop("weight_format")
        if weight_format is not None:
            node["weight_format"] = weight_format
        path = tmp_path / "pike.json"
        path.write_text(json.dumps(doc))
        assert main([sub, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: $.nodes[5].quant.weight_quantizer: power-of-two weights "
            "need a fixed-point weight_format of at least 2 bits, got "
            f"{shown}\n")

    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_quant_on_a_batchnorm_is_malformed(self, sub, tmp_path, capsys):
        doc = json.loads((FIXTURES / "pikelpn_1x.json").read_text())
        node = doc["nodes"][2]
        assert (node["id"], node["kind"]) == ("conv1_norm", "BatchNorm")
        node["quant"] = {"granularity": "layerwise",
                         "scale": {"kind": "fixed", "bits": 8}}
        path = tmp_path / "pike.json"
        path.write_text(json.dumps(doc))
        assert main([sub, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: $.nodes[2].quant: quant is only valid on compute layers "
            "(Conv2D, DepthwiseConv2D, PointwiseConv2D, Dense), not "
            "BatchNorm\n")

    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_missing_input_dim_names_its_key(self, sub, tmp_path, capsys):
        path = tmp_path / "no_c.json"
        path.write_text(json.dumps(bad_doc(lambda doc: doc["input"].pop("c"))))
        assert main([sub, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: $.input.c: missing input key 'c'\n")

    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_a_two_input_activation_names_its_inputs(self, sub, tmp_path,
                                                     capsys):
        doc = json.loads((FIXTURES / "pikelpn_1x.json").read_text())
        i, node = next((i, node) for i, node in enumerate(doc["nodes"])
                       if node["kind"] == "Activation")
        node["inputs"] = node["inputs"] * 2
        path = tmp_path / "pike.json"
        path.write_text(json.dumps(doc))
        assert main([sub, str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: $.nodes[{i}].inputs: Activation takes exactly one "
            "input\n")

    @pytest.mark.parametrize("sub", ["analyze", "census"])
    def test_a_cycle_names_the_first_node_it_holds_back(self, sub, tmp_path,
                                                        capsys):
        doc = json.loads((FIXTURES / "pikelpn_1x.json").read_text())
        doc["nodes"][1]["inputs"] = [doc["nodes"][3]["id"]]
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert main([sub, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: $.nodes[1].inputs: graph contains a cycle\n")

    def test_float_bits_after_an_accepted_twin_are_malformed(self, tmp_path,
                                                             capsys):
        doc = json.loads((FIXTURES / "pikelpn_1x.json").read_text())
        bodies = [{k: v for k, v in node.items() if k not in ("id", "inputs")}
                  for node in doc["nodes"]]
        i = next(i for i, body in enumerate(bodies) if body in bodies[:i]
                 and body["kind"] in ir.COMPUTE_KINDS
                 and body["weight_format"]["bits"] == 8)
        doc["nodes"][i]["weight_format"]["bits"] = 8.0
        path = tmp_path / "float_bits.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: $.nodes[{i}].weight_format: format kind must be a "
            "string, widths integers\n")

    def test_good_conv_document_analyzes(self, tmp_path):
        path = tmp_path / "good.json"
        path.write_text(json.dumps(bad_doc(replace_conv(CONV))))
        assert main(["analyze", str(path)]) == 0

    def test_compare_of_a_number_name_and_a_same_cost_file(self, tmp_path,
                                                           capsys):
        good, bad = tmp_path / "good.json", tmp_path / "name_number.json"
        good.write_text(json.dumps(format_doc()))
        bad.write_text(json.dumps(BAD_DOCS["name_number"][0]))
        assert main(["compare", str(bad), str(good)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("formats,")
        assert f"error: {bad}: $.name: " in captured.err
        assert "Traceback" not in captured.err

    def test_compare_reports_the_file_and_keeps_good_rows(self, pike_file,
                                                          tmp_path, capsys):
        bad = tmp_path / "stride_zero.json"
        doc, json_path = BAD_DOCS["stride_zero"]
        bad.write_text(json.dumps(doc))
        assert main(["compare", str(pike_file), str(bad)]) == 1
        captured = capsys.readouterr()
        assert "pikelpn_1x," in captured.out
        assert f"error: {bad}: {json_path}: " in captured.err


def shape_doc(*nodes, **input_dims):
    """A document over a 2x2x3 input: Input, ``nodes``, then an Output of
    the last node."""
    last = nodes[-1]["id"] if nodes else "in"
    return {"ir_version": 1, "name": "shapes",
            "input": {"n": 1, "h": 2, "w": 2, "c": 3, **input_dims},
            "nodes": [{"id": "in", "kind": "Input", "params": {},
                       "inputs": []}, *nodes,
                      {"id": "out", "kind": "Output", "params": {},
                       "inputs": [last]}]}


ERROR_LINES = {  # case -> (document, its whole stderr)
    "input_extra_key": (shape_doc(d=4),
                        "error: $.input.d: unknown key 'd'\n"),
    # README's example of a shape mismatch
    "valid_kernel_over_input": (shape_doc(
        {"id": "c", "kind": "Conv2D", "inputs": ["in"],
         "params": {"kernel": [3, 3], "out_channels": 4,
                    "padding": "valid"}}),
        "error: $.nodes[1]: c: kernel larger than input\n"),
    "concat_2x2_and_1x1": (shape_doc(
        {"id": "p", "kind": "Pool", "params": {"pool": "global_avg"},
         "inputs": ["in"]},
        {"id": "cat", "kind": "Concat", "params": {}, "inputs": ["in", "p"]}),
        "error: $.nodes[2]: cat: concat spatial dims differ\n"),
}


@pytest.mark.parametrize("case", sorted(ERROR_LINES))
@pytest.mark.parametrize("sub", ["analyze", "census"])
def test_a_malformed_input_or_shape_exits_one_with_its_line(case, sub,
                                                            tmp_path, capsys):
    doc, err = ERROR_LINES[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    assert main([sub, str(path)]) == 1
    assert capsys.readouterr().err == err


def test_a_zero_cost_report_shows_no_shares(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(shape_doc()))
    assert main(["analyze", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["total_ace"], payload["mac_share"],
            payload["elementwise_share"]) == ("0", None, None)
    assert main(["analyze", str(path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "section,key,value\n"
        "totals,total_ace,0\n"
        "totals,energy_mj,0\n"
        "totals,arithmetic_intensity,0\n"
        "footprint,weight_elems,0\n"
        "footprint,activation_elems,12\n"
        "footprint,concurrent_branch_factor,1\n")
    assert main(["analyze", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[4] == "| MAC share                       | - |"
    assert rows[5] == "| Elementwise share               | - |"


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (["oracle", "--shifter", "0", "4"], "need at least one data bit"),
        (["oracle", "--shifter", "4", "1"], "shift range must be at least 2"),
        (["oracle", "--shifter", "100", "4"],
         "data bits must be in [1, 64], got 100"),
        (["oracle", "--fp-adder", "1", "1"],
         "exponent and mantissa bits must each be in [2, 64], got 1 and 1"),
        (["oracle", "--fp-adder", "65", "2"],
         "exponent and mantissa bits must each be in [2, 64], got 65 and 2"),
        (["oracle", "--fp-adder", "100000000", "3"],
         "exponent and mantissa bits must each be in [2, 64], got 100000000 "
         "and 3"),
        (["oracle", "--max-bits", "0"], "max_bits must be in [1, 64]"),
        (["quantsim", "--trials", "-1"],
         "trials and seed must be >= 0, got -1 and 20240817"),
        (["quantsim", "--trials", "2", "--seed", "-1"],
         "trials and seed must be >= 0, got 2 and -1"),
    ], ids=["shifter_no_data_bits", "shifter_range_one", "shifter_too_wide",
            "fp_adder_too_narrow", "fp_adder_too_wide",
            "fp_adder_far_too_wide", "max_bits_zero", "trials_negative",
            "seed_negative"])
    def test_exits_64_with_an_error_line(self, argv, message, capsys):
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("first,second", [
        (["--max-bits", "4"], ["--shifter", "8", "8"]),
        (["--max-bits", "64"], ["--fp-adder", "8", "23"]),
        (["--fp-adder", "8", "23"], ["--shifter", "8", "8"]),
    ], ids=["max_bits_shifter", "max_bits_fp_adder", "fp_adder_shifter"])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_oracle_modes_are_exclusive(self, first, second, order, capsys):
        argv = first + second if order == "forward" else second + first
        with pytest.raises(SystemExit) as err:
            main(["oracle"] + argv)
        assert err.value.code == 64
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("scale", ["5x", "1X", ""])
    def test_zoo_emit_unknown_scale(self, scale, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["zoo", "emit", "pikelpn", "--scale", scale,
                  "-o", str(out)])
        assert err.value.code == 64
        captured = capsys.readouterr()
        assert (f"invalid choice: {scale!r} (choose from '1x', '2x', '3x', "
                "'6x')") in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--weight-bits", "--act-bits"])
    @pytest.mark.parametrize("bits", ["0", "70"])
    def test_zoo_emit_bit_width_out_of_range(self, flag, bits, tmp_path,
                                             capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["zoo", "emit", "resnet50", flag, bits, "-o", str(out)])
        assert err.value.code == 64
        assert (f"argument {flag}: bit width must be in [1, 64], got {bits}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zoo_emit_bit_width_not_an_integer(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["zoo", "emit", "resnet50", "--weight-bits", "x",
                  "-o", str(out)])
        assert err.value.code == 64
        assert ("argument --weight-bits: invalid int value: 'x'"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("model,flag", [
        (model, flag) for model, reads in ZOO_FLAGS_READ.items()
        for flag in ZOO_FLAG_VALUES if flag not in reads])
    def test_zoo_emit_rejects_a_flag_its_model_does_not_read(
            self, model, flag, tmp_path, capsys):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["zoo", "emit", model, flag, ZOO_FLAG_VALUES[flag],
                  "-o", str(out)])
        assert err.value.code == 64
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith(f"usage: acev2 zoo emit {model} ")
        assert lines[-1] == (f"acev2 zoo emit {model}: error: unrecognized "
                             f"arguments: {flag} {ZOO_FLAG_VALUES[flag]}")
        assert not out.exists()

    def test_zoo_emit_models_keep_their_flags_and_order(self, capsys):
        assert {model: set(flags) for model, (flags, _)
                in cli._ZOO_MODELS.items()} == ZOO_FLAGS_READ
        with pytest.raises(SystemExit) as err:
            main(["zoo", "emit", "bogus"])
        assert err.value.code == 64
        assert ("invalid choice: 'bogus' (choose from 'pikelpn', "
                "'mobilenet_v1', 'mobilenet_v2', 'resnet50')"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("bits", ["1", "64"])
    def test_zoo_emit_bit_width_bounds_are_accepted(self, bits, tmp_path):
        out = tmp_path / "r.json"
        assert main(["zoo", "emit", "resnet50", "--weight-bits", bits,
                     "--act-bits", bits, "-o", str(out)]) == 0
        parse_graph(out.read_text())


FP8 = {"kind": "float", "bits": 8, "exp": 4, "man": 3}


def fp8_norm_doc(then_pot_scale: bool) -> dict:
    """Input -> BatchNorm at fp8 (energy has no fp8 anchor; bit-adders
    price it) -> Output, with a power-of-two scaled conv on fp32
    activations (bit-adders cannot price that shift) before the Output
    if ``then_pot_scale``."""
    nodes = [{"id": "in", "kind": "Input", "params": {}, "inputs": []},
             {"id": "bn", "kind": "BatchNorm", "params": {}, "inputs": ["in"],
              "weight_format": FP8}]
    if then_pot_scale:
        nodes.append({"id": "pw", "kind": "PointwiseConv2D",
                      "params": {"out_channels": 4}, "inputs": ["bn"],
                      "quant": {"scale": "pot"}})
    nodes.append({"id": "out", "kind": "Output", "params": {},
                  "inputs": [nodes[-1]["id"]]})
    return {"ir_version": 1, "name": "fp8", "nodes": nodes,
            "input": {"n": 1, "h": 8, "w": 8, "c": 3}}


@pytest.mark.parametrize("then_pot_scale,message", [
    (False, "bn: no measured multiply energy for 8-bit floats"),
    (True, "pw: shift cost is defined for fixed-point values, got fp32"),
], ids=["energy_only", "energy_then_bitadders"])
def test_a_bitadder_failure_is_reported_before_an_energy_failure(
        then_pot_scale, message, tmp_path, capsys):
    path = tmp_path / "fp8.json"
    path.write_text(json.dumps(fp8_norm_doc(then_pot_scale)))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err == f"analysis error: {message}\n"


@pytest.fixture
def collector():
    """Restores the cyclic collector's state after the test."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def exit_status(argv) -> int:
    """``main``'s return value, or the code of the SystemExit it raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def tmp_inputs(tmp_path):
    """tmp_path, holding a malformed document and one that fails
    analysis; "{tmp}" in an argv below stands for it."""
    (tmp_path / "broken.json").write_text('{"ir_version": 1, "nodes": 5}')
    (tmp_path / "fp8.json").write_text(json.dumps(fp8_norm_doc(False)))
    return tmp_path


PIKE = str(FIXTURES / "pikelpn_1x.json")
EXIT_PATHS = {  # case -> (argv, exit status)
    "analyze": (["analyze", PIKE, "--format", "json"], 0),
    "census": (["census", PIKE], 0),
    "compare": (["compare", PIKE], 0),
    "oracle": (["oracle", "--max-bits", "4"], 0),
    "zoo_emit": (["zoo", "emit", "pikelpn"], 0),
    "quantsim": (["quantsim", "--trials", "2"], 0),
    "parse_error": (["analyze", "{tmp}/broken.json"], 1),
    "os_error": (["census", "{tmp}/missing.json"], 1),
    "analysis_error": (["analyze", "{tmp}/fp8.json"], 2),
    "out_of_range": (["oracle", "--max-bits", "65"], 64),
    "usage": (["oracle", "--bogus"], 64),
    "version": (["--version"], 0),
}


@pytest.mark.parametrize("enabled", [True, False],
                         ids=["gc_enabled", "gc_disabled"])
@pytest.mark.parametrize("case", sorted(EXIT_PATHS))
def test_main_leaves_the_collector_as_it_found_it(case, enabled, tmp_inputs,
                                                  collector, capsys):
    argv, status = EXIT_PATHS[case]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    assert exit_status([a.format(tmp=tmp_inputs) for a in argv]) == status
    assert gc.isenabled() is enabled


def test_the_subcommand_runs_with_the_collector_paused(monkeypatch,
                                                       collector, capsys):
    seen = []

    def census_graph(g):
        seen.append(gc.isenabled())
        return census.census_graph(g)

    monkeypatch.setattr(cli, "census_graph", census_graph)
    gc.enable()
    assert main(["census", PIKE]) == 0
    assert seen == [False] and gc.isenabled()


FIXTURE_FILES = [str(p) for p in sorted(FIXTURES.glob("*.json"))]


def test_the_library_leaves_the_collector_alone(monkeypatch):
    """The collector is process-wide state that callers own: parsing,
    analyzing, a census and serializing never touch it."""
    def touched(*args):
        raise AssertionError("the library called into gc")

    for name in ("enable", "disable", "isenabled", "collect", "freeze"):
        monkeypatch.setattr(gc, name, touched)
    for path in FIXTURE_FILES:
        g = parse_graph(Path(path).read_text(encoding="utf-8"))
        analysis.analyze(g)
        census.census_graph(g)
        serialize_graph(g)


GRAPH_PATH_RUNS = {  # case -> the argv of each run
    **{f"analyze_{fmt}": [["analyze", f, "--format", fmt]
                          for f in FIXTURE_FILES]
       for fmt in ("json", "csv", "table")},
    "census": [["census", f] for f in FIXTURE_FILES],
    "compare": [["compare", *FIXTURE_FILES, "{tmp}/broken.json",
                 "{tmp}/missing.json"]],
    "zoo_emit": [["zoo", "emit", model] for model in
                 ("pikelpn", "mobilenet_v1", "mobilenet_v2", "resnet50")],
}


@pytest.mark.parametrize("case", sorted(GRAPH_PATH_RUNS))
def test_the_graph_path_leaves_no_cyclic_garbage(case, tmp_inputs, collector,
                                                 capsys):
    """What makes pausing the collector free: with it off, reference
    counting alone frees everything a graph-path subcommand allocates.
    The warm-up call takes the first import of a module, whose objects
    refer to each other, out of the count."""
    runs = [[a.format(tmp=tmp_inputs) for a in argv]
            for argv in GRAPH_PATH_RUNS[case]]
    exit_status(runs[0])
    gc.collect()
    gc.disable()
    for argv in runs:
        exit_status(argv)
        capsys.readouterr()
        assert gc.collect() == 0, argv


README = Path(__file__).parent.parent / "README.md"


def test_readme_sample_table_is_the_cli_output(capsys):
    readme = README.read_text()
    intro = "`analyze` renders a report as a markdown-ish table, JSON, or CSV:"
    sample = readme.split(f"{intro}\n\n```\n", 1)[1].split("```\n", 1)[0]
    argv = ["analyze", str(FIXTURES / "pikelpn_1x.json"), "--format", "table"]
    assert main(argv) == 0
    assert capsys.readouterr().out == sample


def test_readme_exit_codes_are_the_cli_constants():
    section = README.read_text().split(
        "Exit codes, each with one `error:` line on stderr:\n\n", 1)[1]
    listed = {}
    for line in section.split("\n\n", 1)[0].splitlines():
        if line.startswith("- "):
            code, label = line[2:].split(": ", 1)
            listed[int(code)] = label.split(".")[0].split(",")[0]
    assert listed == {cli.EXIT_OK: "success", cli.EXIT_INPUT: "input error",
                      cli.EXIT_ANALYSIS: "analysis error",
                      cli.EXIT_MISMATCH: "oracle mismatch",
                      cli.EXIT_USAGE: "usage error"}


def test_readme_python_api_block_runs_and_its_figure_holds(capsys):
    section = README.read_text().split("## Python API\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    total = capsys.readouterr().out.splitlines()[0]
    claimed = block.split("# ~", 1)[1].split(" bit-adders", 1)[0]
    assert f"{float(total):.3g}" == f"{float(claimed):.3g}" == "1.94e+10"
