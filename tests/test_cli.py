"""Command-line behavior: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import acev2
from acev2 import zoo
from acev2.cli import fraction_decimal, main
from acev2.ir import parse_graph, serialize_graph
from fractions import Fraction

FIXTURES = Path(__file__).parent / "fixtures"


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
        assert "pw-kernel-1x1" in capsys.readouterr().err


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
