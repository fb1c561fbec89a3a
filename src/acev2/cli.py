"""Command-line front end.

Subcommands:

  analyze   cost report for one graph file (json / csv / table)
  census    per-layer operation dump as CSV
  oracle    gate-level constructions vs the closed-form costs
  zoo emit  write a built-in model graph to a JSON file
  compare   multi-model cost table, ascending by total cost
  quantsim  normalization-quantization error study as CSV

Exit codes: 0 success, 1 input error, 2 analysis error, 3 oracle
mismatch, 64 usage error. Output is deterministic for identical inputs;
--stamp adds a comment line with the tool version outside any data
body. The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import __version__, analysis, oracle, zoo
from .census import census_graph
from .errors import AceV2Error, ParseError
from .formats import NumericFormat
from .ir import Graph, parse_graph, serialize_graph, validate_with_order

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ANALYSIS = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def fraction_decimal(value: Fraction) -> str:
    """Exact decimal rendering of a rational whose denominator divides a
    power of ten (all bit-adder totals do)."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    num, den = value.numerator, value.denominator
    scale = 0
    while den % 2 == 0:
        den //= 2
        scale += 1
        num *= 5
    while den % 5 == 0:
        den //= 5
        scale += 1
        num *= 2
    if den != 1:
        raise ValueError(f"{value} has no finite decimal form")
    digits = str(num).rjust(scale + 1, "0")
    if scale == 0:
        return sign + digits
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}"


def _bit_width(text: str) -> int:
    """An argparse type: a bit width in [1, 64], else a usage error."""
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 1 <= bits <= 64:
        raise argparse.ArgumentTypeError(
            f"bit width must be in [1, 64], got {bits}")
    return bits


def _sig4(x: float) -> str:
    return f"{x:.4g}"


def _load_graph(path: str) -> Tuple[Graph, list]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc))
    graph = parse_graph(text)
    diags, order = validate_with_order(graph)
    if diags:
        raise ParseError("; ".join(str(d) for d in diags))
    return graph, order


def _report_payload(report: analysis.CostReport) -> dict:
    return {
        "report_version": 1,
        "name": report.name,
        "total_ace": fraction_decimal(report.total_ace),
        "total_ace_value": float(report.total_ace),
        "ace_by_category": {k: fraction_decimal(v)
                            for k, v in sorted(report.ace_by_category.items())},
        "mac_share": report.mac_share,
        "elementwise_share": report.elementwise_share,
        "energy_mj": report.energy_mj,
        "energy_extrapolated_ops": len(report.extrapolated_energy_ops),
        "arithmetic_intensity": report.arithmetic_intensity,
        "footprint": {
            "weight_elems": report.footprint.weight_elems,
            "activation_elems": report.footprint.activation_elems,
            "concurrent_branch_factor":
                report.footprint.concurrent_branch_factor,
        },
    }


def _report_csv(report: analysis.CostReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    for category, ace in sorted(report.ace_by_category.items()):
        writer.writerow(["ace_by_category", category, fraction_decimal(ace)])
    writer.writerow(["totals", "total_ace", fraction_decimal(report.total_ace)])
    if report.mac_share is not None:
        writer.writerow(["totals", "mac_share", _sig4(report.mac_share)])
        writer.writerow(["totals", "elementwise_share",
                         _sig4(report.elementwise_share)])
    writer.writerow(["totals", "energy_mj", _sig4(report.energy_mj)])
    writer.writerow(["totals", "arithmetic_intensity",
                     _sig4(report.arithmetic_intensity)])
    writer.writerow(["footprint", "weight_elems",
                     report.footprint.weight_elems])
    writer.writerow(["footprint", "activation_elems",
                     report.footprint.activation_elems])
    writer.writerow(["footprint", "concurrent_branch_factor",
                     report.footprint.concurrent_branch_factor])
    return buf.getvalue()


def _report_table(report: analysis.CostReport) -> str:
    def pct(x: Optional[float]) -> str:
        return "-" if x is None else f"{100 * x:.2f}%"

    rows = [
        ("Model", report.name),
        ("Total ACE (bitadders)", fraction_decimal(report.total_ace)),
        ("MAC share", pct(report.mac_share)),
        ("Elementwise share", pct(report.elementwise_share)),
        ("Energy (mJ)", _sig4(report.energy_mj)),
        ("Arithmetic intensity (ops/elem)",
         _sig4(report.arithmetic_intensity)),
        ("Weights (elems)", str(report.footprint.weight_elems)),
        ("Activations (elems)", str(report.footprint.activation_elems)),
        ("Branch factor", str(report.footprint.concurrent_branch_factor)),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"| {k.ljust(width)} | {v} |" for k, v in rows]
    header = f"| {'Metric'.ljust(width)} | Value |"
    rule = f"|{'-' * (width + 2)}|-------|"
    return "\n".join([header, rule] + lines) + "\n"


def _write_out(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    try:
        graph, order = _load_graph(args.model)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        report = analysis.analyze(graph, order)
    except AceV2Error as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    if args.format == "json":
        text = json.dumps(_report_payload(report), indent=2) + "\n"
    elif args.format == "csv":
        text = _report_csv(report)
    else:
        text = _report_table(report)
    if args.stamp:
        text = f"# acev2 {__version__}\n" + text
    _write_out(text, args.out)
    return EXIT_OK


def cmd_census(args) -> int:
    try:
        graph, order = _load_graph(args.model)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        tally = census_graph(graph, None, order)
    except AceV2Error as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer_id", "category", "op_class", "count",
                     "bits_a", "bits_b"])
    for e in tally.entries:
        bits_b = e.shift_range if e.op_class == "shift" else (
            e.format_b.total_bits if e.format_b else "")
        writer.writerow([e.layer_id, e.category, e.op_class, e.count,
                         e.format_a.total_bits, bits_b])
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    status = EXIT_OK
    if args.fp_adder:
        e, m = args.fp_adder
        try:
            breakdown = oracle.fp_adder_breakdown(e, m)
        except AceV2Error as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        names = ("exponent_subtraction", "operand_swapping", "alignment_limit",
                 "alignment_shift", "significand_negation",
                 "significand_addition", "significand_conversion",
                 "normalization", "rounding_postnorm")
        for name, value in zip(names, breakdown.components):
            print(f"{name:24s} {value:10.4f}")
        bound = 6 * breakdown.total_bits
        print(f"{'total':24s} {breakdown.total:10.4f}  (bound {bound})")
        if breakdown.total > bound:
            print("component sum exceeds the factor-6 bound", file=sys.stderr)
            status = EXIT_MISMATCH
    elif args.shifter:
        i, j = args.shifter
        try:
            built = oracle.barrel_mux_count(i, j)
            matches = oracle.barrel_matches_closed_form(i, j)
        except AceV2Error as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"{built.mux21} muxes -> "
              f"{fraction_decimal(built.bitadder_equivalent)} bitadders")
        if not matches:
            print("barrel construction disagrees with the closed form",
                  file=sys.stderr)
            status = EXIT_MISMATCH
    else:
        try:
            mismatches = oracle.verify_multiply_formula(args.max_bits)
        except AceV2Error as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        pairs = args.max_bits * args.max_bits
        print(f"{len(mismatches)} mismatches / {pairs} pairs")
        for i, j, built, predicted in mismatches[:20]:
            print(f"  {i}x{j}: built {built}, predicted {predicted}")
        if mismatches:
            status = EXIT_MISMATCH
    return status


def _build_zoo_model(args) -> Graph:
    if args.model == "pikelpn":
        return zoo.build_pikelpn(args.scale)
    if args.model == "mobilenet_v1":
        wf = NumericFormat.fixed(args.weight_bits)
        af = NumericFormat.fixed(args.act_bits)
        return zoo.build_mobilenet_v1(weight_fmt=wf, act_fmt=af)
    if args.model == "mobilenet_v2":
        return zoo.build_mobilenet_v2(args.weight_bits, args.act_bits,
                                      args.activation, args.granularity)
    if args.model == "resnet50":
        wf = (NumericFormat.binary() if args.weight_bits == 1
              else NumericFormat.fixed(args.weight_bits))
        af = (NumericFormat.binary() if args.act_bits == 1
              else NumericFormat.fixed(args.act_bits))
        return zoo.build_resnet50_branches(args.branches, wf, af)
    raise AceV2Error(f"unknown zoo model {args.model!r}")


def cmd_zoo_emit(args) -> int:
    try:
        graph = _build_zoo_model(args)
    except (AceV2Error, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write_out(serialize_graph(graph), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    results: List[Tuple[str, analysis.CostReport]] = []
    failures: List[Tuple[str, str]] = []
    for path in args.models:
        try:
            report = analysis.analyze(*_load_graph(path))
            results.append((report.name or path, report))
        except AceV2Error as exc:
            failures.append((path, str(exc)))

    rows = analysis.compare(results)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "total_ace", "energy_mj",
                     "arithmetic_intensity", "pareto"])
    for row in rows:
        writer.writerow([row.name, fraction_decimal(row.total_ace),
                         _sig4(row.energy_mj),
                         _sig4(row.arithmetic_intensity),
                         int(row.pareto)])
    _write_out(buf.getvalue(), args.out)
    for path, message in failures:
        print(f"error: {path}: {message}", file=sys.stderr)
    return EXIT_INPUT if failures else EXIT_OK


def cmd_quantsim(args) -> int:
    from . import quantizers  # numpy: only this subcommand needs it

    try:
        trials = quantizers.norm_quantization_study(trials=args.trials,
                                                    seed=args.seed)
    except AceV2Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "quantnorm_mse", "vanilla_mse"])
    for idx, t in enumerate(trials):
        writer.writerow([idx, f"{t.quantnorm_mse:.6e}",
                         f"{t.vanilla_mse:.6e}"])
    wins = sum(t.quantnorm_mse <= t.vanilla_mse for t in trials)
    _write_out(buf.getvalue(), args.out)
    print(f"fused norm at or below vanilla in {wins}/{len(trials)} trials",
          file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="acev2", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="cost report for a graph file")
    p.add_argument("model")
    p.add_argument("--format", choices=("json", "csv", "table"),
                   default="table")
    p.add_argument("--out", "-o")
    p.add_argument("--stamp", action="store_true",
                   help="prefix output with a tool-version comment")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("census", help="per-layer operation CSV")
    p.add_argument("model")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("oracle",
                       help="construction-vs-formula verification")
    p.add_argument("--max-bits", type=int, default=oracle.MAX_BITS)
    p.add_argument("--fp-adder", type=int, nargs=2, metavar=("E", "M"))
    p.add_argument("--shifter", type=int, nargs=2, metavar=("I", "J"))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("zoo", help="built-in model graphs")
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True)
    pe = zoo_sub.add_parser("emit", help="write a model graph as JSON")
    pe.add_argument("model", choices=("pikelpn", "mobilenet_v1",
                                      "mobilenet_v2", "resnet50"))
    pe.add_argument("--scale", choices=sorted(zoo.PIKE_SCALES), default="1x")
    pe.add_argument("--weight-bits", type=_bit_width, default=8)
    pe.add_argument("--act-bits", type=_bit_width, default=8)
    pe.add_argument("--activation", choices=("relu", "prelu", "dprelu"),
                    default="relu")
    pe.add_argument("--granularity",
                    choices=("layerwise", "channelwise", "subchannelwise"),
                    default="channelwise")
    pe.add_argument("--branches", type=int, choices=(2, 3, 4), default=2)
    pe.add_argument("--out", "-o")
    pe.set_defaults(func=cmd_zoo_emit)

    p = sub.add_parser("compare", help="multi-model cost table")
    p.add_argument("models", nargs="+")
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("quantsim",
                       help="normalization quantization error study")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--out", "-o")
    p.set_defaults(func=cmd_quantsim)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
