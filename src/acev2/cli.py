"""Command-line front end.

Subcommands:

  analyze   cost report for one graph file (json / csv / table)
  census    per-layer operation dump as CSV
  oracle    gate-level constructions vs the closed-form costs
  zoo emit  write a built-in model graph to a JSON file
  compare   multi-model cost table, ascending by total cost
  quantsim  normalization-quantization error study as CSV

Exit codes: 0 success; 1 input error: an unreadable file, an unwritable
-o, or a malformed document (a broken node rule or a shape mismatch,
named by its JSON path, or a cycle); 2 analysis error, only for a
cost-model gap such as an op with no energy anchor; 3 oracle mismatch;
64 usage error, out-of-range oracle and quantsim arguments included.
Subcommands raise, and ``main`` alone turns an error into its stderr
line and exit code. Output is deterministic for identical inputs;
--stamp adds a comment line with the tool version outside any data body.
The argument parser is built once per process.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from . import __version__, analysis
from .census import census_graph
from .errors import AceV2Error, OutOfRangeError, ParseError
from .formats import MAX_BITS, NumericFormat
from .ir import (ACTIVATION_KINDS, GRANULARITIES, Graph, parse_graph,
                 serialize_graph)

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
    """An argparse type: a bit width in [1, MAX_BITS], else a usage error."""
    try:
        bits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if not 1 <= bits <= MAX_BITS:
        raise argparse.ArgumentTypeError(
            f"bit width must be in [1, {MAX_BITS}], got {bits}")
    return bits


def _pike_scale(text: str) -> str:
    """An argparse type: a pikelpn scale name, else a usage error. It reads
    the names from ``zoo``, which only ``zoo emit`` imports."""
    from .zoo import PIKE_SCALES
    if text not in PIKE_SCALES:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from "
            f"{', '.join(map(repr, sorted(PIKE_SCALES)))})")
    return text


def _sig4(x: float) -> str:
    return f"{x:.4g}"


def _load_graph(path: str) -> Graph:
    """The graph at ``path``. An unreadable file raises OSError; text that
    is not UTF-8 or not a valid graph, ParseError: ``parse_graph`` checks
    every node rule, and the walk that ``analyze`` and ``census`` start
    with sorts the graph and finds a cycle before anything else runs."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    return parse_graph(text)


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


def _csv(header: List[str], rows: Iterable[list]) -> str:
    """``header`` and ``rows`` as CSV text, each line ending in ``\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_csv(report: analysis.CostReport) -> str:
    rows = [["ace_by_category", category, fraction_decimal(ace)]
            for category, ace in sorted(report.ace_by_category.items())]
    rows.append(["totals", "total_ace", fraction_decimal(report.total_ace)])
    if report.mac_share is not None:
        rows.append(["totals", "mac_share", _sig4(report.mac_share)])
        rows.append(["totals", "elementwise_share",
                     _sig4(report.elementwise_share)])
    fp = report.footprint
    rows += [
        ["totals", "energy_mj", _sig4(report.energy_mj)],
        ["totals", "arithmetic_intensity", _sig4(report.arithmetic_intensity)],
        ["footprint", "weight_elems", fp.weight_elems],
        ["footprint", "activation_elems", fp.activation_elems],
        ["footprint", "concurrent_branch_factor",
         fp.concurrent_branch_factor],
    ]
    return _csv(["section", "key", "value"], rows)


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
    """Write ``text`` to the file ``out``, or to stdout."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_analyze(args) -> int:
    report = analysis.analyze(_load_graph(args.model))
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
    tally = census_graph(_load_graph(args.model))
    rows = [[e.layer_id, e.category, e.op_class, e.count,
             e.format_a.total_bits,
             e.shift_range if e.op_class == "shift" else (
                 e.format_b.total_bits if e.format_b else "")]
            for e in tally.entries]
    _write_out(_csv(["layer_id", "category", "op_class", "count", "bits_a",
                     "bits_b"], rows), args.out)
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle

    status = EXIT_OK
    if args.fp_adder:
        breakdown = oracle.fp_adder_breakdown(*args.fp_adder)
        for name, value in zip(oracle.FP_ADDER_STAGES, breakdown.components):
            print(f"{name:24s} {value:10.4f}")
        bound = 6 * breakdown.total_bits
        print(f"{'total':24s} {breakdown.total:10.4f}  (bound {bound})")
        if breakdown.total > bound:
            print("component sum exceeds the factor-6 bound", file=sys.stderr)
            status = EXIT_MISMATCH
    elif args.shifter:
        i, j = args.shifter
        built = oracle.barrel_mux_count(i, j)
        matches = oracle.barrel_matches_closed_form(i, j)
        print(f"{built.mux21} muxes -> "
              f"{fraction_decimal(built.bitadder_equivalent)} bitadders")
        if not matches:
            print("barrel construction disagrees with the closed form",
                  file=sys.stderr)
            status = EXIT_MISMATCH
    else:
        max_bits = MAX_BITS if args.max_bits is None else args.max_bits
        mismatches = oracle.verify_multiply_formula(max_bits)
        pairs = max_bits * max_bits
        print(f"{len(mismatches)} mismatches / {pairs} pairs")
        for i, j, built, predicted in mismatches[:20]:
            print(f"  {i}x{j}: built {built}, predicted {predicted}")
        if mismatches:
            status = EXIT_MISMATCH
    return status


def _build_zoo_model(args) -> Graph:
    from . import zoo

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
    _write_out(serialize_graph(_build_zoo_model(args)), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    results: List[Tuple[str, analysis.CostReport]] = []
    failures: List[Tuple[str, str]] = []
    for path in args.models:
        try:
            report = analysis.analyze(_load_graph(path))
            results.append((report.name or path, report))
        except OSError as exc:
            failures.append((path, exc.strerror or str(exc)))
        except AceV2Error as exc:
            failures.append((path, str(exc)))

    for path, message in failures:  # before a failed -o write can raise
        print(f"error: {path}: {message}", file=sys.stderr)
    rows = [[row.name, fraction_decimal(row.total_ace), _sig4(row.energy_mj),
             _sig4(row.arithmetic_intensity), int(row.pareto)]
            for row in analysis.compare(results)]
    _write_out(_csv(["name", "total_ace", "energy_mj", "arithmetic_intensity",
                     "pareto"], rows), args.out)
    return EXIT_INPUT if failures else EXIT_OK


def cmd_quantsim(args) -> int:
    from . import quantizers  # numpy: only this subcommand needs it

    trials = quantizers.norm_quantization_study(trials=args.trials,
                                                seed=args.seed)
    rows = [[idx, f"{t.quantnorm_mse:.6e}", f"{t.vanilla_mse:.6e}"]
            for idx, t in enumerate(trials)]
    _write_out(_csv(["trial", "quantnorm_mse", "vanilla_mse"], rows),
               args.out)
    wins = sum(t.quantnorm_mse <= t.vanilla_mse for t in trials)
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
    # One mode per call. --max-bits defaults to None, not MAX_BITS:
    # argparse checks the group by identity with the default, and
    # int("64") is the cached 64, so an explicit 64 would slip through.
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--max-bits", type=int,
                      help=f"sweep widths 1..N (default {MAX_BITS})")
    mode.add_argument("--fp-adder", type=int, nargs=2, metavar=("E", "M"))
    mode.add_argument("--shifter", type=int, nargs=2, metavar=("I", "J"))
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("zoo", help="built-in model graphs")
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True)
    pe = zoo_sub.add_parser("emit", help="write a model graph as JSON")
    pe.add_argument("model", choices=("pikelpn", "mobilenet_v1",
                                      "mobilenet_v2", "resnet50"))
    pe.add_argument("--scale", type=_pike_scale, default="1x",
                    help="pikelpn cost scale (default 1x)")
    pe.add_argument("--weight-bits", type=_bit_width, default=8)
    pe.add_argument("--act-bits", type=_bit_width, default=8)
    pe.add_argument("--activation", choices=ACTIVATION_KINDS, default="relu")
    pe.add_argument("--granularity", choices=GRANULARITIES,
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
    """Run one subcommand, mapping each error type to its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OutOfRangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AceV2Error as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
