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
cost-model gap such as an op with no energy anchor, or a count the
output cannot hold (past the float range, or too long to print); 3
oracle mismatch; 64 usage error, out-of-range oracle and quantsim
arguments included. Subcommands raise, and ``main`` alone turns an
error into its stderr line and exit code. ``_report_payload`` is the
report's one field list: the JSON body, of which the CSV and the table
are views. Output is deterministic for identical inputs; --stamp adds a
comment line with the tool version outside any data body. The argument
parser is built once per process.

``main`` pauses the cyclic garbage collector while a subcommand runs and
restores it on every exit. The graph path builds no reference cycles, so
reference counting frees everything it allocates, and a collection would
only scan a large graph's live objects; a test pins both properties. The
library functions leave the collector to their callers.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from . import __version__, analysis, cost
from .census import census_graph
from .errors import AceV2Error, AnalysisError, OutOfRangeError, ParseError
from .formats import MAX_BITS, NumericFormat
from .ir import (ACTIVATION_KINDS, GRANULARITIES, Graph, json_value,
                 parse_graph, serialize_graph)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ANALYSIS = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """Each (sub)parser reports its usage errors, leftovers included."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def fraction_decimal(value: Fraction) -> str:
    """Exact decimal rendering, in the fewest digits, of a rational whose
    denominator divides a power of ten (all bit-adder totals do). The
    least such power is below the denominator's bit length."""
    num, den = abs(value.numerator), value.denominator
    for scale in range(den.bit_length()):
        if 10 ** scale % den == 0:
            break
    else:
        raise ValueError(f"{value} has no finite decimal form")
    sign = "-" if value < 0 else ""
    digits = str(num * 10 ** scale // den).rjust(scale + 1, "0")
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}" if scale else (
        sign + digits)


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


def _cell(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def _load_graph(path: str) -> Graph:
    """The graph at ``path``. An unreadable file raises OSError; text that
    is not UTF-8 or not a valid graph, ParseError: ``parse_graph`` checks
    every node rule, and the walk that ``analyze`` and ``census`` start
    with reports a cycle before any other fault it finds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    return parse_graph(text)


def _printed(count: int, where: str, what: str) -> str:
    """``count`` in decimal, or an AnalysisError past the digit limit."""
    try:
        return str(count)
    except ValueError:
        raise AnalysisError(where, f"{what} has too many digits to "
                            "print") from None


def _report_payload(report: analysis.CostReport) -> dict:
    """The report's fields, each value computed once: the JSON body, and
    what the CSV and the table show. An unprintable footprint raises."""
    footprint = report.footprint._asdict()
    where = analysis.graph_label(report.name)
    for field, count in footprint.items():
        _printed(count, where, field)
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
        "footprint": footprint,
    }


def _csv(header: List[str], rows: Iterable[list]) -> str:
    """``header`` and ``rows`` as CSV text, each line ending in ``\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report_csv(report: analysis.CostReport) -> str:
    payload = _report_payload(report)
    rows = [["ace_by_category", key, value]
            for key, value in payload["ace_by_category"].items()]
    rows += [["totals", key, _cell(payload[key])] for key in (
        "total_ace", "mac_share", "elementwise_share", "energy_mj",
        "arithmetic_intensity") if payload[key] is not None]
    rows += [["footprint", key, value]
             for key, value in payload["footprint"].items()]
    return _csv(["section", "key", "value"], rows)


_TABLE_ROWS = (  # (label, payload key), footprint keys included
    ("Model", "name"),
    ("Total ACE (bitadders)", "total_ace"),
    ("MAC share", "mac_share"),
    ("Elementwise share", "elementwise_share"),
    ("Energy (mJ)", "energy_mj"),
    ("Arithmetic intensity (ops/elem)", "arithmetic_intensity"),
    ("Weights (elems)", "weight_elems"),
    ("Activations (elems)", "activation_elems"),
    ("Branch factor", "concurrent_branch_factor"))


def _report_table(report: analysis.CostReport) -> str:
    payload = _report_payload(report)
    values = dict(payload, **payload["footprint"])
    for key in ("mac_share", "elementwise_share"):
        share = values[key]
        values[key] = "-" if share is None else f"{100 * share:.2f}%"
    rows = [(label, _cell(values[key])) for label, key in _TABLE_ROWS]
    width = max(len(k) for k, _ in rows)
    lines = [f"| {k.ljust(width)} | {v} |" for k, v in rows]
    header = f"| {'Metric'.ljust(width)} | Value |"
    rule = f"|{'-' * (width + 2)}|-------|"
    return "\n".join([header, rule] + lines) + "\n"


# analyze --format's choices, in usage order, and their renderers
_FORMATS = {
    "json": lambda report: json_value(_report_payload(report)) + "\n",
    "csv": _report_csv,
    "table": _report_table,
}


def _write_out(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the file ``out``, or to stdout."""
    if not out:
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_analyze(args) -> int:
    text = _FORMATS[args.format](analysis.analyze(_load_graph(args.model)))
    if args.stamp:
        text = f"# acev2 {__version__}\n" + text
    _write_out(text, args.out)
    return EXIT_OK


def cmd_census(args) -> int:
    tally = census_graph(_load_graph(args.model))
    rows = [[e.layer_id, e.category, e.op_class,
             _printed(e.count, e.layer_id, f"{e.op_class} count"),
             e.format_a.total_bits,
             e.shift_range if cost.op_row(e.op_class).ranged else (
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
        factor = cost.FLOAT_ADD_FACTOR
        bound = factor * breakdown.total_bits
        print(f"{'total':24s} {breakdown.total:10.4f}  (bound {bound})")
        if breakdown.total > bound:
            print(f"component sum exceeds the factor-{factor} bound",
                  file=sys.stderr)
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


def _fixed_or_binary(bits: int) -> NumericFormat:
    return NumericFormat.binary() if bits == 1 else NumericFormat.fixed(bits)


# zoo emit's model flags: flag -> add_argument keywords
_ZOO_FLAGS = {
    "--scale": dict(type=_pike_scale, default="1x",
                    help="cost scale (default 1x)"),
    "--weight-bits": dict(type=_bit_width, default=8),
    "--act-bits": dict(type=_bit_width, default=8),
    "--activation": dict(choices=ACTIVATION_KINDS, default="relu"),
    "--granularity": dict(choices=GRANULARITIES, default="channelwise"),
    "--branches": dict(type=int, choices=(2, 3, 4), default=2),
}

# zoo emit's models, in usage order: (the flags the model reads,
# (zoo module, arguments) -> graph). A flag it does not read is a usage
# error.
_ZOO_MODELS = {
    "pikelpn": (("--scale",),
                lambda zoo, args: zoo.build_pikelpn(args.scale)),
    "mobilenet_v1": (("--weight-bits", "--act-bits"),
                     lambda zoo, args: zoo.build_mobilenet_v1(
                         weight_fmt=NumericFormat.fixed(args.weight_bits),
                         act_fmt=NumericFormat.fixed(args.act_bits))),
    "mobilenet_v2": (("--weight-bits", "--act-bits", "--activation",
                      "--granularity"),
                     lambda zoo, args: zoo.build_mobilenet_v2(
                         args.weight_bits, args.act_bits, args.activation,
                         args.granularity)),
    "resnet50": (("--branches", "--weight-bits", "--act-bits"),
                 lambda zoo, args: zoo.build_resnet50_branches(
                     args.branches, _fixed_or_binary(args.weight_bits),
                     _fixed_or_binary(args.act_bits))),
}


def cmd_zoo_emit(args) -> int:
    from . import zoo

    _, build = _ZOO_MODELS[args.model]
    _write_out(serialize_graph(build(zoo, args)), args.out)
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
    rows = [[row.name, fraction_decimal(row.total_ace), _cell(row.energy_mj),
             _cell(row.arithmetic_intensity), int(row.pareto)]
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
    p.add_argument("--format", choices=_FORMATS, default="table")
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
    models = pe.add_subparsers(dest="model", required=True)
    for model, (flags, _) in _ZOO_MODELS.items():
        pm = models.add_parser(model)
        for flag in flags:
            pm.add_argument(flag, **_ZOO_FLAGS[flag])
        pm.add_argument("--out", "-o")
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
    """Run one subcommand, mapping each error type to its exit code. The
    cyclic garbage collector, if enabled, is paused while it runs (see
    the module docstring)."""
    args = build_parser().parse_args(argv)
    paused = gc.isenabled()
    if paused:
        gc.disable()
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
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
