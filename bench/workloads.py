"""The four workloads. Each one writes its inputs in setup, yields an
endless seeded sequence of ops, runs one op (timed) and checks it
(untimed), and can replay an op as a sequence of traced calls into the
public stage functions.

All load comes from this one process: one client, closed loop, no
worker threads. cli_mix runs its child processes one at a time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import check
import gen
from tracing import Absent, Tracer, count_pricing_calls

now = time.perf_counter_ns

SUBPROCESS_TIMEOUT_S = 120


class Modules:
    """acev2 modules, imported on first use."""

    def __getattr__(self, name: str):
        module = importlib.import_module(f"acev2.{name}")
        setattr(self, name, module)
        return module


class Context:
    def __init__(self, root: Path, work: Path, seed: int, python: str,
                 env: dict, expected: dict):
        self.root = root
        self.work = work
        self.seed = seed
        self.python = python
        self.env = env
        self.expected = expected        # zoo key -> entry of expected_zoo.json
        self.m = Modules()

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.seed}/{purpose}")

    def zoo_expectation(self, key: str) -> dict:
        return check.expectation_from_payload(self.expected[key]["report"])


def _safe_stage(tr: Tracer, name: str, module, attr: str, *args, **kwargs):
    """A stage call whose failure (absent, or an error on these inputs)
    is recorded and does not end the traced op."""
    try:
        return tr.stage(name, module, attr, *args, **kwargs)
    except Absent:
        return None
    except Exception as exc:  # noqa: BLE001 - recorded, the op goes on
        tr.errors[name] = repr(exc)
        return None


def price_distinct_keys(tally, cost) -> int:
    """Price each distinct (op class, formats, shift range, category) key
    once through the public ace_* and energy_of_op; return the key count."""
    groups: Dict[tuple, int] = {}
    for e in tally.entries:
        key = (e.op_class, e.format_a, e.format_b, e.shift_range, e.category)
        groups[key] = groups.get(key, 0) + e.count
    ace = {"mac": cost.ace_mac, "multiply": cost.ace_multiply,
           "add": cost.ace_add}
    for op, a, b, shift_range, _ in groups:
        if op == "shift":
            cost.ace_shift(a, shift_range)
        else:
            ace[op](a, b)
        cost.energy_of_op(op, a, b, shift_range=shift_range)
    return len(groups)


class Workload:
    name = ""
    in_process = True
    timing = "local"   # how repeats become one op time: run.at_reference_speed

    modules: Tuple[str, ...] = ()   # acev2 modules the workload imports

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.m = ctx.m
        self.setup_errors: List[str] = []
        self._price_calls: Dict[str, int] = {}

    def imports(self) -> None:
        for name in self.modules:
            getattr(self.m, name)

    def import_cost_s(self) -> float:
        """Import time of the workload's acev2 modules in a fresh
        interpreter, from `-X importtime` (interpreter start excluded)."""
        code = "; ".join(f"import acev2.{name}" for name in self.modules)
        proc = subprocess.run(
            [self.ctx.python, "-X", "importtime", "-c", code],
            env=self.ctx.env, capture_output=True, text=True, check=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        return sum(us for name, us, top in importtime(proc.stderr)
                   if top and name.startswith("acev2")) / 1e6

    def setup(self, d: Path, tr: Optional[Tracer]) -> None:
        raise NotImplementedError

    def plan(self) -> Iterator:
        """Endless seeded ops; sets ``op_sets``, the op mix one pass over
        the plan holds."""
        raise NotImplementedError

    def run(self, op) -> Tuple[int, str]:
        """Run one op; return (nanoseconds, outcome)."""
        raise NotImplementedError

    def nodes(self, op) -> int:
        return 0

    def traced(self, op, index: int, tr: Tracer) -> Tuple[float, str]:
        """Replay one op through traced calls; return (op ms, outcome)."""
        raise NotImplementedError

    def finish_trace(self, tr: Tracer) -> None:
        pass

    # -- shared graph-stage tracing ------------------------------------

    def graph_stages(self, g, report, tr: Tracer, key: str) -> None:
        """Call every analysis stage once on ``g`` and record counts."""
        m = self.m
        _safe_stage(tr, "ir.topological_order", m.ir, "topological_order", g)
        shapes = _safe_stage(tr, "ir.infer_shapes", m.ir, "infer_shapes", g)
        tally = _safe_stage(tr, "census.census_graph", m.census,
                            "census_graph", g, shapes)
        if tally is not None:
            _safe_stage(tr, "analysis.ace_report", m.analysis, "ace_report",
                        tally)
            _safe_stage(tr, "analysis.energy_report", m.analysis,
                        "energy_report", tally)
        _safe_stage(tr, "analysis.data_footprint", m.analysis,
                    "data_footprint", g, shapes)
        _safe_stage(tr, "analysis.branch_factor", m.analysis,
                    "branch_factor", g)
        if tally is not None:
            _safe_stage(tr, "analysis.arithmetic_intensity", m.analysis,
                        "arithmetic_intensity", g, tally, shapes)
        _safe_stage(tr, "ir.serialize_graph", m.ir, "serialize_graph", g)
        tr.count("ir.nodes", len(g.nodes))
        tr.count("ir.edges", sum(len(n.inputs) for n in g.nodes))
        if tally is not None:
            try:
                with tr.span("cost.unit_price"):
                    keys = price_distinct_keys(tally, m.cost)
                tr.count("census.entries", len(tally.entries))
                tr.count("cost.distinct_keys", keys)
            except (AttributeError, KeyError, TypeError) as exc:
                tr.errors["cost.unit_price"] = repr(exc)
        if report is not None:
            flagged = getattr(report, "extrapolated_energy_ops", None)
            if flagged is not None:
                tr.count("cost.extrapolated_entries", len(flagged))
        if key not in self._price_calls:
            try:
                self._price_calls[key] = count_pricing_calls(
                    m.analysis.analyze, g)
            except Exception as exc:  # noqa: BLE001 - recorded
                tr.errors["cost.price_calls"] = repr(exc)
                return
        tr.count("cost.price_calls", self._price_calls[key])

    def traced_load(self, path: Path, tr: Tracer):
        """Read, parse and validate a graph file as the CLI does."""
        with tr.span("cli.read"):
            text = path.read_text(encoding="utf-8")
        g = tr.stage("ir.parse_graph", self.m.ir, "parse_graph", text)
        diags = tr.stage("ir.validate", self.m.ir, "validate", g)
        if diags:
            raise ValueError("; ".join(str(d) for d in diags))
        return g

    def traced_analyze(self, argv: List[str], path: Path, fmt: str,
                       out: Optional[Path], tr: Tracer):
        """`acev2 analyze` as its stages: arguments, load, analyze,
        render, write. Falls back to one cli.main call when a stage is
        gone. Returns (graph, report, rendered text)."""
        cli = self.m.cli
        renderer = {"json": "_report_payload", "csv": "_report_csv",
                    "table": "_report_table"}[fmt]
        render = getattr(cli, renderer, None)
        if render is None or not hasattr(cli, "build_parser"):
            tr.absent.add(f"cli.{renderer}")
            return None, None, self.analyze_via_main(argv, out, tr)
        with tr.span("cli.parse_args"):
            cli.build_parser().parse_args(argv)
        try:
            g = self.traced_load(path, tr)
            report = tr.stage("analysis.analyze", self.m.analysis, "analyze", g)
        except Absent:
            return None, None, self.analyze_via_main(argv, out, tr)
        with tr.span("cli.render"):
            text = render(report)
            if fmt == "json":
                text = json.dumps(text, indent=2) + "\n"
        if out is not None:
            with tr.span("cli.write"):
                out.write_text(text, encoding="utf-8")
        return g, report, text

    def analyze_via_main(self, argv: List[str], out: Optional[Path],
                         tr: Tracer) -> str:
        text = self.cli_main("analyze", argv, tr)
        return out.read_text(encoding="utf-8") if out is not None else text

    def cli_main(self, sub: str, argv: List[str], tr: Tracer) -> str:
        """In-process cli.main on ``argv`` under a cli.main.<sub> span;
        returns what it printed to stdout."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                tr.call(f"cli.main.{sub}", self.m.cli.main, argv)
            except Exception as exc:  # noqa: BLE001 - known tracebacks
                tr.errors[f"cli.main.{sub}"] = repr(exc)
        return out.getvalue()


# ---------------------------------------------------------------------------


class GraphInput:
    def __init__(self, path: Path, expected: dict, n: int, nodes: int,
                 key: str):
        self.path = path
        self.expected = expected
        self.n = n
        self.nodes = nodes
        self.key = key


class GraphWorkload(Workload):
    """In process: one op is cli.main(["analyze", file, "--format", fmt,
    "-o", out])."""

    WARMUP_OPS = 3

    modules = ("cli", "ir", "census", "analysis", "cost", "zoo", "formats")

    def make_inputs(self, d: Path, tr: Optional[Tracer]) -> List[GraphInput]:
        raise NotImplementedError

    def setup(self, d: Path, tr: Optional[Tracer]) -> None:
        d.mkdir(parents=True)
        self.out = d / "report.out"
        self.reports: List[tuple] = []
        self.pool = self.make_inputs(d, tr)
        warm = sorted(range(len(self.pool)), key=lambda i: self.pool[i].nodes)
        for i, fmt in zip(warm, gen.FORMATS[:self.WARMUP_OPS]):
            self.run((i, fmt))

    def plan(self) -> Iterator:
        rng = self.ctx.rng("plan")
        self.op_sets = [gen.pool_ops(rng, len(self.pool))]
        return gen.cycles(rng, self.op_sets)

    def argv(self, item: GraphInput, fmt: str) -> List[str]:
        return ["analyze", str(item.path), "--format", fmt, "-o",
                str(self.out)]

    def run(self, op) -> Tuple[int, str]:
        item = self.pool[op[0]]
        fmt = op[1]
        argv = self.argv(item, fmt)
        start = now()
        try:
            code = self.m.cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - a failed op
            return now() - start, f"bad:{type(exc).__name__}: {exc}"
        elapsed = now() - start
        if code != 0:
            return elapsed, f"bad:exit {code}"
        text = self.out.read_text(encoding="utf-8")
        return elapsed, check.check_report(text, fmt, item.expected, item.n)

    def nodes(self, op) -> int:
        return self.pool[op[0]].nodes

    def traced(self, op, index: int, tr: Tracer) -> Tuple[float, str]:
        item = self.pool[op[0]]
        fmt = op[1]
        with tr.root("op", index):
            g, report, text = self.traced_analyze(
                self.argv(item, fmt), item.path, fmt, self.out, tr)
        op_ms = tr.samples["op"][-1]
        outcome = check.check_report(text, fmt, item.expected, item.n)
        if g is None:  # decomposition unavailable: load for the stages
            g = self.m.ir.parse_graph(item.path.read_text(encoding="utf-8"))
        with tr.root("stages", index):
            self.graph_stages(g, report, tr, item.key)
        if report is not None:
            self.reports.append((item.key, report))
        return op_ms, outcome

    def finish_trace(self, tr: Tracer) -> None:
        """analysis.compare over the traced reports, twenty at a time."""
        reports = self.reports
        for i in range(0, len(reports), 20):
            with tr.root("stages"):
                _safe_stage(tr, "analysis.compare", self.m.analysis,
                            "compare", reports[i:i + 20])


class ZooAnalyze(GraphWorkload):
    name = "zoo_analyze"

    def make_inputs(self, d: Path, tr: Optional[Tracer]) -> List[GraphInput]:
        m = self.m
        tr = tr or Tracer()
        texts: Dict[str, str] = {}
        pool = []
        for p, z in enumerate(gen.zoo_pool(self.ctx.rng("inputs"))):
            if z.key not in texts:
                with tr.root("setup"):
                    g = tr.call("zoo.build", gen.build_zoo, z.key, m.zoo,
                                m.formats.NumericFormat)
                    tr.count("zoo.nodes", len(g.nodes))
                    texts[z.key] = tr.call("ir.serialize_graph",
                                           m.ir.serialize_graph, g)
                if check.sha256(texts[z.key]) != self.ctx.expected[z.key]["sha256"]:
                    self.setup_errors.append(f"zoo {z.key} serializes differently")
            text = texts[z.key] if z.n == 1 else gen.with_batch(texts[z.key], z.n)
            path = d / f"in{p}_{z.key}_n{z.n}.json"
            path.write_text(text, encoding="utf-8")
            pool.append(GraphInput(path, self.ctx.zoo_expectation(z.key), z.n,
                                   self.ctx.expected[z.key]["nodes"],
                                   f"{z.key}/n{z.n}"))
        return pool


class WideFanout(GraphWorkload):
    name = "wide_fanout"

    def make_inputs(self, d: Path, tr: Optional[Tracer]) -> List[GraphInput]:
        pool = []
        for p, spec in enumerate(gen.fanout_pool(self.ctx.rng("inputs"))):
            path = d / f"{spec.name}.json"
            path.write_text(json.dumps(spec.document()), encoding="utf-8")
            pool.append(GraphInput(path, spec.expected(), 1, spec.nodes,
                                   spec.name))
        return pool


# ---------------------------------------------------------------------------


class CliMix(Workload):
    """One op is one `python -m acev2.cli` process."""

    name = "cli_mix"
    in_process = False

    modules = ("zoo", "ir", "formats")

    def setup(self, d: Path, tr: Optional[Tracer]) -> None:
        m = self.m
        tr = tr or Tracer()
        d.mkdir(parents=True)
        self.dir = d
        self.keys = gen.all_zoo_keys()
        self.file_nodes: Dict[str, int] = {}
        self.file_key: Dict[str, str] = {}
        docs = {}
        for key in self.keys:
            with tr.root("setup"):
                g = tr.call("zoo.build", gen.build_zoo, key, m.zoo,
                            m.formats.NumericFormat)
                tr.count("zoo.nodes", len(g.nodes))
                text = tr.call("ir.serialize_graph", m.ir.serialize_graph, g)
            if check.sha256(text) != self.ctx.expected[key]["sha256"]:
                self.setup_errors.append(f"zoo {key} serializes differently")
            name = f"{key}.json"
            (d / name).write_text(text, encoding="utf-8")
            self.file_nodes[name] = len(g.nodes)
            self.file_key[name] = key
            docs[key] = text
        rng = self.ctx.rng("inputs")
        for case in gen.MALFORMED_CASES:
            base = rng.choice(self.keys)
            doc = gen.malformed(json.loads(docs[base]), case, rng)
            name = f"malformed_{case}.json"
            (d / name).write_text(json.dumps(doc, indent=2), encoding="utf-8")
            self.file_nodes[name] = len(doc["nodes"])
        self.spawn(["--version"])

    def plan(self) -> Iterator:
        rng = self.ctx.rng("plan")
        self.op_sets = gen.cli_ops(rng, self.keys)
        return gen.cycles(rng, self.op_sets)

    def spawn(self, argv, trace: bool = False) -> subprocess.CompletedProcess:
        flags = ["-X", "importtime"] if trace else []
        return subprocess.run(
            [self.ctx.python, *flags, "-m", "acev2.cli", *argv],
            cwd=self.dir, env=self.ctx.env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S)

    def argv(self, op: gen.CliOp) -> List[str]:
        if op.sub == "zoo_emit":
            return list(op.argv) + ["-o", "emit.out"]
        return list(op.argv)

    def _outcome(self, op: gen.CliOp, proc) -> str:
        code, out = proc.returncode, proc.stdout
        err = "\n".join(l for l in proc.stderr.splitlines()
                        if not l.startswith("import time:"))
        if op.case:
            outcome = check.check_rejected(code, err, op.case,
                                           op.files[0] if op.sub == "compare"
                                           else None)
            if outcome == check.OK and op.sub == "compare":
                outcome = check.check_compare(
                    out, [self.ctx.zoo_expectation(self.file_key[f])
                          for f in op.files[1:]])
            return outcome
        if code != 0:
            return f"bad:{op.sub} exit {code}"
        if op.sub == "analyze":
            return check.check_report(
                out, op.fmt, self.ctx.zoo_expectation(self.file_key[op.files[0]]))
        if op.sub == "census":
            return check.check_census(
                out, self.ctx.zoo_expectation(self.file_key[op.files[0]]))
        if op.sub == "compare":
            return check.check_compare(
                out, [self.ctx.zoo_expectation(self.file_key[f])
                      for f in op.files])
        if op.sub == "zoo_emit":
            text = (self.dir / "emit.out").read_text(encoding="utf-8")
            ok = check.sha256(text) == self.ctx.expected[op.emit_key]["sha256"]
            return check.OK if ok else f"bad:zoo emit {op.emit_key}"
        if op.sub == "oracle":
            form, *nums = op.argv[1:]
            nums = [int(x) for x in nums]
            if form == "--shifter":
                return check.check_shifter(out, *nums)
            if form == "--fp-adder":
                return check.check_fp_adder(out, *nums)
            return check.check_max_bits(out, *nums)
        return check.check_quantsim(out, int(op.argv[2]))

    def run(self, op: gen.CliOp) -> Tuple[int, str]:
        start = now()
        try:
            proc = self.spawn(self.argv(op))
        except subprocess.TimeoutExpired:
            return now() - start, f"bad:{op.sub} timed out"
        elapsed = now() - start
        return elapsed, self._outcome(op, proc)

    def nodes(self, op: gen.CliOp) -> int:
        if op.sub == "zoo_emit":
            return self.ctx.expected[op.emit_key]["nodes"]
        return sum(self.file_nodes[f] for f in op.files)

    def traced(self, op: gen.CliOp, index: int, tr: Tracer) -> Tuple[float, str]:
        with tr.root("op", index):
            try:
                proc = tr.call(f"cli.process.{op.sub}", self.spawn,
                               self.argv(op), trace=True)
                outcome = self._outcome(op, proc)
            except subprocess.TimeoutExpired:
                outcome = f"bad:{op.sub} timed out"
        op_ms = tr.samples["op"][-1]
        with tr.root("stages", index):
            self.traced_stages(op, tr)
        return op_ms, outcome

    def traced_stages(self, op: gen.CliOp, tr: Tracer) -> None:
        """The in-process cli.main on the same arguments, then the stage
        functions that subcommand runs."""
        m, d = self.m, self.dir
        argv = [str(d / a) if a in op.files else a for a in self.argv(op)]
        if op.sub == "zoo_emit":
            argv[-1] = str(d / "emit_inprocess.out")
        self.cli_main(op.sub, argv, tr)
        if op.sub in ("analyze", "census", "compare"):
            reports = []
            for f in op.files:
                try:
                    g = self.traced_load(d / f, tr)
                except Absent:
                    continue
                except Exception as exc:  # noqa: BLE001 - malformed inputs
                    tr.errors["ir.load"] = repr(exc)
                    continue
                if op.sub == "census":
                    _safe_stage(tr, "census.census_graph", m.census,
                                "census_graph", g)
                    continue
                report = _safe_stage(tr, "analysis.analyze", m.analysis,
                                     "analyze", g)
                if op.sub == "analyze" and report is not None:
                    self.graph_stages(g, report, tr, f)
                elif report is not None:
                    reports.append((f, report))
            if op.sub == "compare" and reports:
                _safe_stage(tr, "analysis.compare", m.analysis, "compare",
                            reports)
        elif op.sub == "zoo_emit":
            g = tr.call("zoo.build", gen.build_zoo, op.emit_key, m.zoo,
                        m.formats.NumericFormat)
            tr.count("zoo.nodes", len(g.nodes))
            _safe_stage(tr, "ir.serialize_graph", m.ir, "serialize_graph", g)
        elif op.sub == "oracle":
            form, *nums = op.argv[1:]
            nums = [int(x) for x in nums]
            name = {"--shifter": "barrel_mux_count",
                    "--fp-adder": "fp_adder_breakdown",
                    "--max-bits": "verify_multiply_formula"}[form]
            _safe_stage(tr, f"oracle.{name}", m.oracle, name, *nums)
        elif op.sub == "quantsim":
            trials, seed = int(op.argv[2]), int(op.argv[4])
            _safe_stage(tr, "quantizers.norm_quantization_study",
                        m.quantizers, "norm_quantization_study", trials,
                        seed=seed)
            tr.count("quantizers.trials", trials)


# ---------------------------------------------------------------------------


class VerifySweep(Workload):
    """In process: gate-level constructions against the closed forms,
    and seeded normalization-quantization studies."""

    name = "verify_sweep"
    timing = "best"    # sub-millisecond ops

    modules = ("oracle", "quantizers", "cost", "formats")

    def setup(self, d: Path, tr: Optional[Tracer]) -> None:
        """Nothing to write; warm up each kind of call."""
        seed = self.ctx.rng("inputs").randrange(2 ** 31)
        for op in (("dadda", 64, 64), ("barrel", 64, 64),
                   ("fp_adder", 8, 23), ("quant", 25, seed)):
            self.run(op)

    def plan(self) -> Iterator:
        rng = self.ctx.rng("plan")
        self.op_sets = [gen.verify_ops(rng)]
        return gen.cycles(rng, self.op_sets)

    def _call(self, op):
        o = self.m.oracle
        kind, a, b = op
        if kind == "dadda":
            return o.dadda_adder_count(a, b)
        if kind == "barrel":
            return o.barrel_matches_closed_form(a, b)
        if kind == "fp_adder":
            return o.fp_adder_breakdown(a, b).total
        return self.m.quantizers.norm_quantization_study(trials=a, seed=b)

    def run(self, op) -> Tuple[int, str]:
        start = now()
        try:
            result = self._call(op)
        except Exception as exc:  # noqa: BLE001 - a failed op
            return now() - start, f"bad:{op[0]} {type(exc).__name__}"
        elapsed = now() - start
        return elapsed, self._check(op, result)

    def _check(self, op, result) -> str:
        kind, a, b = op
        if kind == "dadda":
            ok = result.adder_units == a * b - max(a, b)
        elif kind == "barrel":
            mux = self.m.oracle.barrel_mux_count(a, b).mux21
            ok = result is True and mux == a * gen.clog2(b)
        elif kind == "fp_adder":
            ok = result <= 6 * (a + b + 1)
        else:
            ok = (len(result) == a
                  and all(math.isfinite(t.quantnorm_mse) and t.quantnorm_mse >= 0
                          and math.isfinite(t.vanilla_mse) and t.vanilla_mse >= 0
                          for t in result)
                  and self._identity_law(b))
        return check.OK if ok else f"bad:{kind} {a} {b}"

    def _identity_law(self, seed: int) -> bool:
        """With an identity quantizer the fused normalization equals the
        floating-point layer within 1e-6."""
        import numpy as np
        q = self.m.quantizers
        rng = np.random.default_rng(seed)
        channels = 16
        p = q.BatchNormParams(mu=rng.normal(0, 1, channels),
                              gamma=rng.normal(1, 0.2, channels),
                              sigma=rng.lognormal(0, 0.5, channels),
                              beta=rng.normal(0, 1, channels))
        x = rng.normal(0, 1, (64, channels))
        return float(np.max(np.abs(q.quantnorm(x, p) - q.fp_batchnorm(x, p)))) < 1e-6

    def traced(self, op, index: int, tr: Tracer) -> Tuple[float, str]:
        kind, a, b = op
        with tr.root("op", index):
            try:
                result = self._traced_call(op, tr)
            except Absent:
                result = self._call(op)
        op_ms = tr.samples["op"][-1]
        if kind == "dadda":
            tr.count("oracle.adder_units", result.adder_units)
        elif kind == "quant":
            tr.count("quantizers.trials", a)
        return op_ms, self._check(op, result)

    def _traced_call(self, op, tr: Tracer):
        m = self.m
        kind, a, b = op
        if kind == "dadda":
            return tr.stage("oracle.dadda_adder_count", m.oracle,
                            "dadda_adder_count", a, b)
        if kind == "barrel":
            built = tr.stage("oracle.barrel_mux_count", m.oracle,
                             "barrel_mux_count", a, b)
            closed = tr.call("cost.ace_shift", m.cost.ace_shift,
                             m.formats.NumericFormat.fixed(a), b)
            return built.bitadder_equivalent == closed.bitadders
        if kind == "fp_adder":
            return tr.stage("oracle.fp_adder_breakdown", m.oracle,
                            "fp_adder_breakdown", a, b).total
        return tr.stage("quantizers.norm_quantization_study", m.quantizers,
                        "norm_quantization_study", trials=a, seed=b)


WORKLOADS = {w.name: w for w in (ZooAnalyze, WideFanout, CliMix, VerifySweep)}


# ---------------------------------------------------------------------------
# Probes: stages a workload never reaches are measured on small
# reference inputs, so every traced run reports every layer.


def probe(ctx: Context, missing: set) -> Tracer:
    """Fill the stages in ``missing`` from reference calls; the returned
    tracer holds only probe samples."""
    tr = Tracer()
    m = ctx.m
    rng = ctx.rng("probe")
    keys = rng.sample(gen.all_zoo_keys(), 3)
    d = ctx.work / "probe"
    d.mkdir(parents=True, exist_ok=True)
    helper = Workload(ctx)
    graph_stages = {"ir.", "census.", "analysis.", "cost."}
    for i, key in enumerate(keys):
        with tr.root("probe", i):
            g = tr.call("zoo.build", gen.build_zoo, key, m.zoo,
                        m.formats.NumericFormat)
            tr.count("zoo.nodes", len(g.nodes))
            path = d / f"{key}.json"
            path.write_text(m.ir.serialize_graph(g), encoding="utf-8")
            if any(s.startswith(tuple(graph_stages)) for s in missing):
                g = helper.traced_load(path, tr)
                report = _safe_stage(tr, "analysis.analyze", m.analysis,
                                     "analyze", g)
                helper.graph_stages(g, report, tr, key)
                _safe_stage(tr, "analysis.compare", m.analysis, "compare",
                            [(key, report)])
    files = [str(d / f"{k}.json") for k in keys]
    argvs = {
        "analyze": ["analyze", files[0], "--format", "json", "-o",
                    str(d / "out")],
        "census": ["census", files[0], "-o", str(d / "out")],
        "compare": ["compare", *files, "-o", str(d / "out")],
        "zoo_emit": gen.emit_argv(keys[0]) + ["-o", str(d / "out")],
        "oracle": ["oracle", "--shifter", "8", "8"],
        "quantsim": ["quantsim", "--trials", "25", "--seed", "1"],
    }
    for sub, argv in argvs.items():
        if f"cli.main.{sub}" in missing:
            for i in range(3):
                with tr.root("probe", i):
                    helper.cli_main(sub, argv, tr)
    if any(s.startswith("oracle.") for s in missing):
        for i in range(16):
            a, b = rng.randint(1, 64), rng.randint(2, 64)
            with tr.root("probe", i):
                r = tr.call("oracle.dadda_adder_count",
                            m.oracle.dadda_adder_count, a, b)
                tr.count("oracle.adder_units", r.adder_units)
                tr.call("oracle.barrel_mux_count", m.oracle.barrel_mux_count,
                        a, b)
                tr.call("oracle.fp_adder_breakdown",
                        m.oracle.fp_adder_breakdown, rng.randint(2, 15),
                        rng.randint(2, 52))
        for i, bits in enumerate((8, 12, 16)):
            with tr.root("probe", i):
                tr.call("oracle.verify_multiply_formula",
                        m.oracle.verify_multiply_formula, bits)
    if "quantizers.norm_quantization_study" in missing:
        for i in range(3):
            with tr.root("probe", i):
                tr.call("quantizers.norm_quantization_study",
                        m.quantizers.norm_quantization_study, trials=25,
                        seed=rng.randrange(2 ** 31))
                tr.count("quantizers.trials", 25)
    return tr


def importtime(stderr: str) -> List[Tuple[str, int, bool]]:
    """(module, cumulative microseconds, imported at top level) for each
    line of `-X importtime` output."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        if cum.strip().isdigit():
            rows.append((name.strip(), int(cum),
                         len(name) - len(name.lstrip()) == 1))
    return rows


def startup_probe(ctx: Context, tr: Tracer, reps: int = 5) -> None:
    """Interpreter start (`python -c pass`) and the import cost of
    acev2.cli and of numpy, from `-X importtime`."""
    for i in range(reps):
        with tr.root("startup", i):
            tr.call("cli.interpreter", subprocess.run,
                    [ctx.python, "-c", "pass"], env=ctx.env, check=True,
                    timeout=SUBPROCESS_TIMEOUT_S)
    for i in range(reps):
        proc = subprocess.run(
            [ctx.python, "-X", "importtime", "-c",
             "import acev2.cli; import numpy"],
            env=ctx.env, capture_output=True, text=True, check=True,
            timeout=SUBPROCESS_TIMEOUT_S)
        cumulative = {}
        for name, us, _ in importtime(proc.stderr):
            cumulative.setdefault(name, us / 1e3)
        tr.samples["cli.import"].append(cumulative.get("acev2.cli", 0.0))
        tr.samples["cli.numpy_import"].append(cumulative.get("numpy", 0.0))
