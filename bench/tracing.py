"""Spans and counts recorded from the benchmark's side of each call into
acev2, and the per-layer metrics derived from them.

A span is (id, parent id, name, start ns, end ns, op index). Spans are
kept in memory and written out once, when the run ends, together with
each layer's self time (span time not covered by child spans). Stage
functions are looked up by name when called, so a stage a later change
removes or renames is reported as absent instead of failing the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

now = time.perf_counter_ns

# Per-layer metrics: timed stages (median ms per call) ...
STAGES = (
    "ir.parse_graph", "ir.validate", "ir.topological_order",
    "ir.infer_shapes", "ir.serialize_graph",
    "census.census_graph",
    "analysis.analyze", "analysis.ace_report", "analysis.energy_report",
    "analysis.data_footprint", "analysis.branch_factor",
    "analysis.arithmetic_intensity", "analysis.compare",
    "cost.unit_price",
    "cli.interpreter", "cli.import", "cli.numpy_import",
    "cli.main.analyze", "cli.main.census", "cli.main.compare",
    "cli.main.zoo_emit", "cli.main.oracle", "cli.main.quantsim",
    "zoo.build",
    "oracle.dadda_adder_count", "oracle.verify_multiply_formula",
    "oracle.fp_adder_breakdown", "oracle.barrel_mux_count",
    "quantizers.norm_quantization_study",
)
# ... counts (mean per op that records them) ...
COUNTS = (
    "ir.nodes", "ir.edges", "census.entries", "cost.price_calls",
    "cost.distinct_keys", "cost.extrapolated_entries", "zoo.nodes",
    "oracle.adder_units", "quantizers.trials",
)
# ... and derived values.
DERIVED = ("analysis.repeat_walk_ms", "cost.repeat_key_share",
           "trace.overhead_ratio")

# Work analyze repeats beyond one call each of these stages.
ANALYZE_PARTS = ("ir.infer_shapes", "census.census_graph",
                 "analysis.ace_report", "analysis.energy_report",
                 "analysis.data_footprint")

PRICING_FUNCTIONS = frozenset({"ace_mac", "ace_multiply", "ace_add",
                               "ace_shift", "energy_of_op"})


def per_layer_names() -> List[str]:
    return ([f"{s}_ms" for s in STAGES] + list(COUNTS) + list(DERIVED))


class Absent(Exception):
    """A stage function the benchmark looks for no longer exists."""


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.absent: set = set()
        self.errors: Dict[str, str] = {}
        self._stack: List[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def root(self, name: str, op: Optional[int] = None):
        """Open a top-level span (an op, a setup, a probe)."""
        self._op = op
        with self.span(name):
            yield
        self._op = None

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # reserve the id
        self._stack.append(sid)
        start = now()
        try:
            yield
        finally:
            end = now()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end, self._op)
            self.samples[name].append((end - start) / 1e6)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def stage(self, name: str, module, attr: str, *args, **kwargs):
        """Call ``module.attr`` under a span named ``name``; raise Absent
        if the function is gone."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.absent.add(name)
            raise Absent(name)
        return self.call(name, fn, *args, **kwargs)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    # -- output --------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Milliseconds of self time per layer (the part of a span not
        covered by its children); top-level spans count as 'bench'."""
        covered: Dict[int, int] = defaultdict(int)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        layers: Dict[str, float] = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            layer = name.split(".")[0] if parent is not None else "bench"
            layers[layer] += (end - start - covered[sid]) / 1e6
        return dict(sorted(layers.items()))

    def write(self, path: Path, extra: dict) -> None:
        t0 = self.spans[0][3] if self.spans else 0
        doc = dict(extra,
                   span_fields=["id", "parent", "name", "start_us", "end_us",
                                "op"],
                   spans=[[s[0], s[1], s[2], round((s[3] - t0) / 1e3, 1),
                           round((s[4] - t0) / 1e3, 1), s[5]]
                          for s in self.spans],
                   self_time_ms=self.self_times(),
                   absent=sorted(self.absent),
                   stage_errors=self.errors)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def count_pricing_calls(fn: Callable, *args) -> int:
    """Calls into the public pricing functions of acev2.cost made while
    ``fn(*args)`` runs, counted with a profile hook (no code changes)."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_name in PRICING_FUNCTIONS \
                    and code.co_filename.endswith("cost.py"):
                calls += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _repeat_walk(tr: Tracer) -> List[float]:
    """Per op: analyze minus one call each of the stages it is built on."""
    by_op: Dict[int, Dict[str, float]] = defaultdict(dict)
    for _, _, name, start, end, op in tr.spans:
        if op is not None and (name == "analysis.analyze"
                               or name in ANALYZE_PARTS):
            by_op[op][name] = (end - start) / 1e6
    return [d["analysis.analyze"] - sum(d[p] for p in ANALYZE_PARTS)
            for d in by_op.values()
            if "analysis.analyze" in d and all(p in d for p in ANALYZE_PARTS)]


def per_layer_metrics(tr: Tracer, probed: Tracer,
                      untraced_op_ms: List[float],
                      traced_op_ms: List[float]) -> Tuple[Dict[str, float],
                                                          set]:
    """Every per-layer metric, and the names whose values come from the
    probe because the workload never reached that stage. A stage with no
    samples at all (absent) reads 0."""
    out: Dict[str, float] = {}
    from_probe = set()
    for stage in STAGES:
        samples = tr.samples.get(stage)
        if not samples:
            samples = probed.samples.get(stage, [])
            from_probe.add(f"{stage}_ms")
        out[f"{stage}_ms"] = _median(samples)
    counts = {}
    for name in COUNTS:
        counts[name] = tr.counts.get(name)
        if not counts[name]:
            counts[name] = probed.counts.get(name, [])
            from_probe.add(name)
        out[name] = _mean(counts[name])

    repeat = _repeat_walk(tr)
    if not repeat:
        repeat = _repeat_walk(probed)
        from_probe.add("analysis.repeat_walk_ms")
    out["analysis.repeat_walk_ms"] = _median(repeat)

    entries = sum(counts["census.entries"])
    keys = sum(counts["cost.distinct_keys"])
    out["cost.repeat_key_share"] = 1 - keys / entries if entries else 0.0
    if "census.entries" in from_probe:
        from_probe.add("cost.repeat_key_share")
    out["trace.overhead_ratio"] = (
        _median(traced_op_ms) / _median(untraced_op_ms)
        if traced_op_ms and untraced_op_ms else 0.0)
    return out, from_probe
