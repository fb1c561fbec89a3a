"""acev2 benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload zoo_analyze --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program under test is imported
from ./src. Workloads: zoo_analyze, wide_fanout, cli_mix, verify_sweep
(see workloads.py and BENCHMARK.json). Load is one client in a closed
loop: the next op starts when the previous one has finished.

--trace 0 measures the end-to-end metrics. Each run draws a fixed,
seeded set of distinct ops and passes over it again and again until
time is up, timing a fixed reference probe every 0.1 s in between. An
op's time is the median of its repeats, each scaled to reference
machine speed by the probes around it, or for sub-millisecond ops the
best repeat at the speed of the run's fastest short probes (see
``at_reference_speed``); latency quantiles and throughput are taken
over the planned op mix. Set-up runs seven times, spread over the run,
each scaled by the probes around it, and the median counts.

--trace 1 runs the untraced loop for part of the time, replays exactly
the same ops through traced calls into the public stage functions, and
reports the per-layer metrics. Stages the workload never reaches are
measured by a small probe on reference inputs.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}. "attempted" and "failed" count the distinct ops
of the seeded plan (see ``mix_counts``); executed ops are counted in the
run record. A run record (and, when traced, the spans) is
written under bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Dict, List

START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected_zoo.json"

SETUP_REPS = 7              # spread evenly over the run; the median counts
REFERENCE_LOOP = 20_000     # integer-loop part of the machine-speed probe
PROBE_EVERY_S = 0.1
LOCAL_PROBES = 3            # probes on each side of an op that time its speed
# The probe's time in the fast phases of the shared 2-CPU VM the benchmark
# was built on. Times are reported at the machine speed where the probe
# takes this long (see ``at_reference_speed``).
REFERENCE_PROBE_MS = 2.7
# A short probe does 1/SHORT_PROBE_SHARE of the probe's work; each probe
# is followed by SHORT_PROBES of them, for sub-millisecond ops.
SHORT_PROBE_SHARE = 25
SHORT_PROBES = 10
REFERENCE_SHORT_PROBE_MS = 0.12
TRACE_UNTRACED_SHARE = 0.3   # of --seconds; the traced replay follows

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def quartiles(xs):
    xs = sorted(xs)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def p90(xs):
    """Nearest-rank 90th percentile."""
    xs = sorted(xs)
    return xs[max(0, -(-9 * len(xs) // 10) - 1)]


def summary(values, unit, value=None):
    q1, q2, q3 = quartiles(values)
    return {"value": q2 if value is None else value, "unit": unit,
            "median": q2, "q1": q1, "q3": q3, "samples": len(values)}


def git_commit(root: Path):
    """HEAD of the checkout, read from .git; None outside a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def reference_loop_ms(share: int = 1) -> float:
    """Time of fixed pure-Python work (integer loop, rational sums, dict
    and string churn), which no change to acev2 can affect: a probe of
    how fast the machine runs right now. ``share`` divides the work."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP // share):
        total += i
    rational = sum((Fraction(i, 5) for i in range(1_000 // share)),
                   Fraction(0))
    table = {str(i): i for i in range(2_000 // share)}
    ordered = sorted(table, key=table.__getitem__)
    if total < 0 or rational < 0 or not ordered:
        raise AssertionError("unreachable")
    return (time.perf_counter() - start) * 1e3


class Probes:
    """Reference-loop times and when they were taken, in seconds since
    ``start``."""

    def __init__(self, start: float):
        self.start = start
        self.at: List[float] = []
        self.ms: List[float] = []
        self.short_ms: List[float] = []   # best of each take's short probes

    def take(self) -> None:
        ms = reference_loop_ms()
        self.at.append(time.perf_counter() - self.start)
        self.ms.append(ms)
        self.short_ms.append(min(reference_loop_ms(SHORT_PROBE_SHARE)
                                 for _ in range(SHORT_PROBES)))

    def scale(self, t: float) -> float:
        """Factor that turns a time taken at ``t`` into a time at
        reference speed: REFERENCE_PROBE_MS over the median of the
        LOCAL_PROBES probes on each side of ``t``."""
        i = bisect.bisect_right(self.at, t)
        near = self.ms[max(0, i - LOCAL_PROBES):i + LOCAL_PROBES]
        return REFERENCE_PROBE_MS / statistics.median(near)


def measure(w, plan, seconds, probes, resetup=None):
    """Closed loop for ``seconds``. Returns (ops, latencies ms, start
    times s, outcomes). ``resetup`` is called at evenly spaced points
    between ops; the reference loop runs every PROBE_EVERY_S."""
    marks = [seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)] \
        if resetup else []
    ops, lat, starts, outcomes = [], array("d"), array("d"), []
    start = last_probe = time.perf_counter()
    probes.take()
    while time.perf_counter() - start < seconds:
        if marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            resetup()
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.take()
            last_probe = time.perf_counter()
        op = next(plan)
        starts.append(time.perf_counter() - probes.start)
        ns, outcome = w.run(op)
        ops.append(op)
        lat.append(ns / 1e6)
        outcomes.append(outcome)
    probes.take()
    for _ in marks:
        resetup()
    return ops, lat, starts, outcomes


def at_reference_speed(timing, ops, lat, starts, probes):
    """Each distinct op's time at reference speed.

    The shared 2-CPU VM this benchmark was built on runs 1.5-2x slower in
    phases of a second to over a minute, because of load outside it, and
    stalls for a few milliseconds at a time. Over ten 25-s runs the
    median op time of a run spread by 10-30% (interquartile range over
    median). The workload's ``timing`` says how its ops are corrected:

    "local": ops of milliseconds or longer cannot slip between the
    stalls. A repeat that ran in a slow phase met slow probes around
    it, so each repeat is scaled by its local ``Probes.scale`` and the
    op's time is the median of its scaled repeats. Over six seeds of
    wide_fanout (0.1-0.8 s ops, ~15 repeats each) this gave a p50 spread
    of 4%, against 14% for the best repeat scaled by the run's fastest
    probe.

    "best": sub-millisecond ops mostly run between the stalls, and so
    do the fastest short probes (of similar length) of the run: an op's
    time is its best repeat scaled by REFERENCE_SHORT_PROBE_MS over the
    1st percentile of the run's short probes (a percentile, not the
    minimum, so that one freak probe cannot move the run). On the same
    ten runs of verify_sweep this gave a p50 spread of 2%, and "local"
    8%."""
    if timing == "best":
        scale = REFERENCE_SHORT_PROBE_MS / statistics.quantiles(
            probes.short_ms, n=100)[0]
        op_ms: Dict[object, float] = {}
        for op, ms in zip(ops, lat):
            if ms < op_ms.get(op, float("inf")):
                op_ms[op] = ms
        return {op: ms * scale for op, ms in op_ms.items()}
    scaled: Dict[object, List[float]] = {}
    for op, ms, t in zip(ops, lat, starts):
        scaled.setdefault(op, []).append(ms * probes.scale(t))
    return {op: statistics.median(xs) for op, xs in scaled.items()}


def mix_counts(op_sets, ops, outcomes):
    """(attempted, failed) over the planned op mix: each op of one pass
    through the plan that ran counts once, and fails if any of its
    repeats failed. Unlike counts of executed ops, these depend only on
    the seed, not on how many repeats fitted into the run."""
    failing = {op for op, o in zip(ops, outcomes) if o != "ok"}
    ran = set(ops)
    mix = Counter(op for ops_ in op_sets for op in ops_ if op in ran)
    return (sum(mix.values()),
            sum(n for op, n in mix.items() if op in failing))


def planned_mix(op_sets, op_ms, keep=lambda op: True):
    """Op times over the op mix of one pass through the plan, one
    entry per planned op. Weighting by the plan, not by how often an op
    ran before time was up, keeps quantiles from jumping between
    neighbouring ops."""
    mix = Counter(op for ops in op_sets for op in ops)
    return sorted(t for op, n in mix.items() if op in op_ms and keep(op)
                  for t in [op_ms[op]] * n)


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "acev2" / "__init__.py").is_file():
        print(f"error: no acev2 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 64
    expected = json.loads(EXPECTED.read_text())["configs"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    work = OUT / f"work-{os.getpid()}"
    ctx = workloads.Context(ROOT, work, args.seed, sys.executable, env,
                            expected)
    w = workloads.WORKLOADS[args.workload](ctx)
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, w, ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, w, ctx) -> int:
    import tracing
    import workloads

    w.imports()
    if not str(Path(ctx.m.ir.__file__).resolve()).startswith(str(SRC)):
        print("error: acev2 was not imported from ./src", file=sys.stderr)
        return 2

    tr = tracing.Tracer() if args.trace else None
    probes = Probes(time.perf_counter())
    setup_s, setup_scaled_s = [], []

    def setup():
        """One set-up, timed as is and at reference speed (scaled by
        probes taken just before and after it)."""
        rep = len(setup_s)
        for _ in range(LOCAL_PROBES):
            probes.take()
        t = time.perf_counter()
        w.setup(ctx.work / f"setup{rep}", tr)
        elapsed = time.perf_counter() - t
        shutil.rmtree(ctx.work / f"setup{rep - 1}", ignore_errors=True)
        setup_s.append(elapsed + w.import_cost_s())
        mid = (t + time.perf_counter()) / 2 - probes.start
        for _ in range(LOCAL_PROBES):
            probes.take()
        setup_scaled_s.append(setup_s[-1] * probes.scale(mid))

    setup()
    plan = w.plan()
    if args.trace:
        ops, lat, starts, outcomes = measure(
            w, plan, args.seconds * TRACE_UNTRACED_SHARE, probes)
    else:
        ops, lat, starts, outcomes = measure(
            w, plan, args.seconds, probes, setup)

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "nproc": os.cpu_count(),
        "platform": platform.platform(), "commit": git_commit(ROOT),
        "ops": len(ops), "nodes": sum(w.nodes(op) for op in ops),
        "setup_errors": w.setup_errors,
    }
    failures = Counter(o for o in outcomes if o != "ok")
    executed, executed_failed = len(ops), sum(failures.values())
    attempted, failed = mix_counts(w.op_sets, ops, outcomes)
    unexpected = [o for o in failures if o.startswith("bad:")]
    correct = not unexpected and not w.setup_errors

    if args.trace:
        traced_ms, traced_outcomes = [], []
        for i, op in enumerate(ops):
            ms, outcome = w.traced(op, i, tr)
            traced_ms.append(ms)
            traced_outcomes.append(outcome)
        w.finish_trace(tr)
        if isinstance(w, workloads.GraphWorkload):
            tr.samples["cli.main.analyze"].extend(lat)
        same = traced_outcomes == outcomes
        correct = correct and same
        missing = {s for s in tracing.STAGES if not tr.samples.get(s)}
        missing -= {"cli.interpreter", "cli.import", "cli.numpy_import"}
        probed = workloads.probe(ctx, missing)
        workloads.startup_probe(ctx, tr)
        metrics, from_probe = tracing.per_layer_metrics(tr, probed, lat,
                                                        traced_ms)
        units = {n: ("ms" if n.endswith("_ms") else "count")
                 for n in tracing.per_layer_names()}
        units["cost.repeat_key_share"] = "ratio"
        units["trace.overhead_ratio"] = "ratio"
        record.update(
            traced_same_ops=same,
            per_layer={n: {"value": v, "unit": units[n],
                           "source": "probe" if n in from_probe
                           else "workload"}
                       for n, v in metrics.items()},
            absent=sorted(tr.absent | probed.absent))
        tr.write(OUT / f"trace-{w.name}-seed{args.seed}.json",
                 {"workload": w.name, "seed": args.seed,
                  "probe_spans": len(probed.spans),
                  "probe_self_time_ms": probed.self_times()})
        printed = {n: {"value": v, "unit": units[n]}
                   for n, v in metrics.items()}
    else:
        op_ms = at_reference_speed(w.timing, ops, lat, starts, probes)
        mix = planned_mix(w.op_sets, op_ms)
        full = {
            "setup_s": summary(setup_scaled_s, "s"),
            "latency_p50_ms": summary(mix, "ms"),
            "latency_p90_ms": summary(mix, "ms", p90(mix)),
            "throughput_ops_s": summary([len(mix) / (sum(mix) / 1e3)], "1/s"),
            "peak_rss_mb": summary([peak_rss_mb(w.in_process)], "MB"),
            "success_rate": summary([1 - failed / attempted], "ratio"),
        }
        record["metrics"] = full
        record["reference_probe_ms"] = summary(probes.ms, "ms")
        record["setup_unscaled_s"] = summary(setup_s, "s")
        record["extra_metrics"] = extra_metrics(w, ops, lat, op_ms,
                                                executed_failed, executed)
        printed = {n: {"value": full[n]["value"], "unit": u}
                   for n, u in END_TO_END_UNITS.items()}

    record.update(correct=correct, attempted=attempted, failed=failed,
                  executed=executed, executed_failed=executed_failed,
                  failures=dict(failures),
                  wall_s=time.perf_counter() - START)
    (OUT / f"record-{w.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")
    for outcome, n in failures.items():
        print(f"{n:6d} x {outcome}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": printed}))
    return 0


def extra_metrics(w, ops, lat, op_ms, failed, attempted) -> dict:
    """Metrics that apply to only some workloads (at reference speed),
    and plain latencies over every op as measured; kept in the run
    record."""
    extra = {"error_rate": summary([failed / attempted], "ratio"),
             "plain_latency_ms": summary(lat, "ms"),
             "plain_latency_p90_ms": summary(lat, "ms", p90(lat)),
             "plain_throughput_ops_s": summary(
                 [attempted / (sum(lat) / 1e3)], "1/s"),
             "distinct_ops": len(op_ms)}
    nodes = sum(w.nodes(op) for op in ops)
    if nodes:
        extra["nodes_per_s"] = summary(
            [nodes / (sum(op_ms[op] for op in ops) / 1e3)], "1/s")
    if w.name == "cli_mix":
        for sub in sorted({op.sub for op in op_ms}):
            times = planned_mix(w.op_sets, op_ms,
                                lambda op: op.sub == sub and not op.case)
            extra[f"cli_{sub}_ms"] = summary(times, "ms")
    return extra


if __name__ == "__main__":
    sys.exit(main())
