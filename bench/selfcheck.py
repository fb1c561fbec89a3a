"""Checks on the benchmark itself, run against the program in ./src:

    python3 bench/selfcheck.py

  * generators are deterministic per seed (and differ across seeds);
  * the expected-report file agrees with the operating points that
    tests/test_acceptance.py pins;
  * the fan-out closed forms agree with `analyze`;
  * the census recomputation and `zoo emit` digests agree with the
    expected file;
  * the batch-linearity check flags the Dense batch > 1 defect (and
    accepts a correctly scaled report), and malformed documents are
    classified as the expected file says;
  * a traced run processes the same ops, with the same outcomes, as its
    untraced part.

Exits 1 if any check fails.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import check  # noqa: E402
import gen  # noqa: E402


def _share(report: dict, category: str) -> float:
    return float(Fraction(report["ace_by_category"].get(category, "0"))
                 / Fraction(report["total_ace"]))


def _near(x: float, want: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return abs(x - want) <= max(rel * abs(want), abs_)


def check_pins(configs: dict) -> list:
    """Published operating points, with the tolerances the acceptance
    tests use."""
    r = {k: v["report"] for k, v in configs.items()}
    total = {k: float(Fraction(v["total_ace"])) for k, v in r.items()}
    mb = "mobilenet_v2-w4a4-{}-{}"
    res = "resnet50-{}b-w1a1"
    pins = [
        ("mbv2 relu total", _near(total[mb.format("relu", "channelwise")],
                                  20.44e9, rel=0.10)),
        ("mbv2 prelu total", _near(total[mb.format("prelu", "channelwise")],
                                   26.5e9, rel=0.10)),
        ("mbv2 dprelu total", _near(total[mb.format("dprelu", "channelwise")],
                                    27.67e9, rel=0.10)),
        ("mbv2 subchannel total",
         _near(total[mb.format("relu", "subchannelwise")], 27.06e9, rel=0.10)),
        ("mbv2 bn share", _near(_share(r[mb.format("relu", "channelwise")],
                                       "batchnorm"), 0.4187, abs_=0.03)),
        ("mbv2 scale share", _near(_share(r[mb.format("relu", "channelwise")],
                                          "quant_scale"), 0.3252, abs_=0.03)),
        ("mbv2 subchannel scale share",
         _near(_share(r[mb.format("relu", "subchannelwise")], "quant_scale"),
               0.4897, abs_=0.03)),
        ("resnet bn share", _near(_share(r[res.format(2)], "batchnorm"),
                                  0.4138, abs_=0.03)),
        ("resnet 2b intensity", _near(r[res.format(2)]["arithmetic_intensity"],
                                      73.5, rel=0.05)),
        ("resnet 3b intensity", _near(r[res.format(3)]["arithmetic_intensity"],
                                      49.66, rel=0.05)),
        ("resnet 4b intensity", _near(r[res.format(4)]["arithmetic_intensity"],
                                      36.75, rel=0.05)),
        ("resnet 4b = 2b / 2", r[res.format(4)]["arithmetic_intensity"]
         == r[res.format(2)]["arithmetic_intensity"] / 2),
    ]
    published = {"1x": (8.50e9, 8.68e9), "2x": (15.56e9, 15.74e9),
                 "3x": (33.70e9, 33.97e9), "6x": (58.74e9, 59.10e9)}
    for scale, targets in published.items():
        t = total[f"pikelpn-{scale}"]
        pins.append((f"pikelpn {scale} total",
                     all(_near(t, x, rel=0.15) for x in targets)))
        pins.append((f"pikelpn {scale} elementwise share",
                     r[f"pikelpn-{scale}"]["elementwise_share"] <= 0.05))
    return [f"pin failed: {name}" for name, ok in pins if not ok]


def check_determinism() -> list:
    problems = []

    def draw(seed):
        import random
        rng = lambda p: random.Random(f"{seed}/{p}")  # noqa: E731
        doc = {"nodes": [{"id": "in", "kind": "Input", "params": {},
                          "inputs": []}] + [
            {"id": f"c{i}", "kind": "Conv2D", "inputs": ["in"],
             "params": {"kernel": [3, 3], "stride": 1},
             "weight_format": {"kind": "fixed", "bits": 8}}
            for i in range(20)]}
        return (gen.zoo_pool(rng("a")), gen.fanout_pool(rng("b")),
                gen.cli_ops(rng("c"), gen.all_zoo_keys()),
                gen.verify_ops(rng("d")), gen.pool_ops(rng("e"), 48),
                [gen.malformed(doc, c, rng("f")) for c in gen.MALFORMED_CASES])

    if draw(1) != draw(1):
        problems.append("generators differ for the same seed")
    if any(a == b for a, b in zip(draw(1), draw(2))):
        problems.append("a generator ignores the seed")
    return problems


def _analyze(cli, path: Path, fmt: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["analyze", str(path), "--format", fmt])
    if code != 0:
        raise RuntimeError(f"analyze {path} exited {code}")
    return out.getvalue()


def check_fanout(cli, tmp: Path) -> list:
    import random
    problems = []
    for spec in gen.fanout_pool(random.Random("selfcheck/fanout")):
        path = tmp / f"{spec.name}.json"
        path.write_text(json.dumps(spec.document()))
        for fmt in gen.FORMATS:
            outcome = check.check_report(_analyze(cli, path, fmt), fmt,
                                         spec.expected())
            if outcome != check.OK:
                problems.append(f"fan-out closed form: {outcome}")
    return problems


def check_zoo(cli, configs: dict, tmp: Path) -> list:
    """Expected file vs census recomputation, emit digests, and the
    batch-linearity check on every configuration."""
    problems = []
    for key, entry in configs.items():
        exp = check.expectation_from_payload(entry["report"])
        emitted = tmp / "emit.json"
        if cli.main(gen.emit_argv(key) + ["-o", str(emitted)]) != 0 \
                or check.sha256(emitted.read_text()) != entry["sha256"]:
            problems.append(f"zoo emit {key} digest")
            continue
        out = io.StringIO()
        with redirect_stdout(out):
            cli.main(["census", str(emitted)])
        if check.check_census(out.getvalue(), exp) != check.OK:
            problems.append(f"census recomputation {key}")
        for fmt in gen.FORMATS:
            if check.check_report(_analyze(cli, emitted, fmt), fmt, exp) \
                    != check.OK:
                problems.append(f"expected report {key} {fmt}")
        batched = tmp / "batched.json"
        for n in gen.BATCH_SIZES:
            batched.write_text(gen.with_batch(emitted.read_text(), n))
            for fmt in gen.FORMATS:
                outcome = check.check_report(_analyze(cli, batched, fmt), fmt,
                                             exp, n)
                if outcome != check.DEFECT_BATCH:
                    problems.append(f"{key} n={n} {fmt}: linearity check "
                                    f"says {outcome}, expected the Dense "
                                    "batch defect")
        scaled = dict(entry["report"],
                      total_ace=check.decimal(2 * exp["total_ace"]),
                      ace_by_category={k: check.decimal(2 * v) for k, v in
                                       exp["ace_by_category"].items()},
                      energy_mj=2 * exp["energy_mj"],
                      arithmetic_intensity=check.scaled_expectation(
                          exp, 2)["arithmetic_intensity"],
                      footprint=dict(entry["report"]["footprint"],
                                     activation_elems=2 * exp["activation_elems"]))
        if check.check_report(json.dumps(scaled), "json", exp, 2) != check.OK:
            problems.append(f"{key}: a linear batch-2 report is rejected")
        if check.check_report(json.dumps(scaled), "json", exp, 8) == check.OK:
            problems.append(f"{key}: a wrong batch-8 report is accepted")
    return problems


def check_malformed(tmp: Path) -> list:
    import os
    import random
    from acev2 import ir, zoo
    from acev2.formats import NumericFormat
    problems = []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    base = json.loads(ir.serialize_graph(
        gen.build_zoo("resnet50-2b-w1a1", zoo, NumericFormat)))
    rng = random.Random("selfcheck/malformed")
    for case in gen.MALFORMED_CASES:
        path = tmp / f"malformed_{case}.json"
        path.write_text(json.dumps(gen.malformed(base, case, rng)))
        proc = subprocess.run([sys.executable, "-m", "acev2.cli", "analyze",
                               str(path)], env=env, capture_output=True,
                              text=True, timeout=120)
        want = (check.DEFECT_TRACEBACK if case in check.TRACEBACK_CASES
                else check.OK)
        got = check.check_rejected(proc.returncode, proc.stderr, case)
        if got != want:
            problems.append(f"malformed {case}: {got}, expected {want}")
    return problems


def check_traced_runs() -> list:
    problems = []
    for workload in ("zoo_analyze", "wide_fanout", "cli_mix", "verify_sweep"):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", "7", "--seconds", "3", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        record = BENCH / "out" / f"record-{workload}-seed7-trace1.json"
        if proc.returncode != 0 or not record.is_file():
            problems.append(f"traced {workload} run failed: {proc.stderr[-500:]}")
            continue
        rec = json.loads(record.read_text())
        if not rec["traced_same_ops"]:
            problems.append(f"traced {workload} replay differs from its ops")
        if not rec["correct"]:
            problems.append(f"traced {workload} run incorrect: {rec['failures']}")
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    from acev2 import cli
    configs = json.loads((BENCH / "expected_zoo.json").read_text())["configs"]
    results = {"determinism": check_determinism(),
               "acceptance pins": check_pins(configs)}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        tmp = Path(tmp)
        results["fan-out closed forms"] = check_fanout(cli, tmp)
        results["zoo reference and linearity"] = check_zoo(cli, configs, tmp)
        results["malformed classification"] = check_malformed(tmp)
    results["traced runs"] = check_traced_runs()
    failed = False
    for name, problems in results.items():
        print(f"{'FAIL' if problems else 'PASS'}  {name}")
        for p in problems[:10]:
            print(f"      {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
