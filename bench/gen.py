"""Input generators. Every input is a pure function of the workload seed.

Nothing here imports acev2 at module level: the zoo draw names
configurations and builds them through the zoo module handed in, the
fan-out builder writes IR documents directly and derives its expected
report from the paper's closed forms, and the malformed documents are
mutations of plain JSON.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

# ---------------------------------------------------------------------------
# Zoo configurations

PIKE_SCALES = ("1x", "2x", "3x", "6x")
MBV1_BITS = (2, 4, 8, 16)
MBV2_BITS = (2, 4, 8)
MBV2_ACTIVATIONS = ("relu", "prelu", "dprelu")
MBV2_GRANULARITIES = ("layerwise", "channelwise", "subchannelwise")
RESNET_BRANCHES = (2, 3, 4)
RESNET_BITS = (1, 4, 8)  # 1 is the binary format


def zoo_space() -> Dict[str, List[str]]:
    """Every configuration the zoo draw can pick, grouped by family."""
    return {
        "pikelpn": [f"pikelpn-{s}" for s in PIKE_SCALES],
        "mobilenet_v1": [f"mobilenet_v1-w{b}a{b}" for b in MBV1_BITS],
        "mobilenet_v2": [f"mobilenet_v2-w{b}a{b}-{act}-{gran}"
                         for b in MBV2_BITS for act in MBV2_ACTIVATIONS
                         for gran in MBV2_GRANULARITIES],
        "resnet50": [f"resnet50-{br}b-w{b}a{b}"
                     for br in RESNET_BRANCHES for b in RESNET_BITS],
    }


def all_zoo_keys() -> List[str]:
    return [key for keys in zoo_space().values() for key in keys]


def _bits(tag: str) -> int:
    """'w8a8' -> 8 (the draw only uses equal weight and activation widths)."""
    return int(tag[1:tag.index("a")])


def emit_argv(key: str) -> List[str]:
    """`acev2 zoo emit` arguments that produce configuration ``key``."""
    family, *rest = key.split("-")
    argv = ["zoo", "emit", family]
    if family == "pikelpn":
        return argv + ["--scale", rest[0]]
    if family == "mobilenet_v1":
        b = str(_bits(rest[0]))
        return argv + ["--weight-bits", b, "--act-bits", b]
    if family == "mobilenet_v2":
        b = str(_bits(rest[0]))
        return argv + ["--weight-bits", b, "--act-bits", b,
                       "--activation", rest[1], "--granularity", rest[2]]
    b = str(_bits(rest[1]))
    return argv + ["--branches", rest[0][:-1], "--weight-bits", b,
                   "--act-bits", b]


def build_zoo(key: str, zoo, NumericFormat):
    """Build configuration ``key`` through the public zoo builders, with
    the same arguments `acev2 zoo emit` passes for ``emit_argv(key)``."""
    family, *rest = key.split("-")
    if family == "pikelpn":
        return zoo.build_pikelpn(rest[0])
    if family == "mobilenet_v1":
        fmt = NumericFormat.fixed(_bits(rest[0]))
        return zoo.build_mobilenet_v1(weight_fmt=fmt, act_fmt=fmt)
    if family == "mobilenet_v2":
        b = _bits(rest[0])
        return zoo.build_mobilenet_v2(b, b, rest[1], rest[2])
    b = _bits(rest[1])
    fmt = NumericFormat.binary() if b == 1 else NumericFormat.fixed(b)
    return zoo.build_resnet50_branches(int(rest[0][:-1]), fmt, fmt)


# Per-family share of the zoo_analyze pool. Fixing the family mix (and
# drawing only variants within a family) keeps the latency distribution
# the same from seed to seed: op time follows node count, which is a
# family property.
ZOO_POOL_QUOTA = {"pikelpn": 8, "mobilenet_v1": 8, "mobilenet_v2": 16,
                  "resnet50": 16}
BATCH_SIZES = (2, 8)
FORMATS = ("json", "csv", "table")


@dataclass(frozen=True)
class ZooInput:
    key: str
    n: int


def zoo_pool(rng: random.Random) -> List[ZooInput]:
    """The zoo_analyze draw: a fixed count per family, seeded variants,
    and exactly one input in four rewritten to batch 2 or 8."""
    pool: List[ZooInput] = []
    for family, quota in ZOO_POOL_QUOTA.items():
        keys = zoo_space()[family][:]
        rng.shuffle(keys)
        picks = [keys[i % len(keys)] for i in range(quota)]
        batched = set(rng.sample(range(quota), quota // 4))
        for i, key in enumerate(picks):
            n = BATCH_SIZES[i % 2] if i in batched else 1
            pool.append(ZooInput(key, n))
    rng.shuffle(pool)
    return pool


def with_batch(text: str, n: int) -> str:
    """Rewrite a serialized graph's input.n."""
    doc = json.loads(text)
    doc["input"]["n"] = n
    return json.dumps(doc, indent=2) + "\n"


def pool_ops(rng: random.Random, size: int) -> List[Tuple[int, str]]:
    """One op per pool input: the input and its output format, the three
    formats equally often."""
    formats = [FORMATS[i % 3] for i in range(size)]
    rng.shuffle(formats)
    return list(enumerate(formats))


def cycles(rng: random.Random, op_sets: List[list]) -> Iterator:
    """Endless passes over the op sets in turn, each pass in a fresh
    seeded order. Every op recurs many times in a run, so its time can
    be taken as the best of its repeats."""
    while True:
        for ops in op_sets:
            order = list(ops)
            rng.shuffle(order)
            yield from order


# ---------------------------------------------------------------------------
# Wide fan-out graphs and their closed-form reports

FANOUT_POOL = 8
FANOUT_K_MIN, FANOUT_K_MAX = 256, 2048


def clog2(j: int) -> int:
    """ceil(log2 j) for j >= 1."""
    return (j - 1).bit_length()


def ace_mac(i: int, j: int) -> Fraction:
    return Fraction(i * j)


def ace_multiply(i: int, j: int) -> Fraction:
    return Fraction(i * j - max(i, j))


def ace_add(i: int, j: int, is_float: bool) -> Fraction:
    return Fraction((6 if is_float else 1) * max(i, j))


def ace_shift(i: int, j: int) -> Fraction:
    return Fraction(i * clog2(j), 5)


@dataclass(frozen=True)
class FanoutSpec:
    """Input -> k x (PointwiseConv2D -> BatchNorm) -> Concat -> Output."""

    name: str
    k: int
    h: int
    c_in: int
    weight_bits: int
    act_bits: int
    pot_weights: bool          # power-of-two weights: shift + add per MAC
    norm_bits: Optional[int]   # None keeps normalization at fp32
    branch_channels: Tuple[int, ...]

    def document(self) -> dict:
        fixed = lambda bits: {"kind": "fixed", "bits": bits}  # noqa: E731
        nodes = [{"id": "in", "kind": "Input", "params": {}, "inputs": []}]
        for b, c in enumerate(self.branch_channels):
            conv = {"id": f"b{b}_pw", "kind": "PointwiseConv2D",
                    "params": {"out_channels": c}, "inputs": ["in"],
                    "weight_format": fixed(self.weight_bits),
                    "act_format": fixed(self.act_bits)}
            if self.pot_weights:
                conv["quant"] = {"granularity": "channelwise",
                                 "scale": "pot", "weight_quantizer": "pot"}
            norm = {"id": f"b{b}_bn", "kind": "BatchNorm", "params": {},
                    "inputs": [f"b{b}_pw"]}
            if self.norm_bits:
                norm["weight_format"] = fixed(self.norm_bits)
            nodes += [conv, norm]
        nodes.append({"id": "cat", "kind": "Concat", "params": {},
                      "inputs": [f"b{b}_bn" for b in range(self.k)]})
        nodes.append({"id": "out", "kind": "Output", "params": {},
                      "inputs": ["cat"]})
        return {"ir_version": 1, "name": self.name,
                "input": {"n": 1, "h": self.h, "w": self.h, "c": self.c_in},
                "nodes": nodes}

    def expected(self) -> dict:
        """Report fields from the paper's formulas: i*j per MAC,
        i*ceil(log2 j)/5 per shift, i*j - max(i, j) per multiply,
        max(i, j) per fixed-point add (6x for floating point)."""
        plane = self.h * self.h
        channels = sum(self.branch_channels)
        macs = plane * self.c_in * channels
        w, a = self.weight_bits, self.act_bits
        if self.pot_weights:
            conv = macs * (ace_shift(a, 2 ** (w - 1)) + ace_add(a, a, False))
            conv_ops = 2 * macs
        else:
            conv = macs * ace_mac(w, a)
            conv_ops = 2 * macs
        nb = self.norm_bits or 32
        is_float = self.norm_bits is None
        norm = plane * channels * (ace_multiply(nb, nb)
                                   + ace_add(nb, nb, is_float))
        weights = (self.c_in + 4) * channels
        activations = plane * (self.c_in + 3 * channels)
        ops = conv_ops + 2 * plane * channels
        total = conv + norm
        return {
            "name": self.name,
            "total_ace": total,
            "ace_by_category": {"batchnorm": norm, "conv": conv},
            "macs": macs,
            "mac_share": float(conv / total),
            "weight_elems": weights,
            "activation_elems": activations,
            "concurrent_branch_factor": self.k,
            "arithmetic_intensity": ops / (self.k * (weights + activations)),
        }

    @property
    def nodes(self) -> int:
        return 2 * self.k + 3


def fanout_pool(rng: random.Random) -> List[FanoutSpec]:
    """Fan-out widths on a fixed log-uniform grid over [256, 2048], every
    other one with power-of-two weights, so every seed sees the same
    spread of sizes and kinds; the rest of each graph is seeded."""
    span = math.log(FANOUT_K_MAX / FANOUT_K_MIN)
    specs = []
    for s in range(FANOUT_POOL):
        k = round(FANOUT_K_MIN * math.exp(span * (s + 0.5) / FANOUT_POOL))
        specs.append(FanoutSpec(
            name=f"fanout_{s}_k{k}",
            k=k,
            h=rng.choice((2, 4, 8)),
            c_in=rng.randint(4, 16),
            weight_bits=rng.choice((2, 4, 8)),
            act_bits=rng.choice((4, 8, 16)),
            pot_weights=s % 2 == 1,
            norm_bits=rng.choice((None, 8, 16)),
            branch_channels=tuple(rng.randint(1, 8) for _ in range(k)),
        ))
    rng.shuffle(specs)
    return specs


# ---------------------------------------------------------------------------
# Malformed documents

# The first four escape as Python tracebacks at the seed commit (a known
# defect); the last two are rejected cleanly.
MALFORMED_CASES = ("missing_kernel", "stride_zero", "kernel_string",
                   "bits_string", "unknown_key", "dangling_input")


def malformed(doc: dict, case: str, rng: random.Random) -> dict:
    """Apply one malformation to a copy of a valid zoo document."""
    doc = copy.deepcopy(doc)
    nodes = doc["nodes"]
    spatial = [n for n in nodes if n["kind"] in ("Conv2D", "DepthwiseConv2D")]
    target = rng.choice(spatial)
    if case == "missing_kernel":
        del target["params"]["kernel"]
    elif case == "stride_zero":
        target["params"]["stride"] = 0
    elif case == "kernel_string":
        target["params"]["kernel"] = "3x3"
    elif case == "bits_string":
        fmt = target["weight_format"]
        fmt["bits"] = str(fmt["bits"])
    elif case == "unknown_key":
        rng.choice(nodes)["colour"] = "red"
    elif case == "dangling_input":
        rng.choice(nodes[1:])["inputs"][0] = "no_such_node"
    else:
        raise ValueError(case)
    return doc


# ---------------------------------------------------------------------------
# cli_mix plan

COMPARE_SIZES = (10, 40)
ORACLE_FORMS = ("shifter", "fp_adder", "max_bits")


@dataclass(frozen=True)
class CliOp:
    """One `acev2` process: its subcommand, arguments (file names are
    relative to the input directory) and what the check compares."""

    sub: str
    argv: Tuple[str, ...]
    files: Tuple[str, ...] = ()
    fmt: str = ""
    case: str = ""          # malformed case, if any
    emit_key: str = ""      # zoo configuration for zoo emit


def compare_files(rng: random.Random, size: int) -> List[str]:
    """``size`` distinct zoo configurations with a fixed share per family
    (a fifth each from the two small families, 30% residual networks),
    so a compare's cost depends on its size, not on the seed."""
    space = zoo_space()
    quota = {"pikelpn": min(4, round(size * 0.2)),
             "mobilenet_v1": min(4, round(size * 0.2)),
             "resnet50": min(9, round(size * 0.3))}
    quota["mobilenet_v2"] = size - sum(quota.values())
    return [key for family, n in quota.items()
            for key in rng.sample(space[family], n)]


def cli_ops(rng: random.Random, zoo_keys: List[str]) -> List[List[CliOp]]:
    """Three sets of 21 processes. Each holds the same 19 valid ops over
    11 distinct ones: analyze in each format, census, zoo emit,
    quantsim and compare over 10 and over 40 files twice each, and the
    three light oracle forms once. Each set adds two malformed documents
    (about 10%), so the three sets carry all six cases, half through
    analyze and half through compare. Few distinct ops, so each repeats
    several times in a run."""
    def zoo_file(key: str) -> str:
        return f"{key}.json"

    twice: List[CliOp] = []
    for fmt in FORMATS:
        f = zoo_file(rng.choice(zoo_keys))
        twice.append(CliOp("analyze", ("analyze", f, "--format", fmt), (f,),
                           fmt))
    f = zoo_file(rng.choice(zoo_keys))
    twice.append(CliOp("census", ("census", f), (f,)))
    key = rng.choice(zoo_keys)
    twice.append(CliOp("zoo_emit", tuple(emit_argv(key)), emit_key=key))
    twice.append(CliOp("quantsim", ("quantsim", "--trials", "100", "--seed",
                                    str(rng.randrange(2 ** 31)))))
    for size in COMPARE_SIZES:
        files = tuple(zoo_file(k) for k in compare_files(rng, size))
        twice.append(CliOp("compare", ("compare",) + files, files))
    once = [
        CliOp("oracle", ("oracle", "--shifter", str(rng.randint(1, 64)),
                         str(rng.randint(2, 64)))),
        CliOp("oracle", ("oracle", "--fp-adder", str(rng.randint(2, 15)),
                         str(rng.randint(2, 52)))),
        CliOp("oracle", ("oracle", "--max-bits", str(rng.randint(4, 16)))),
    ]
    valid = twice * 2 + once

    cases = list(MALFORMED_CASES)
    rng.shuffle(cases)
    bad: List[CliOp] = []
    for i, case in enumerate(cases):
        name = f"malformed_{case}.json"
        if i % 2 == 0:
            bad.append(CliOp("analyze", ("analyze", name, "--format", "json"),
                             (name,), "json", case=case))
        else:
            files = (name,) + tuple(zoo_file(k)
                                    for k in rng.sample(zoo_keys, 9))
            bad.append(CliOp("compare", ("compare",) + files, files,
                             case=case))
    return [valid + bad[i:i + 2] for i in range(0, 6, 2)]


# ---------------------------------------------------------------------------
# verify_sweep plan

MAX_BITS = 64
QUANT_TRIALS = (25, 50, 75, 100)


def verify_ops(rng: random.Random) -> List[tuple]:
    """Every Dadda pair up to 64 bits, a seeded barrel-shifter grid and
    floating-point-adder grid, and eight seeded normalization studies."""
    ops: List[tuple] = [("dadda", i, j) for i in range(1, MAX_BITS + 1)
                        for j in range(1, MAX_BITS + 1)]
    for i in range(1, MAX_BITS + 1):
        ops += [("barrel", i, j) for j in rng.sample(range(2, MAX_BITS + 1), 8)]
    for e in range(2, 16):
        ops += [("fp_adder", e, m) for m in rng.sample(range(2, 53), 8)]
    ops += [("quant", trials, rng.randrange(2 ** 31))
            for trials in QUANT_TRIALS * 2]
    return ops
