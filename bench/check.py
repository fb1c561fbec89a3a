"""Output checks. Each returns an outcome string:

  "ok"              the output is what the reference says
  "known:<defect>"  wrong in exactly the way a defect recorded at the seed
                    commit makes it wrong; counts as a failed op
  "bad:<detail>"    any other wrong output; fails the op and the run

The references are the expected-report file (zoo graphs at batch 1),
batch linearity (batch > 1) and the paper's closed forms (fan-out graphs,
oracle and census rows). Nothing here calls acev2.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from typing import Dict, List, Optional

from gen import MALFORMED_CASES, ace_add, ace_mac, ace_multiply, ace_shift, clog2

OK = "ok"
DEFECT_BATCH = "known:dense-batch-nonlinear"
DEFECT_TRACEBACK = "known:malformed-traceback"
TRACEBACK_CASES = MALFORMED_CASES[:4]

FLOAT_REL = 1e-9   # floats printed with full precision (JSON)
SIG4_REL = 6e-4    # floats printed with four significant digits


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(got: float, want: float, rel: float, abs_tol: float = 0.0) -> bool:
    return math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol)


def parse_report(text: str, fmt: str) -> dict:
    """Normalise the three `analyze` renderings to one dict. Fields a
    rendering does not carry are absent; exact values become Fractions
    and ints, rounded ones floats."""
    if fmt == "json":
        doc = json.loads(text)
        fp = doc["footprint"]
        return {
            "name": doc["name"],
            "total_ace": Fraction(doc["total_ace"]),
            "ace_by_category": {k: Fraction(v)
                                for k, v in doc["ace_by_category"].items()},
            "mac_share": doc["mac_share"],
            "energy_mj": doc["energy_mj"],
            "arithmetic_intensity": doc["arithmetic_intensity"],
            "weight_elems": fp["weight_elems"],
            "activation_elems": fp["activation_elems"],
            "concurrent_branch_factor": fp["concurrent_branch_factor"],
            "rel": FLOAT_REL,
        }
    if fmt == "csv":
        out = {"ace_by_category": {}, "rel": SIG4_REL}
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["section", "key", "value"]:
            raise ValueError(f"csv header {rows[0]}")
        for section, key, value in rows[1:]:
            if section == "ace_by_category":
                out["ace_by_category"][key] = Fraction(value)
            elif key == "total_ace":
                out["total_ace"] = Fraction(value)
            elif section == "footprint":
                out[key] = int(value)
            else:
                out[key] = float(value)
        return out
    labels = {"Model": "name", "Total ACE (bitadders)": "total_ace",
              "MAC share": "mac_share", "Energy (mJ)": "energy_mj",
              "Arithmetic intensity (ops/elem)": "arithmetic_intensity",
              "Weights (elems)": "weight_elems",
              "Activations (elems)": "activation_elems",
              "Branch factor": "concurrent_branch_factor"}
    # Shares print as percentages with two decimals.
    out = {"rel": SIG4_REL, "abs_mac_share": 5.1e-5}
    for line in text.splitlines()[2:]:
        label, value = [c.strip() for c in line.strip().strip("|").split("|")]
        field = labels.get(label)
        if field is None:
            continue
        if field == "name":
            out[field] = value
        elif field == "total_ace":
            out[field] = Fraction(value)
        elif field == "mac_share":
            out[field] = None if value == "-" else float(value[:-1]) / 100
        elif field in ("energy_mj", "arithmetic_intensity"):
            out[field] = float(value)
        else:
            out[field] = int(value)
    return out


def scaled_expectation(exp: dict, n: int) -> dict:
    """What a correct batch-n report of the same graph must say: every
    cost and activation count n times the batch-1 value, weights
    unchanged, shares unchanged, intensity n*ops / (bf * (W + n*A))."""
    if n == 1:
        return exp
    w, a = exp["weight_elems"], exp["activation_elems"]
    return dict(
        exp,
        total_ace=n * exp["total_ace"],
        ace_by_category={k: n * v for k, v in exp["ace_by_category"].items()},
        energy_mj=None if exp.get("energy_mj") is None
        else n * exp["energy_mj"],
        activation_elems=n * a,
        arithmetic_intensity=exp["arithmetic_intensity"] * n * (w + a)
        / (w + n * a),
    )


def _mismatches(got: dict, want: dict) -> List[str]:
    bad = []
    rel = got["rel"]
    for field, value in want.items():
        if field not in got or value is None:
            continue
        have = got[field]
        if field == "ace_by_category":
            if have != value:
                bad.append(field)
        elif isinstance(value, float):
            if have is None or not _close(have, value, rel,
                                          got.get("abs_" + field, 0.0)):
                bad.append(field)
        elif have != value:
            bad.append(field)
    return bad


def _is_dense_batch_defect(got: dict, exp: dict, n: int) -> bool:
    """The seed's Dense rule multiplies two batch-scaled element counts,
    so at batch n the dense category costs n^2 times its batch-1 value
    while every other category scales by n, and the weight count grows."""
    dense = exp["ace_by_category"].get("dense", Fraction(0))
    if dense == 0 or got.get("weight_elems", 0) <= exp["weight_elems"]:
        return False
    if "ace_by_category" in got:
        want = {k: (n * n if k == "dense" else n) * v
                for k, v in exp["ace_by_category"].items()}
        return got["ace_by_category"] == want
    return got.get("total_ace") == n * (exp["total_ace"] - dense) + n * n * dense


def check_report(text: str, fmt: str, exp: dict, n: int = 1) -> str:
    """Check an `analyze` output against the batch-1 expectation ``exp``."""
    try:
        got = parse_report(text, fmt)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"bad:unparsable {fmt} report: {exc}"
    bad = _mismatches(got, scaled_expectation(exp, n))
    if not bad:
        return OK
    if n > 1 and _is_dense_batch_defect(got, exp, n):
        return DEFECT_BATCH
    return f"bad:{exp.get('name')} n={n} {fmt}: {','.join(bad)}"


def expectation_from_payload(payload: dict) -> dict:
    """Turn an expected-file entry (an `analyze --format json` payload)
    into the comparable form parse_report produces."""
    exp = parse_report(json.dumps(payload), "json")
    del exp["rel"]
    return exp


def census_ace(text: str) -> Dict[str, Fraction]:
    """Bit-adders per category recomputed from `census` rows with the
    closed forms. In the zoo draw every 32-bit operand is fp32, so a
    32-bit add is a floating-point add."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["layer_id", "category", "op_class", "count", "bits_a",
                   "bits_b"]:
        raise ValueError(f"census header {rows[0]}")
    totals: Dict[str, Fraction] = {}
    for _, category, op, count, a, b in rows[1:]:
        count, a, b = int(count), int(a), int(b)
        if op == "mac":
            unit = ace_mac(a, b)
        elif op == "multiply":
            unit = ace_multiply(a, b)
        elif op == "add":
            unit = ace_add(a, b, a == 32)
        elif op == "shift":
            unit = ace_shift(a, b)
        else:
            raise ValueError(f"op class {op}")
        totals[category] = totals.get(category, Fraction(0)) + count * unit
    return totals


def check_census(text: str, exp: dict) -> str:
    try:
        got = census_ace(text)
    except (ValueError, IndexError) as exc:
        return f"bad:unparsable census: {exc}"
    want = {k: v for k, v in exp["ace_by_category"].items() if v}
    got = {k: v for k, v in got.items() if v}
    return OK if got == want else f"bad:census {exp['name']}"


def check_compare(text: str, exps: List[dict]) -> str:
    """Rows are the expected totals, ascending by (cost, name); with no
    accuracies given, a row is on the Pareto front unless a cheaper row
    exists."""
    try:
        rows = list(csv.reader(io.StringIO(text)))
        header, body = rows[0], rows[1:]
        got = [(r[0], Fraction(r[1]), float(r[2]), float(r[3]), int(r[4]))
               for r in body]
    except (ValueError, IndexError) as exc:
        return f"bad:unparsable compare: {exc}"
    if header != ["name", "total_ace", "energy_mj", "arithmetic_intensity",
                  "pareto"]:
        return "bad:compare header"
    if [(g[1], g[0]) for g in got] != sorted((g[1], g[0]) for g in got):
        return "bad:compare order"
    if sorted((g[0], g[1]) for g in got) != sorted(
            (e["name"], e["total_ace"]) for e in exps):
        return "bad:compare rows"
    by_key = {(e["name"], e["total_ace"]): e for e in exps}
    for name, total, energy, intensity, pareto in got:
        e = by_key[(name, total)]
        # Zoo configurations can share a name; whether a cheaper row with
        # the same name dominates is left open, any other cheaper row must.
        beaten = {g[0] == name for g in got if g[1] < total}
        if (False in beaten and pareto) or (not beaten and not pareto):
            return "bad:compare pareto"
        if not (_close(energy, e["energy_mj"], SIG4_REL)
                and _close(intensity, e["arithmetic_intensity"], SIG4_REL)):
            return "bad:compare values"
    return OK


def check_rejected(code: int, stderr: str, case: str,
                   path: Optional[str] = None) -> str:
    """A malformed document must exit 1 with an `error:` line (naming the
    file, for compare) and no Python traceback."""
    lines = stderr.splitlines()
    clean = (code == 1 and "Traceback" not in stderr
             and any(l.startswith("error:") and (path is None or path in l)
                     for l in lines))
    if clean:
        return OK
    return DEFECT_TRACEBACK if case in TRACEBACK_CASES else \
        f"bad:malformed {case} exit {code}"


def check_shifter(stdout: str, i: int, j: int) -> str:
    mux = i * clog2(j)
    want = f"{mux} muxes -> {decimal(Fraction(mux, 5))} bitadders"
    return OK if stdout.strip() == want else f"bad:shifter {i} {j}"


def check_fp_adder(stdout: str, e: int, m: int) -> str:
    lines = stdout.strip().splitlines()
    try:
        parts = [float(l.split()[1]) for l in lines[:9]]
        total = float(lines[9].split()[1])
    except (IndexError, ValueError):
        return f"bad:fp adder {e} {m} output"
    bound = 6 * (e + m + 1)
    if len(lines) != 10 or not total <= bound or abs(sum(parts) - total) > 1e-3:
        return f"bad:fp adder {e} {m}"
    return OK


def check_max_bits(stdout: str, m: int) -> str:
    want = f"0 mismatches / {m * m} pairs"
    return OK if stdout.strip() == want else f"bad:max-bits {m}"


def check_quantsim(stdout: str, trials: int) -> str:
    rows = list(csv.reader(io.StringIO(stdout)))
    try:
        values = [(int(r[0]), float(r[1]), float(r[2])) for r in rows[1:]]
    except (ValueError, IndexError):
        return "bad:quantsim rows"
    if rows[0] != ["trial", "quantnorm_mse", "vanilla_mse"] \
            or [v[0] for v in values] != list(range(trials)) \
            or not all(v[1] >= 0 and v[2] >= 0 for v in values):
        return "bad:quantsim"
    return OK


def decimal(value: Fraction) -> str:
    """Exact decimal of a non-negative rational with a 2^a 5^b
    denominator (every bit-adder total has one)."""
    scale = 0
    while (value * 10 ** scale).denominator != 1:
        scale += 1
    digits = str(int(value * 10 ** scale)).rjust(scale + 1, "0")
    return digits if scale == 0 else f"{digits[:-scale]}.{digits[-scale:]}"
