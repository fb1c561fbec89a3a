"""Cost reports: bit-adder totals, energy, arithmetic intensity.

Bit-adder totals accumulate as exact rationals so reports are
bit-reproducible; energy accumulates in floating point because the
underlying table is measured/extrapolated anyway.

Arithmetic intensity is ops per data element:

    intensity = M / (branch_factor * (W + A))

where M counts every tallied operation (a MAC is two operations:
multiply plus accumulate), W is the total weight elements, A the total
activation elements, and the branch factor is the maximum number of
simultaneously-live dataflow paths across any cut of the DAG. Parallel
branches multiply the data concurrently resident, so the whole data
term scales with the branch factor; a plain chain has factor 1 and a
standard residual network factor 2. Activation elements count the
output tensors of every materializing node; activation functions are
applied in place and allocate nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import cost
from .census import MAC_CATEGORIES, OpTally, TallyEntry, census_graph
from .errors import AceV2Error, AnalysisError
from .ir import (
    Graph,
    KIND_ACTIVATION,
    KIND_OUTPUT,
    LayerNode,
    TensorShape,
    infer_shapes,
    topological_order,
    weight_elements,
)

PJ_PER_MJ = 1e9


@dataclass(frozen=True)
class Footprint:
    weight_elems: int
    activation_elems: int
    concurrent_branch_factor: int


@dataclass
class CostReport:
    """Everything the analyzer knows about one graph."""

    name: str
    total_ace: Fraction
    ace_by_category: Dict[str, Fraction]
    mac_share: Optional[float]
    elementwise_share: Optional[float]
    energy_mj: float
    arithmetic_intensity: float
    footprint: Footprint
    extrapolated_energy_ops: List[Tuple[str, str]] = field(default_factory=list)


def entry_ace(entry: TallyEntry) -> Fraction:
    """Exact bit-adder cost of one tally entry."""
    try:
        if entry.op_class == cost.MAC:
            unit = cost.ace_mac(entry.format_a, entry.format_b)
        elif entry.op_class == cost.MULTIPLY:
            unit = cost.ace_multiply(entry.format_a, entry.format_b)
        elif entry.op_class == cost.ADD:
            unit = cost.ace_add(entry.format_a, entry.format_b)
        elif entry.op_class == cost.SHIFT:
            unit = cost.ace_shift(entry.format_a, entry.shift_range)
        else:
            raise AceV2Error(f"unknown op class {entry.op_class!r}")
    except AceV2Error as exc:
        raise AnalysisError(entry.layer_id, str(exc)) from exc
    return unit.bitadders * entry.count


def ace_report(tally: OpTally) -> Tuple[Fraction, Dict[str, Fraction],
                                        Optional[Tuple[float, float]]]:
    """Total bit-adders, per-category breakdown, and the
    (mac_share, elementwise_share) split. Shares are None for an empty
    tally. Counts are summed per distinct (category, op class, formats,
    shift range) key and each key is priced once, exactly: O(E) for E
    entries plus one rational product per key. An AnalysisError names
    the first entry, in tally order, whose op cannot be priced."""
    groups: Dict[tuple, list] = {}  # key -> [first entry, summed count]
    for entry in tally.entries:  # unpacking beats reads by field name
        _, op_class, count, format_a, format_b, category, shift_range = entry
        key = (category, op_class, format_a, format_b, shift_range)
        groups.setdefault(key, [entry, 0])[1] += count
    by_category: Dict[str, Fraction] = {}
    for first, count in groups.values():
        by_category[first.category] = (
            by_category.get(first.category, Fraction(0))
            + entry_ace(first._replace(count=count)))
    total = sum(by_category.values(), Fraction(0))
    if total == 0:
        return total, by_category, None
    mac = sum((v for k, v in by_category.items() if k in MAC_CATEGORIES),
              Fraction(0))
    mac_share = float(mac / total)
    return total, by_category, (mac_share, 1.0 - mac_share)


def bn_share(report: CostReport) -> float:
    """Fraction of the total bit-adder cost spent in normalization."""
    from .census import CAT_BATCHNORM
    if report.total_ace == 0:
        return 0.0
    return float(report.ace_by_category.get(CAT_BATCHNORM, Fraction(0))
                 / report.total_ace)


def energy_report(tally: OpTally) -> Tuple[float, List[Tuple[str, str]]]:
    """Total energy in millijoules plus the (layer, op) pairs whose
    per-op energy was extrapolated, in tally order. O(E): each distinct
    (op class, formats, shift range) key is looked up once, and the sum
    still runs entry by entry, so the float total does not change."""
    total_pj = 0.0
    flagged: List[Tuple[str, str]] = []
    units: Dict[tuple, cost.EnergyCost] = {}
    for layer_id, op_class, count, format_a, format_b, _, shift_range \
            in tally.entries:
        key = (op_class, format_a, format_b, shift_range)
        unit = units.get(key)
        if unit is None:
            try:
                unit = units[key] = cost.energy_of_op(
                    op_class, format_a, format_b, shift_range=shift_range)
            except AceV2Error as exc:
                raise AnalysisError(layer_id, str(exc)) from exc
        total_pj += unit.picojoules * count
        if unit.extrapolated:
            flagged.append((layer_id, op_class))
    return total_pj / PJ_PER_MJ, flagged


def branch_factor(g: Graph, order: Optional[List[LayerNode]] = None) -> int:
    """Maximum number of producer-to-consumer edges crossing any
    topological cut: the widest set of simultaneously-live paths."""
    order = order or topological_order(g)
    position = {node.id: i for i, node in enumerate(order)}
    edges = [(position[ref], position[node.id])
             for node in g.nodes for ref in node.inputs]
    if not edges:
        return 1
    # Sweep cut points between consecutive positions.
    deltas = [0] * (len(order) + 1)
    for src, dst in edges:
        deltas[src + 1] += 1
        deltas[dst + 1] -= 1
    widest = 0
    live = 0
    for i in range(1, len(order)):
        live += deltas[i]
        widest = max(widest, live)
    return max(1, widest)


def data_footprint(g: Graph,
                   shapes: Optional[Dict[str, TensorShape]] = None,
                   order: Optional[List[LayerNode]] = None) -> Footprint:
    if shapes is None:
        shapes = infer_shapes(g, None, order)
    weights = 0
    activations = 0
    for node in g.nodes:
        in_shape = shapes[node.inputs[0]] if node.inputs else None
        if in_shape is not None:
            weights += weight_elements(node, in_shape)
        if node.kind not in (KIND_ACTIVATION, KIND_OUTPUT):
            activations += shapes[node.id].elements
    return Footprint(weights, activations, branch_factor(g, order))


def arithmetic_intensity(g: Graph, tally: OpTally,
                         shapes: Optional[Dict[str, TensorShape]] = None,
                         footprint: Optional[Footprint] = None) -> float:
    """Ops per concurrently-resident data element (see module docs)."""
    ops = sum(e.count * (2 if e.op_class == cost.MAC else 1)
              for e in tally.entries)
    fp = footprint or data_footprint(g, shapes)
    data = fp.concurrent_branch_factor * (fp.weight_elems + fp.activation_elems)
    return ops / data if data else 0.0


def analyze(g: Graph, order: Optional[List[LayerNode]] = None) -> CostReport:
    """Full pipeline: shapes, census, bit-adders, energy, intensity, over
    one topological order (``order`` if the caller already has it)."""
    order = order or topological_order(g)
    shapes = infer_shapes(g, None, order)
    tally = census_graph(g, shapes, order)
    total, by_category, shares = ace_report(tally)
    energy_mj, flagged = energy_report(tally)
    footprint = data_footprint(g, shapes, order)
    return CostReport(
        name=g.name,
        total_ace=total,
        ace_by_category=by_category,
        mac_share=shares[0] if shares else None,
        elementwise_share=shares[1] if shares else None,
        energy_mj=energy_mj,
        arithmetic_intensity=arithmetic_intensity(g, tally, shapes,
                                                  footprint),
        footprint=footprint,
        extrapolated_energy_ops=flagged,
    )


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    total_ace: Fraction
    energy_mj: float
    arithmetic_intensity: float
    accuracy: Optional[float]
    pareto: bool


def compare(reports: Sequence[Tuple[str, CostReport]],
            accuracies: Optional[Dict[str, float]] = None
            ) -> List[ComparisonRow]:
    """Rows sorted by ascending total cost, ties broken by name.

    A row is Pareto-flagged when no other row beats it on cost without
    giving up accuracy (accuracy values, if supplied, are externally
    measured inputs; nothing here predicts them).
    """
    accuracies = accuracies or {}
    keyed = sorted(reports, key=lambda nr: (nr[1].total_ace, nr[0]))
    rows: List[ComparisonRow] = []
    for i, (name, report) in enumerate(keyed):
        acc = accuracies.get(name)
        dominated = False
        for j, (other_name, other) in enumerate(keyed):
            if j == i:
                continue
            other_acc = accuracies.get(other_name)
            cheaper = other.total_ace < report.total_ace
            if acc is None or other_acc is None:
                dominated = dominated or cheaper
            else:
                dominated = dominated or (cheaper and other_acc >= acc)
        rows.append(ComparisonRow(
            name=name,
            total_ace=report.total_ace,
            energy_mj=report.energy_mj,
            arithmetic_intensity=report.arithmetic_intensity,
            accuracy=acc,
            pareto=not dominated,
        ))
    return rows
