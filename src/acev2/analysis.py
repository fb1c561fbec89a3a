"""Cost reports: bit-adder totals, energy, arithmetic intensity.

Bit-adder totals accumulate as exact rationals so reports are
bit-reproducible; energy accumulates in floating point because the
underlying table is measured/extrapolated anyway. Every report reads
one pass over the census tally: it sums counts per pricing key, sums
energy entry by entry in tally order (a float sum depends on its order,
and this one is fixed), collects the extrapolated ops and counts the ops;
bit-adders are then priced once per key.

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
from itertools import accumulate
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


class _TallyPricing:
    """One walk over a tally, in tally order, that every report reads.

    Counts are summed per distinct (category, op class, formats, shift
    range) key; each new key's energy is looked up once per distinct
    (op class, formats, shift range), and energy is summed entry by entry
    so the float total keeps its bits. Ops count a MAC as two. Bit-adders
    are priced exactly, once per key, only when asked for. An energy
    failure is held, not raised, so a caller that wants bit-adders sees
    the bit-adder failure first, and one that wants neither sees none."""

    def __init__(self, tally: OpTally):
        # key -> [first entry, summed count, pJ per op, extrapolated]
        groups: Dict[tuple, list] = {}
        units: Dict[tuple, tuple] = {}  # energy key -> (pJ, extrapolated)
        self.energy_error = None  # (layer id, error) of the first failure
        total_pj = 0.0
        flagged: List[Tuple[str, str]] = []
        for entry in tally.entries:  # unpacking beats reads by field name
            layer_id, op_class, count, format_a, format_b, category, \
                shift_range = entry
            key = (category, op_class, format_a, format_b, shift_range)
            group = groups.get(key)
            if group is None:
                group = groups[key] = [entry, 0,
                                       *self._energy_unit(units, entry)]
            group[1] += count
            total_pj += group[2] * count
            if group[3]:
                flagged.append((layer_id, op_class))
        self.groups = groups
        self.energy_pj = total_pj
        self.flagged = flagged
        self.ops = sum(count * (2 if first.op_class == cost.MAC else 1)
                       for first, count, _, _ in groups.values())

    def _energy_unit(self, units: dict, entry: TallyEntry) -> tuple:
        key = (entry.op_class, entry.format_a, entry.format_b,
               entry.shift_range)
        unit = units.get(key)
        if unit is None:
            try:
                energy = cost.energy_of_op(*key[:3], shift_range=key[3])
                unit = energy.picojoules, energy.extrapolated
            except AceV2Error as exc:
                if self.energy_error is None:
                    self.energy_error = entry.layer_id, exc
                unit = 0.0, False  # never reported: energy() raises
            units[key] = unit
        return unit

    def ace(self) -> Tuple[Fraction, Dict[str, Fraction],
                           Optional[Tuple[float, float]]]:
        by_category: Dict[str, Fraction] = {}
        for first, count, _, _ in self.groups.values():
            by_category[first.category] = (
                by_category.get(first.category, Fraction(0))
                + entry_ace(first._replace(count=count)))
        total = sum(by_category.values(), Fraction(0))
        if total == 0:
            return total, by_category, None
        mac = sum((v for k, v in by_category.items()
                   if k in MAC_CATEGORIES), Fraction(0))
        mac_share = float(mac / total)
        return total, by_category, (mac_share, 1.0 - mac_share)

    def energy(self) -> Tuple[float, List[Tuple[str, str]]]:
        if self.energy_error is not None:
            layer_id, exc = self.energy_error
            raise AnalysisError(layer_id, str(exc)) from exc
        return self.energy_pj / PJ_PER_MJ, self.flagged


def ace_report(tally: OpTally) -> Tuple[Fraction, Dict[str, Fraction],
                                        Optional[Tuple[float, float]]]:
    """Total bit-adders, per-category breakdown, and the
    (mac_share, elementwise_share) split. Shares are None for an empty
    tally. O(E) for E entries plus one exact rational product per
    distinct key. An AnalysisError names the first entry, in tally
    order, whose op cannot be priced."""
    return _TallyPricing(tally).ace()


def bn_share(report: CostReport) -> float:
    """Fraction of the total bit-adder cost spent in normalization."""
    from .census import CAT_BATCHNORM
    if report.total_ace == 0:
        return 0.0
    return float(report.ace_by_category.get(CAT_BATCHNORM, Fraction(0))
                 / report.total_ace)


def energy_report(tally: OpTally) -> Tuple[float, List[Tuple[str, str]]]:
    """Total energy in millijoules plus the (layer, op) pairs whose
    per-op energy was extrapolated, in tally order. O(E), summed entry by
    entry in tally order. An AnalysisError names the first entry whose
    energy cannot be priced."""
    return _TallyPricing(tally).energy()


def branch_factor(g: Graph, order: Optional[List[LayerNode]] = None) -> int:
    """Maximum number of producer-to-consumer edges crossing any
    topological cut: the widest set of simultaneously-live paths, at
    least 1. Each edge adds +1 at its producer's cut and -1 at its
    consumer's straight into a difference array, and a running sum
    sweeps the cuts: O(V + E), no edge list."""
    order = order or topological_order(g)
    # deltas[p] changes the live count on the cut after position p - 1.
    position = {node.id: p for p, node in enumerate(order, 1)}
    deltas = [0] * (len(order) + 1)
    for p, node in enumerate(order, 1):
        deltas[p] -= len(node.inputs)
        for ref in node.inputs:
            deltas[position[ref]] += 1
    return max(1, max(accumulate(deltas[1:-1]), default=0))


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


def _intensity(ops: int, fp: Footprint) -> float:
    data = fp.concurrent_branch_factor * (fp.weight_elems + fp.activation_elems)
    return ops / data if data else 0.0


def arithmetic_intensity(g: Graph, tally: OpTally,
                         shapes: Optional[Dict[str, TensorShape]] = None,
                         footprint: Optional[Footprint] = None) -> float:
    """Ops per concurrently-resident data element (see module docs)."""
    return _intensity(_TallyPricing(tally).ops,
                      footprint or data_footprint(g, shapes))


def analyze(g: Graph, order: Optional[List[LayerNode]] = None) -> CostReport:
    """Full pipeline: shapes, census, bit-adders, energy, intensity, over
    one topological order (``order`` if the caller already has it) and
    one pricing pass over the tally. A bit-adder failure is raised before
    an energy failure."""
    order = order or topological_order(g)
    shapes = infer_shapes(g, None, order)
    pricing = _TallyPricing(census_graph(g, shapes, order))
    total, by_category, shares = pricing.ace()
    energy_mj, flagged = pricing.energy()
    footprint = data_footprint(g, shapes, order)
    return CostReport(
        name=g.name,
        total_ace=total,
        ace_by_category=by_category,
        mac_share=shares[0] if shares else None,
        elementwise_share=shares[1] if shares else None,
        energy_mj=energy_mj,
        arithmetic_intensity=_intensity(pricing.ops, footprint),
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
