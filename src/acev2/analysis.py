"""Cost reports: bit-adder totals, energy, arithmetic intensity.

Bit-adder totals accumulate as exact rationals so reports are
bit-reproducible; energy accumulates in floating point because the
underlying table is measured/extrapolated anyway. ``analyze`` computes
each distinct layer once (``census.layer_walk``) and prices the walk's
census rows in one pass: it sums counts per pricing key, sums energy
entry by entry in walk order (a float sum depends on its order, and this
one is fixed), collects the extrapolated ops and counts the ops;
bit-adders are then priced once per key. A node repeating a layer costs
a lookup, so analysis cost scales with the distinct layers, plus a small
per-node term.

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
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import cost
from .census import Layer, MAC_CATEGORIES, TallyEntry, layer_walk
from .errors import AceV2Error, AnalysisError
from .ir import Graph, LayerNode

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
        row = cost.op_row(entry.op_class)
        second = entry.shift_range if row.ranged else entry.format_b
        unit = getattr(cost, row.ace)(entry.format_a, second)
    except AceV2Error as exc:
        raise AnalysisError(entry.layer_id, str(exc)) from exc
    return unit.bitadders * entry.count


class _TallyPricing:
    """One pass over a ``layer_walk``'s census rows, in walk order, that
    ``analyze`` reads for bit-adders, energy and ops.

    The rows come as (layer id, rows) pairs, each row a tally entry less
    its layer id; the keys of a rows object that several nodes share are
    resolved once. Counts are summed per distinct
    (category, op class, formats, shift range) key; each new key's energy
    is looked up once per distinct (op class, formats, shift range), and
    energy is summed entry by entry so the float total keeps its bits.
    Ops count a MAC as two. Bit-adders are priced exactly, once per key,
    only when asked for. An energy failure is held, not raised, so the
    bit-adder failure, if any, is seen first."""

    def __init__(self, layers: Iterable[Tuple[str, tuple]]):
        # key -> [first entry, summed count, pJ per op, extrapolated]
        groups: Dict[tuple, list] = {}
        units: Dict[tuple, tuple] = {}  # energy key -> (pJ, extrapolated)
        # id(rows) -> (rows, held so that no other object takes its id,
        # and a (group, count, pJ) per row)
        resolved: Dict[int, tuple] = {}
        self.energy_error = None  # (layer id, error) of the first failure
        total_pj = 0.0
        flagged: List[Tuple[str, str]] = []
        for layer_id, rows in layers:
            hit = resolved.get(id(rows))
            if hit is None:
                hit = resolved[id(rows)] = rows, []
                for row in rows:
                    op_class, count, format_a, format_b, category, \
                        shift_range = row
                    key = (category, op_class, format_a, format_b,
                           shift_range)
                    group = groups.get(key)
                    if group is None:
                        entry = TallyEntry(layer_id, *row)
                        group = groups[key] = [
                            entry, 0, *self._energy_unit(units, entry)]
                    hit[1].append((group, count, group[2] * count))
            for group, count, pj in hit[1]:
                group[1] += count
                total_pj += pj
                if group[3]:
                    flagged.append((layer_id, group[0].op_class))
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


def bn_share(report: CostReport) -> float:
    """Fraction of the total bit-adder cost spent in normalization."""
    from .census import CAT_BATCHNORM
    if report.total_ace == 0:
        return 0.0
    return float(report.ace_by_category.get(CAT_BATCHNORM, Fraction(0))
                 / report.total_ace)


def _branch_factor(order: Iterable[LayerNode]) -> int:
    """The branch factor of a graph's nodes in topological ``order``, in
    one pass. Each edge adds +1 at its producer's cut and -1 at its
    consumer's straight into a difference array, and a running sum
    sweeps the cuts: O(V + E), no edge list."""
    # deltas[p] changes the live count on the cut after position p - 1.
    position: Dict[str, int] = {}
    deltas = [0]
    for p, node in enumerate(order, 1):
        position[node.id] = p
        deltas.append(-len(node.inputs))
        for ref in node.inputs:  # placed earlier: the order is topological
            deltas[position[ref]] += 1
    return max(1, max(accumulate(deltas[1:-1]), default=0))


def _footprint(walk: List[Tuple[LayerNode, Layer]]) -> Footprint:
    """The footprint of a graph from its ``layer_walk``: the weights and
    activations summed over the nodes, and the branch factor of the
    walk's order."""
    return Footprint(sum(layer.weights for _, layer in walk),
                     sum(layer.activations for _, layer in walk),
                     _branch_factor(map(itemgetter(0), walk)))


def _intensity(ops: int, fp: Footprint) -> float:
    data = fp.concurrent_branch_factor * (fp.weight_elems + fp.activation_elems)
    return ops / data if data else 0.0


def analyze(g: Graph) -> CostReport:
    """Full pipeline: shapes, census, bit-adders, energy, intensity, over
    one ``layer_walk``, which sorts ``g`` once and computes each distinct
    layer once, and one pricing pass over its rows. Errors come in stage
    order: a cycle, then the first node in walk order that breaks a node
    rule or whose shape fails, then a bit-adder failure, then an energy
    failure."""
    walk = layer_walk(g)
    pricing = _TallyPricing((node.id, layer.rows) for node, layer in walk)
    total, by_category, shares = pricing.ace()
    energy_mj, flagged = pricing.energy()
    footprint = _footprint(walk)
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
