"""Cost reports: bit-adder totals, energy, arithmetic intensity.

Bit-adder totals accumulate as exact rationals so reports are
bit-reproducible; energy accumulates in floating point because the
underlying table is measured/extrapolated anyway. ``analyze`` computes
each distinct layer once in one walk (``census.layer_walk``) and prices
the walk in three steps (``_price``): it resolves each distinct layer's
rows once into groups keyed by (category, op class, formats, shift
range); it prices each group's bit-adders per op, then its energy once
per distinct (op class, formats, shift range); and it walks the nodes
once to sum the counts, the energy row by row in walk order (a float sum
depends on its order, and this one is fixed) and the extrapolated ops.
The bit-adders of each category sum as integers over one common
denominator, so each category, the total and the MAC share are one
division each. A node repeating a layer costs a lookup, so analysis
cost scales with the distinct layers, plus a small per-node term. The
walk checks no node rule: every node kept them when it was made.

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

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import cost
from .census import (CAT_BATCHNORM, Layer, MAC_CATEGORIES, TallyEntry,
                     layer_walk)
from .errors import AceV2Error, AnalysisError
from .ir import Graph, LayerNode

PJ_PER_MJ = 1e9

_inputs = attrgetter("inputs")  # per-node field reads, run in C
_weights, _activations = attrgetter("weights"), attrgetter("activations")


class Footprint(NamedTuple):
    weight_elems: int
    activation_elems: int
    concurrent_branch_factor: int


class CostReport(NamedTuple):
    """Everything the analyzer knows about one graph."""

    name: str
    total_ace: Fraction
    ace_by_category: Dict[str, Fraction]
    mac_share: Optional[float]
    elementwise_share: Optional[float]
    energy_mj: float
    arithmetic_intensity: float
    footprint: Footprint
    extrapolated_energy_ops: List[Tuple[str, str]]


def _unit_ace(entry: TallyEntry) -> Fraction:
    """Exact bit-adder cost of one op of a tally entry."""
    try:
        row = cost.op_row(entry.op_class)
        second = entry.shift_range if row.ranged else entry.format_b
        return getattr(cost, row.ace)(entry.format_a, second).bitadders
    except AceV2Error as exc:
        raise AnalysisError(entry.layer_id, str(exc)) from exc


def entry_ace(entry: TallyEntry) -> Fraction:
    """Exact bit-adder cost of one tally entry."""
    return _unit_ace(entry) * entry.count


def _price(walk: List[Tuple[LayerNode, Layer]]
           ) -> Tuple[Dict[str, Fraction], Fraction, Optional[float], float,
                      List[Tuple[str, str]], int]:
    """The bit-adders by category and in total, the MAC share of them,
    the energy in mJ, the extrapolated (layer id, op class) pairs and the
    op count (a MAC is two) of a ``layer_walk``, priced in the module's
    three steps. The walk keeps every layer alive, so no ``id(layer)`` is
    reused."""
    # 1. Resolve each distinct layer's rows into groups; record the walk.
    firsts: List[TallyEntry] = []  # each group's first entry
    groups: Dict[tuple, int] = {}  # a row less its count -> its group
    resolved: Dict[int, list] = {}  # id(layer) -> (group, count) per row
    order = []  # each node's resolved rows, in walk order
    for node, layer in walk:
        rows = resolved.get(id(layer))
        if rows is None:
            rows = resolved[id(layer)] = []
            for row in layer.rows:
                group = groups.setdefault(row[:1] + row[2:], len(firsts))
                if group == len(firsts):
                    firsts.append(TallyEntry(node.id, *row))
                rows.append((group, row[1]))
        order.append(rows)

    # 2. Bit-adders per op for every group, then energy per energy key.
    ace = [_unit_ace(first) for first in firsts]
    energies: Dict[tuple, cost.EnergyCost] = {}
    units = []  # each group's energy per op
    for first in firsts:
        key = (first.op_class, first.format_a, first.format_b,
               first.shift_range)
        if key not in energies:
            try:
                energies[key] = cost.energy_of_op(*key[:3],
                                                  shift_range=key[3])
            except AceV2Error as exc:
                raise AnalysisError(first.layer_id, str(exc)) from exc
        units.append(energies[key])
    pjs = [unit.picojoules for unit in units]
    flags = [unit.extrapolated for unit in units]

    # 3. Sum the walk.
    counts = [0] * len(firsts)
    total_pj = 0.0
    flagged: List[Tuple[str, str]] = []
    for (node, _), rows in zip(walk, order):
        for group, count in rows:
            counts[group] += count
            total_pj += pjs[group] * count
            if flags[group]:
                flagged.append((node.id, firsts[group].op_class))
    # The bit-adders as integers over the units' common denominator: one
    # Fraction per category and one for the total, not two per group.
    denominator = math.lcm(*(unit.denominator for unit in ace))
    sums: Dict[str, int] = {}
    ops = 0
    for first, unit, count in zip(firsts, ace, counts):
        sums[first.category] = sums.get(first.category, 0) + (
            unit.numerator * (denominator // unit.denominator) * count)
        ops += count * (2 if first.op_class == cost.MAC else 1)
    total = sum(sums.values())
    mac = sum(v for k, v in sums.items() if k in MAC_CATEGORIES)
    return ({k: Fraction(v, denominator) for k, v in sums.items()},
            Fraction(total, denominator), mac / total if total else None,
            total_pj / PJ_PER_MJ, flagged, ops)


def bn_share(report: CostReport) -> float:
    """Fraction of the total bit-adder cost spent in normalization."""
    if report.total_ace == 0:
        return 0.0
    return float(report.ace_by_category.get(CAT_BATCHNORM, Fraction(0))
                 / report.total_ace)


def _branch_factor(order: Sequence[LayerNode]) -> int:
    """The branch factor of a graph's nodes in topological ``order``. The
    live count on the cut after a node rises by the node's out-degree
    and falls by its in-degree, so a running sum of those deltas sweeps
    the cuts: O(V + E), the out-degrees counted in one ``Counter`` over
    every input, with no Python statement per edge. The cut after the
    last node reads 0, every edge counted at both ends."""
    fanout = Counter(chain.from_iterable(map(_inputs, order)))
    deltas = [fanout[node.id] - len(node.inputs) for node in order]
    return max(1, max(accumulate(deltas), default=0))


def _footprint(walk: List[Tuple[LayerNode, Layer]]) -> Footprint:
    """The footprint of a graph from its ``layer_walk``: the weights and
    activations summed over the nodes, and the branch factor of the
    walk's order."""
    layers = [layer for _, layer in walk]
    return Footprint(sum(map(_weights, layers)),
                     sum(map(_activations, layers)),
                     _branch_factor([node for node, _ in walk]))


def _intensity(ops: int, fp: Footprint) -> float:
    data = fp.concurrent_branch_factor * (fp.weight_elems + fp.activation_elems)
    return ops / data if data else 0.0


def graph_label(name: str) -> str:
    """How an ``analysis error:`` line names a graph: an unnamed one is
    called ``graph``."""
    return name or "graph"


def analyze(g: Graph) -> CostReport:
    """Full pipeline: shapes, census, bit-adders, energy, intensity, over
    one ``layer_walk``, which computes each distinct layer once, and one
    pricing pass over its rows. Errors come in stage order: a cycle,
    then the first node in walk order that breaks a node rule or whose
    shape fails, then a bit-adder failure, then an energy failure, then
    an energy, then a total bit-adder count, past the float range; these
    two name the graph."""
    walk = layer_walk(g)
    where = graph_label(g.name)
    try:  # a count past the float range raises in the energy sum
        by_category, total, mac_share, energy_mj, flagged, ops = _price(walk)
        if energy_mj == math.inf:  # a row's energy past it reads inf
            raise OverflowError
    except OverflowError:
        raise AnalysisError(where, "energy exceeds the float range") from None
    try:  # the report carries the total as a float too
        float(total)
    except OverflowError:
        raise AnalysisError(where, "total bit-adders exceed the float "
                            "range") from None
    footprint = _footprint(walk)
    return CostReport(
        name=g.name,
        total_ace=total,
        ace_by_category=by_category,
        mac_share=mac_share,
        elementwise_share=None if mac_share is None else 1.0 - mac_share,
        energy_mj=energy_mj,
        arithmetic_intensity=_intensity(ops, footprint),
        footprint=footprint,
        extrapolated_energy_ops=flagged,
    )


class ComparisonRow(NamedTuple):
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
    for name, report in keyed:
        acc = accuracies.get(name)
        # A row is never cheaper than itself, so it cannot dominate itself.
        dominated = any(
            other.total_ace < report.total_ace
            and (acc is None or accuracies.get(other_name) is None
                 or accuracies[other_name] >= acc)
            for other_name, other in keyed)
        rows.append(ComparisonRow(
            name=name,
            total_ace=report.total_ace,
            energy_mj=report.energy_mj,
            arithmetic_intensity=report.arithmetic_intensity,
            accuracy=acc,
            pareto=not dominated,
        ))
    return rows
