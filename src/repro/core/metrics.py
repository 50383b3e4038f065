"""Circuit Parallelism Degree (Para-Finding) and Chip Communication Capacity.

*Circuit Parallelism Degree* (PM, Definition 1) is the smallest possible
maximum layer width over all minimum-length layerings of the CNOT DAG.
Computing it exactly is NP-complete (machine-minimisation scheduling), so the
paper's *Para-Finding* heuristic is used: gates are assigned to layers in
order of increasing slack (``High - Low``), each to the legal layer currently
holding the fewest gates, and the bounds of their neighbours are tightened
after every assignment.  The result is both the estimate ``gPM`` and a
concrete execution scheme (a list of layers) that Ecmas-ReSu consumes.

*Chip Communication Capacity* (Definition 2 / Theorem 2) is
``⌊(b-1)/2⌋ + 3`` for a chip of bandwidth ``b``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from repro.chip.chip import Chip
from repro.circuits.circuit import Circuit
from repro.circuits.dag import GateDAG
from repro.errors import SchedulingError


@dataclass(frozen=True)
class ExecutionScheme:
    """A layering of the CNOT DAG produced by Para-Finding.

    Attributes
    ----------
    layers:
        ``layers[i]`` holds the DAG node ids scheduled in layer ``i`` (0-based).
        Every layer's gates are mutually independent and all dependencies point
        from earlier to later layers.
    parallelism:
        The estimated circuit parallelism degree ``gPM`` — the width of the
        widest layer.
    """

    layers: tuple[tuple[int, ...], ...]
    parallelism: int

    @property
    def depth(self) -> int:
        """Number of layers (equals the DAG critical-path length)."""
        return len(self.layers)

    @cached_property
    def _layer_by_node(self) -> dict[int, int]:
        # Built once per scheme: per-node lookups over a linear scan were
        # O(layers × width) each, quadratic in aggregate on wide circuits.
        return {node: index for index, layer in enumerate(self.layers) for node in layer}

    def layer_of(self, node: int) -> int:
        """Layer index (0-based) of a DAG node (O(1) after the first lookup)."""
        try:
            return self._layer_by_node[node]
        except KeyError:
            raise SchedulingError(f"gate node {node} missing from execution scheme") from None


def para_finding(dag: GateDAG) -> ExecutionScheme:
    """The paper's Para-Finding heuristic (Section IV-A1).

    Returns an execution scheme whose number of layers equals the DAG depth
    and whose maximum layer width is the estimate ``gPM``.
    """
    num_layers = dag.depth()
    if len(dag) == 0:
        return ExecutionScheme(layers=(), parallelism=0)
    low = [dag.asap_level(node) for node in range(len(dag))]
    high = [dag.alap_level(node) for node in range(len(dag))]
    layer_load = [0] * (num_layers + 1)  # 1-based layers
    assignment: dict[int, int] = {}
    # Priority queue keyed by (slack, node); stale entries are skipped lazily.
    heap: list[tuple[int, int]] = [(high[n] - low[n], n) for n in range(len(dag))]
    heapq.heapify(heap)

    def raise_low(start: int, value: int) -> None:
        """Propagate ``low[start] >= value`` transitively through successors."""
        stack = [(start, value)]
        while stack:
            node, bound = stack.pop()
            if low[node] >= bound:
                continue
            low[node] = bound
            heapq.heappush(heap, (high[node] - low[node], node))
            for child in dag.successors(node):
                if child not in assignment:
                    stack.append((child, bound + 1))

    def lower_high(start: int, value: int) -> None:
        """Propagate ``high[start] <= value`` transitively through predecessors."""
        stack = [(start, value)]
        while stack:
            node, bound = stack.pop()
            if high[node] <= bound:
                continue
            high[node] = bound
            heapq.heappush(heap, (high[node] - low[node], node))
            for parent in dag.predecessors(node):
                if parent not in assignment:
                    stack.append((parent, bound - 1))

    while heap:
        slack, node = heapq.heappop(heap)
        if node in assignment:
            continue
        if slack != high[node] - low[node]:
            heapq.heappush(heap, (high[node] - low[node], node))
            continue
        if low[node] > high[node]:  # pragma: no cover - propagation keeps bounds consistent
            raise SchedulingError(f"Para-Finding bounds collapsed for node {node}")
        candidates = range(low[node], high[node] + 1)
        layer = min(candidates, key=lambda idx: (layer_load[idx], idx))
        assignment[node] = layer
        layer_load[layer] += 1
        # Tighten the bounds of every transitively constrained neighbour, so
        # that the invariant low[v] >= low[u] + 1 and high[u] <= high[v] - 1
        # holds along every edge u -> v and no interval ever becomes empty.
        for child in dag.successors(node):
            if child not in assignment:
                raise_low(child, layer + 1)
        for parent in dag.predecessors(node):
            if parent not in assignment:
                lower_high(parent, layer - 1)

    layers: list[list[int]] = [[] for _ in range(num_layers)]
    for node, layer in assignment.items():
        layers[layer - 1].append(node)
    for index, layer_nodes in enumerate(layers):
        layer_nodes.sort()
        if not layer_nodes:
            raise SchedulingError(f"Para-Finding produced an empty layer {index + 1}")  # pragma: no cover
    parallelism = max(len(layer_nodes) for layer_nodes in layers)
    return ExecutionScheme(layers=tuple(tuple(l) for l in layers), parallelism=parallelism)


def circuit_parallelism_degree(circuit: Circuit) -> int:
    """The estimate ``gPM`` of the circuit parallelism degree."""
    return para_finding(circuit.dag()).parallelism


def asap_parallelism(circuit: Circuit) -> int:
    """Maximum ASAP-layer width — an upper-bound baseline for ``gPM``.

    Para-Finding should never report a larger value than this greedy layering
    (it balances layers), which the property tests assert.
    """
    return max((len(layer) for layer in circuit.dag().asap_layers()), default=0)


def chip_communication_capacity(chip: Chip) -> int:
    """Chip communication capacity ``⌊(b-1)/2⌋ + 3`` (Theorem 2).

    Delegates to :attr:`Chip.communication_capacity`, which reports 0 for a
    defective chip whose corridor grid is fully disabled.
    """
    return chip.communication_capacity


def has_sufficient_resources(circuit: Circuit, chip: Chip) -> bool:
    """True when the chip capacity covers the circuit parallelism degree.

    This is the dispatch condition between Algorithm 1 (limited resources)
    and Algorithm 2 / Ecmas-ReSu (sufficient resources).
    """
    return chip_communication_capacity(chip) >= circuit_parallelism_degree(circuit)
