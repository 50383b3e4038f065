"""Algorithm 2 — Ecmas-ReSu, scheduling for sufficient resources.

When the chip communication capacity ``⌊(b-1)/2⌋ + 3`` covers the circuit
parallelism degree ``gPM``, the execution scheme produced by Para-Finding can
be executed layer by layer: every layer fits in one clock cycle by Theorem 2.

For the double defect model the remaining cost is cut-type management.
Algorithm 2 walks the execution scheme, accumulating layers into the largest
prefix whose communication sub-graph stays bipartite (Lemma 1 guarantees at
least two layers fit); the bipartition of each group becomes its cut-type
mapping.  The first group's mapping is the initialisation; each subsequent
group is preceded by a three-cycle cut-type remap.  This yields the paper's
5/2-approximation guarantee (Theorem 3).

For lattice surgery no cut types exist, so the schedule is simply one cycle
per layer — the optimal ``α`` cycles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import tile_node_for
from repro.core.engines import routing_for
from repro.circuits.circuit import Circuit
from repro.circuits.dag import GateDAG
from repro.core.cut_types import CutAssignment, CutType
from repro.core.mapping import InitialMapping
from repro.core.metrics import ExecutionScheme, para_finding
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import SchedulingError
from repro.routing.paths import CapacityUsage

#: Cycles spent remapping cut types between bipartite groups (Theorem 3 uses 3).
CUT_REMAP_CYCLES = 3


@dataclass(frozen=True)
class BipartiteGroup:
    """A maximal run of consecutive layers whose communication sub-graph is bipartite."""

    layer_indices: tuple[int, ...]
    cut_types: CutAssignment


def _bipartition_colors(adjacency: dict[int, set[int]], num_qubits: int) -> dict[int, int] | None:
    colors: dict[int, int] = {}
    for start in adjacency:
        if start in colors:
            continue
        colors[start] = 0
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in adjacency.get(node, ()):
                if neighbor not in colors:
                    colors[neighbor] = 1 - colors[node]
                    queue.append(neighbor)
                elif colors[neighbor] == colors[node]:
                    return None
    return colors


def split_into_bipartite_groups(
    dag: GateDAG, scheme: ExecutionScheme, num_qubits: int
) -> list[BipartiteGroup]:
    """Greedily group consecutive layers while their union stays bipartite.

    By Lemma 1 every group contains at least two layers (except possibly the
    final one), which underpins the 5/2-approximation bound.

    A qubit with no gates in a group keeps the cut type it had in the
    previous group (defaulting to X in the first).  Assigning such qubits an
    arbitrary colour would list them in the inter-group remap diff and emit
    spurious three-cycle remap blocks for tiles that never communicate.
    """
    groups: list[BipartiteGroup] = []
    current_layers: list[int] = []
    adjacency: dict[int, set[int]] = {}
    colors: dict[int, int] = {}
    previous_assignment: CutAssignment | None = None

    def close_group() -> None:
        nonlocal previous_assignment
        if not current_layers:
            return
        assignment: CutAssignment = {}
        for q in range(num_qubits):
            if q in colors:
                assignment[q] = CutType.X if colors[q] == 0 else CutType.Z
            elif previous_assignment is not None:
                assignment[q] = previous_assignment[q]  # untouched: carry forward
            else:
                assignment[q] = CutType.X
        previous_assignment = assignment
        groups.append(BipartiteGroup(tuple(current_layers), assignment))

    for layer_index, layer in enumerate(scheme.layers):
        trial = {q: set(neighbors) for q, neighbors in adjacency.items()}
        for node in layer:
            gate = dag.gate(node)
            trial.setdefault(gate.control, set()).add(gate.target)
            trial.setdefault(gate.target, set()).add(gate.control)
        trial_colors = _bipartition_colors(trial, num_qubits)
        if trial_colors is None:
            close_group()
            current_layers = []
            adjacency = {}
            for node in layer:
                gate = dag.gate(node)
                adjacency.setdefault(gate.control, set()).add(gate.target)
                adjacency.setdefault(gate.target, set()).add(gate.control)
            colors = _bipartition_colors(adjacency, num_qubits) or {}
            current_layers.append(layer_index)
        else:
            adjacency = trial
            colors = trial_colors
            current_layers.append(layer_index)
    close_group()
    return groups


class _LayerRouter:
    """Routes one execution-scheme layer per clock cycle, spilling on congestion."""

    def __init__(self, dag: GateDAG, mapping: InitialMapping, congestion_weight: float = 0.25):
        self._dag = dag
        self._mapping = mapping
        _, self._router = routing_for(mapping.chip)
        self._congestion_weight = congestion_weight

    def _describe_gates(self, nodes: list[int]) -> str:
        """Human-readable gate list for diagnostics: ``CX(q0, q3) [node 7], …``."""
        parts = []
        for node in nodes:
            gate = self._dag.gate(node)
            parts.append(f"CX(q{gate.control}, q{gate.target}) [node {node}]")
        return ", ".join(parts)

    def route_layer(
        self, nodes: tuple[int, ...], start_cycle: int, kind: OperationKind
    ) -> tuple[list[ScheduledOperation], int]:
        """Route every gate of a layer starting at ``start_cycle``.

        Returns the operations and the number of cycles consumed (1 when the
        whole layer fits, more when the greedy router needs spill cycles —
        which Theorem 2 says should not happen on a sufficient chip, but the
        router is heuristic so the fallback keeps the schedule valid).  A
        cycle that routes nothing means the remaining gates can never be
        routed (each cycle starts from empty usage), so the no-progress error
        names the unroutable gates.
        """
        remaining = list(nodes)
        operations: list[ScheduledOperation] = []
        cycles_used = 0
        while remaining:
            usage = CapacityUsage()
            still_waiting: list[int] = []
            for node in remaining:
                gate = self._dag.gate(node)
                source = tile_node_for(self._mapping.placement.slot_of(gate.control))
                target = tile_node_for(self._mapping.placement.slot_of(gate.target))
                path = self._router.find(usage, source, target, self._congestion_weight)
                if path is None:
                    still_waiting.append(node)
                    continue
                usage.add_path(path)
                operations.append(
                    ScheduledOperation(
                        kind=kind,
                        start_cycle=start_cycle + cycles_used,
                        duration=1,
                        qubits=(gate.control, gate.target),
                        gate_node=node,
                        path=path,
                    )
                )
            if len(still_waiting) == len(remaining):
                raise SchedulingError(
                    f"layer routing made no progress at cycle {start_cycle + cycles_used}: "
                    f"unroutable gates {self._describe_gates(still_waiting)} "
                    f"on chip {self._mapping.chip.describe()}"
                )
            remaining = still_waiting
            cycles_used += 1
        return operations, cycles_used


def schedule_resu_double_defect(
    circuit: Circuit, mapping: InitialMapping, method: str = "ecmas-resu-dd"
) -> EncodedCircuit:
    """Ecmas-ReSu for the double defect model (Algorithm 2)."""
    dag = circuit.dag()
    result = EncodedCircuit(
        model=SurfaceCodeModel.DOUBLE_DEFECT,
        chip=mapping.chip,
        placement=mapping.placement,
        initial_cut_types=None,
        method=method,
    )
    if len(dag) == 0:
        # Consistent with the non-empty path: a full assignment over every
        # qubit (the mapping's initialisation, or all-X when none was given).
        result.initial_cut_types = dict(
            mapping.cut_types or {q: CutType.X for q in range(circuit.num_qubits)}
        )
        return result

    scheme = para_finding(dag)
    groups = split_into_bipartite_groups(dag, scheme, circuit.num_qubits)
    router = _LayerRouter(dag, mapping)
    operations: list[ScheduledOperation] = []
    cycle = 0
    previous_cuts: CutAssignment | None = None
    initial_cuts: CutAssignment = groups[0].cut_types if groups else dict(mapping.cut_types or {})

    for group in groups:
        if previous_cuts is not None:
            changed = tuple(
                sorted(q for q in group.cut_types if group.cut_types[q] != previous_cuts[q])
            )
            if changed:
                operations.append(
                    ScheduledOperation(
                        kind=OperationKind.CUT_REMAP,
                        start_cycle=cycle,
                        duration=CUT_REMAP_CYCLES,
                        qubits=changed,
                    )
                )
                cycle += CUT_REMAP_CYCLES
        for layer_index in group.layer_indices:
            layer_ops, used = router.route_layer(
                scheme.layers[layer_index], cycle, OperationKind.CNOT_BRAID
            )
            operations.extend(layer_ops)
            cycle += used
        previous_cuts = group.cut_types

    result.operations = operations
    result.initial_cut_types = dict(initial_cuts)
    return result


def schedule_resu_lattice_surgery(
    circuit: Circuit, mapping: InitialMapping, method: str = "ecmas-resu-ls"
) -> EncodedCircuit:
    """Ecmas-ReSu for the lattice surgery model: one cycle per Para-Finding layer."""
    dag = circuit.dag()
    result = EncodedCircuit(
        model=SurfaceCodeModel.LATTICE_SURGERY,
        chip=mapping.chip,
        placement=mapping.placement,
        initial_cut_types=None,
        method=method,
    )
    if len(dag) == 0:
        # Lattice surgery has no cut types: ``initial_cut_types`` is ``None``
        # on the empty path exactly as on the non-empty one.
        return result
    scheme = para_finding(dag)
    router = _LayerRouter(dag, mapping)
    operations: list[ScheduledOperation] = []
    cycle = 0
    for layer in scheme.layers:
        layer_ops, used = router.route_layer(layer, cycle, OperationKind.CNOT_BRAID)
        operations.extend(layer_ops)
        cycle += used
    result.operations = operations
    return result
