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

from dataclasses import dataclass

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import tile_node_for
from repro.circuits.circuit import Circuit
from repro.circuits.comm_graph import two_colouring
from repro.circuits.dag import GateDAG
from repro.core.cut_types import CutAssignment, CutType, with_cnot_edges
from repro.core.mapping import InitialMapping
from repro.core.metrics import ExecutionScheme, para_finding
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import SchedulingError
from repro.profiling import EngineCounters
from repro.routing.fast_router import DEFAULT_CONGESTION_WEIGHT, routing_for
from repro.routing.paths import CapacityUsage

#: Cycles spent remapping cut types between bipartite groups (Theorem 3 uses 3).
CUT_REMAP_CYCLES = 3


@dataclass(frozen=True)
class BipartiteGroup:
    """A maximal run of consecutive layers whose communication sub-graph is bipartite."""

    layer_indices: tuple[int, ...]
    cut_types: CutAssignment


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

    operands = dag.operand_pairs
    for layer_index, layer in enumerate(scheme.layers):
        pairs = [operands[node] for node in layer]
        trial = with_cnot_edges(adjacency, pairs)
        trial_colors = two_colouring(trial, trial)
        if trial_colors is None:
            close_group()
            current_layers = []
            adjacency = with_cnot_edges({}, pairs)
            colors = two_colouring(adjacency, adjacency) or {}
        else:
            adjacency, colors = trial, trial_colors
        current_layers.append(layer_index)
    close_group()
    return groups


class _LayerRouter:
    """Routes one execution-scheme layer per clock cycle, spilling on congestion."""

    def __init__(
        self,
        dag: GateDAG,
        mapping: InitialMapping,
        counters: EngineCounters | None,
        congestion_weight: float = DEFAULT_CONGESTION_WEIGHT,
    ):
        self._operands = dag.operand_pairs
        self._mapping = mapping
        self._router = routing_for(mapping.chip)
        self.counters = counters if counters is not None else EngineCounters()
        self._congestion_weight = congestion_weight

    def route_layer(
        self, nodes: tuple[int, ...], start_cycle: int
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
        operands, placement, counters = self._operands, self._mapping.placement, self.counters
        while remaining:
            usage = CapacityUsage()
            still_waiting: list[int] = []
            for node in remaining:
                control, target = operands[node]
                counters.route_calls += 1
                path = self._router.find(
                    usage,
                    tile_node_for(placement.slot_of(control)),
                    tile_node_for(placement.slot_of(target)),
                    self._congestion_weight,
                    counters,
                )
                if path is None:
                    still_waiting.append(node)
                    continue
                counters.gates_scheduled += 1
                usage.add_path(path)
                operations.append(
                    ScheduledOperation(
                        kind=OperationKind.CNOT_BRAID,
                        start_cycle=start_cycle + cycles_used,
                        duration=1,
                        qubits=(control, target),
                        gate_node=node,
                        path=path,
                    )
                )
            if len(still_waiting) == len(remaining):
                unroutable = ", ".join(
                    f"CX(q{operands[node][0]}, q{operands[node][1]}) [node {node}]"
                    for node in still_waiting
                )
                raise SchedulingError(
                    f"layer routing made no progress at cycle {start_cycle + cycles_used}: "
                    f"unroutable gates {unroutable} on chip {self._mapping.chip.describe()}"
                )
            remaining = still_waiting
            cycles_used += 1
        return operations, cycles_used


def schedule_resu_double_defect(
    circuit: Circuit,
    mapping: InitialMapping,
    method: str = "ecmas-resu-dd",
    dag: GateDAG | None = None,
    scheme: ExecutionScheme | None = None,
    counters: EngineCounters | None = None,
) -> EncodedCircuit:
    """Ecmas-ReSu for the double defect model (Algorithm 2).

    ``dag`` and ``scheme`` are the pipeline's DAG and Para-Finding scheme;
    standalone callers leave them out and pay for one derivation here.
    ``counters``, when given, accumulates the routing work.
    """
    dag = dag if dag is not None else circuit.dag()
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

    scheme = scheme if scheme is not None else para_finding(dag)
    groups = split_into_bipartite_groups(dag, scheme, circuit.num_qubits)
    router = _LayerRouter(dag, mapping, counters)
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
            layer_ops, used = router.route_layer(scheme.layers[layer_index], cycle)
            operations.extend(layer_ops)
            cycle += used
        previous_cuts = group.cut_types

    router.counters.cycles_simulated = cycle
    result.operations = operations
    result.initial_cut_types = dict(initial_cuts)
    return result


def schedule_resu_lattice_surgery(
    circuit: Circuit,
    mapping: InitialMapping,
    method: str = "ecmas-resu-ls",
    dag: GateDAG | None = None,
    scheme: ExecutionScheme | None = None,
    counters: EngineCounters | None = None,
) -> EncodedCircuit:
    """Ecmas-ReSu for the lattice surgery model: one cycle per Para-Finding layer.

    ``dag``, ``scheme`` and ``counters`` as for
    :func:`schedule_resu_double_defect`.
    """
    dag = dag if dag is not None else circuit.dag()
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
    scheme = scheme if scheme is not None else para_finding(dag)
    router = _LayerRouter(dag, mapping, counters)
    operations: list[ScheduledOperation] = []
    cycle = 0
    for layer in scheme.layers:
        layer_ops, used = router.route_layer(layer, cycle)
        operations.extend(layer_ops)
        cycle += used
    router.counters.cycles_simulated = cycle
    result.operations = operations
    return result
