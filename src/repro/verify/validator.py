"""Encoded-circuit validator.

Replays an :class:`~repro.core.schedule.EncodedCircuit` against the source
circuit and the chip, checking every constraint from Section III of the
paper:

1. **Completeness / equivalence** — every CNOT of the logical circuit is
   scheduled exactly once, and the scheduling order respects the dependency
   DAG (a gate starts strictly after all of its predecessors have finished).
2. **Tile exclusivity** — a logical tile takes part in at most one operation
   (CNOT, cut modification, remap) in any clock cycle.
3. **Channel capacity** — in every clock cycle, the paths of the operations
   active in that cycle never reserve more lanes on a corridor edge than its
   bandwidth (with bandwidth 1 this is the non-intersection constraint).
4. **Cut-type legality (double defect)** — one-cycle braids only occur between
   tiles whose cut types differ at that moment, given the recorded initial
   assignment and the scheduled modifications / remaps.
5. **Path sanity** — every routed path starts and ends at the tiles hosting
   the operands and only traverses corridor junctions in between.
6. **Defect avoidance** — on a defective chip, no operation occupies a dead
   tile and no path crosses a disabled corridor segment.

Every scheduler and baseline in the repository funnels its output through
this validator in the test suite, which is the main correctness argument of
the reproduction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import RoutingGraph, edge_key, tile_node_for
from repro.circuits.circuit import Circuit
from repro.core.cut_types import CutType
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import ValidationError


@dataclass
class ValidationReport:
    """Outcome of validating an encoded circuit."""

    valid: bool
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    num_operations: int = 0
    num_cycles: int = 0

    def raise_if_invalid(self) -> None:
        """Raise :class:`ValidationError` when any error was recorded."""
        if not self.valid:
            raise ValidationError("; ".join(self.errors[:5]))


def validate_encoded_circuit(
    circuit: Circuit, encoded: EncodedCircuit, strict_cut_types: bool = True
) -> ValidationReport:
    """Validate ``encoded`` against its source ``circuit``; see module docstring."""
    report = ValidationReport(valid=True, num_operations=len(encoded.operations), num_cycles=encoded.num_cycles)

    def error(message: str) -> None:
        report.valid = False
        report.errors.append(message)

    dag = circuit.dag()
    _check_completeness(dag, encoded, error)
    _check_dependencies(dag, encoded, error)
    _check_tile_exclusivity(encoded, error)
    _check_paths_and_capacity(encoded, error)
    _check_defects(encoded, error)
    if encoded.model is SurfaceCodeModel.DOUBLE_DEFECT and strict_cut_types:
        _check_cut_types(encoded, error, report.warnings.append)
    return report


# --------------------------------------------------------------------- checks
def _cnot_ops(encoded: EncodedCircuit) -> list[ScheduledOperation]:
    return [
        op
        for op in encoded.operations
        if op.kind in (OperationKind.CNOT_BRAID, OperationKind.CNOT_SAME_CUT)
    ]


def _check_completeness(dag, encoded: EncodedCircuit, error) -> None:
    seen: dict[int, int] = defaultdict(int)
    for op in _cnot_ops(encoded):
        if op.gate_node is None or not 0 <= op.gate_node < len(dag):
            error(f"CNOT operation references unknown gate node {op.gate_node}")
            continue
        seen[op.gate_node] += 1
        gate = dag.gate(op.gate_node)
        if set(op.qubits) != {gate.control, gate.target}:
            error(
                f"gate node {op.gate_node} acts on qubits {op.qubits} "
                f"but the circuit gate acts on {(gate.control, gate.target)}"
            )
    for node in range(len(dag)):
        if seen[node] == 0:
            error(f"gate node {node} was never scheduled")
        elif seen[node] > 1:
            error(f"gate node {node} was scheduled {seen[node]} times")


def _check_dependencies(dag, encoded: EncodedCircuit, error) -> None:
    completion: dict[int, int] = {}
    start: dict[int, int] = {}
    for op in _cnot_ops(encoded):
        if op.gate_node is None:
            continue
        completion[op.gate_node] = op.end_cycle
        start[op.gate_node] = op.start_cycle
    for node in range(len(dag)):
        if node not in start:
            continue
        for parent in dag.predecessors(node):
            if parent not in completion:
                continue
            if start[node] < completion[parent]:
                error(
                    f"gate node {node} starts at cycle {start[node]} before its "
                    f"predecessor {parent} finishes at cycle {completion[parent]}"
                )


def _check_tile_exclusivity(encoded: EncodedCircuit, error) -> None:
    #: qubit -> list of (start, end, description)
    busy: dict[int, list[tuple[int, int, str]]] = defaultdict(list)
    for op in encoded.operations:
        label = f"{op.kind.value}@{op.start_cycle}"
        for qubit in op.qubits:
            busy[qubit].append((op.start_cycle, op.end_cycle, label))
    for qubit, intervals in busy.items():
        intervals.sort()
        for (s1, e1, l1), (s2, e2, l2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                error(f"qubit {qubit} is used by {l1} and {l2} in overlapping cycles")


def _check_paths_and_capacity(encoded: EncodedCircuit, error) -> None:
    graph = RoutingGraph(encoded.chip)
    placement = encoded.placement
    per_cycle_load: dict[int, dict] = defaultdict(lambda: defaultdict(int))
    per_cycle_node_load: dict[int, dict] = defaultdict(lambda: defaultdict(int))
    for op in encoded.operations:
        if op.path is None:
            continue
        endpoints = {op.path.source, op.path.target}
        expected = {tile_node_for(placement.slot_of(q)) for q in op.qubits}
        if endpoints != expected:
            error(
                f"path of {op.kind.value} for qubits {op.qubits} connects {endpoints} "
                f"instead of the mapped tiles {expected}"
            )
        for node in op.path.nodes[1:-1]:
            if graph.is_tile(node):
                error(f"path of gate node {op.gate_node} passes through tile {node}")
        for a, b in zip(op.path.nodes, op.path.nodes[1:]):
            if not graph.has_edge(a, b):
                error(f"path of gate node {op.gate_node} uses non-existent edge {a}-{b}")
        for cycle in range(op.start_cycle, op.end_cycle):
            for key in op.path.edges:
                # Non-existent edges (e.g. disabled segments) were flagged
                # above; only existing edges take part in capacity accounting.
                if graph.has_edge(*key):
                    per_cycle_load[cycle][key] += op.lanes
            for node in op.path.nodes[1:-1]:
                per_cycle_node_load[cycle][node] += op.lanes
    for cycle, loads in per_cycle_load.items():
        for key, load in loads.items():
            capacity = graph.capacity(*key)
            if load > capacity:
                error(
                    f"cycle {cycle}: edge {key} carries {load} lanes "
                    f"but its capacity is {capacity}"
                )
    for cycle, loads in per_cycle_node_load.items():
        for node, load in loads.items():
            capacity = graph.node_capacity(node)
            if load > capacity:
                error(
                    f"cycle {cycle}: junction {node} is crossed by {load} paths "
                    f"but provides only {capacity} lanes"
                )


def _check_defects(encoded: EncodedCircuit, error) -> None:
    """Defect constraints: no operation on a dead tile or across a disabled segment.

    The defect-aware routing graph already excludes dead tiles and disabled
    segments (such paths are flagged as non-existent edges above); this check
    names the defect explicitly so a violation reads as what it is.
    """
    chip = encoded.chip
    if chip.defects.is_empty:
        return
    dead = chip.defects.dead_set()
    disabled_edges = set()
    for key in chip.defects.disabled_set():
        a, b, _corridor, _lanes = chip.segment(key)
        disabled_edges.add(edge_key(a, b))
    placement = encoded.placement
    for op in encoded.operations:
        for qubit in op.qubits:
            slot = placement.slot_of(qubit)
            if (slot.row, slot.col) in dead:
                error(
                    f"{op.kind.value} at cycle {op.start_cycle} occupies dead tile "
                    f"({slot.row}, {slot.col}) via qubit {qubit}"
                )
        if op.path is None:
            continue
        for a, b in zip(op.path.nodes, op.path.nodes[1:]):
            if edge_key(a, b) in disabled_edges:
                error(
                    f"path of {op.kind.value} at cycle {op.start_cycle} crosses "
                    f"disabled corridor segment {a}-{b}"
                )
            for node in (a, b):
                if node[0] == "t" and (node[1], node[2]) in dead:
                    error(
                        f"path of {op.kind.value} at cycle {op.start_cycle} touches "
                        f"dead tile ({node[1]}, {node[2]})"
                    )


def _check_cut_types(encoded: EncodedCircuit, error, warn) -> None:
    if encoded.initial_cut_types is None:
        warn("double defect schedule carries no initial cut types; skipping cut checks")
        return
    cut: dict[int, CutType] = dict(encoded.initial_cut_types)
    events = sorted(encoded.operations, key=lambda op: (op.start_cycle, op.end_cycle))
    #: (end_cycle, qubit, new_cut) for pending modifications
    pending: list[tuple[int, int, CutType]] = []
    for op in events:
        # Apply modifications that finished before this operation starts.
        still_pending = []
        for end, qubit, new_cut in pending:
            if end <= op.start_cycle:
                cut[qubit] = new_cut
            else:
                still_pending.append((end, qubit, new_cut))
        pending = still_pending
        if op.kind is OperationKind.CUT_MODIFICATION:
            qubit = op.qubits[0]
            new_cut = op.new_cut if op.new_cut is not None else cut[qubit].flipped()
            pending.append((op.end_cycle, qubit, new_cut))
        elif op.kind is OperationKind.CUT_REMAP:
            for qubit in op.qubits:
                pending.append((op.end_cycle, qubit, cut[qubit].flipped()))
        elif op.kind is OperationKind.CNOT_BRAID:
            a, b = op.qubits
            if cut.get(a) == cut.get(b):
                error(
                    f"one-cycle braid for gate node {op.gate_node} at cycle {op.start_cycle} "
                    f"between tiles of identical cut type {cut.get(a)}"
                )
        elif op.kind is OperationKind.CNOT_SAME_CUT:
            a, b = op.qubits
            if cut.get(a) != cut.get(b):
                warn(
                    f"three-cycle same-cut execution used for gate node {op.gate_node} "
                    "although the cut types differ (allowed but wasteful)"
                )
