"""Algorithm 1 — priority scheduling for the lattice surgery model.

Lattice surgery CNOTs all cost one clock cycle: a Bell state is built through
a corridor of ancilla tiles between the two operand tiles (Fig. 4), so the
scheduling problem reduces to picking, in every cycle, a maximal
capacity-respecting set of ready gates.  The scheduler processes ready gates
in priority order (criticality then descendant count by default) and routes
each through the corridor graph; gates that cannot be routed wait for the
next cycle.

The same scheduler with the EDPCI gate order (shortest tile separation first,
trivial snake placement) is used as the EDPCI baseline.

Hot path
--------
As in :mod:`repro.core.scheduler_dd`, the ready set is an incrementally
maintained priority queue and paths come from the landmark A* router, without
changing the produced schedule; the per-cycle :class:`CapacityUsage` is
recycled instead of reallocated.  The scheduler also memoizes whole cycles
by their layer fingerprint (:mod:`repro.core.layer_memo`): a lattice-surgery cycle is
a pure function of its ordered operand slots, so repeated layers replay
their recorded braids without touching the router.  ``window`` enables the
sliding-window frontier of :class:`~repro.core.incremental.WindowedDagFrontier`
for bounded working sets on very large circuits (the schedule then differs
from the full-frontier one but stays validator-clean).
"""

from __future__ import annotations

from collections import defaultdict

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import Node, tile_node_for
from repro.circuits.circuit import Circuit
from repro.core.engines import routing_for, stalled_schedule_error
from repro.core.incremental import IncrementalReadyQueue, WindowedDagFrontier
from repro.core.layer_memo import LsLayerKey
from repro.core.mapping import InitialMapping
from repro.core.priorities import PriorityFunction, criticality_priority
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.profiling.instrumentation import EngineCounters
from repro.routing.paths import CapacityUsage, RoutedPath

_SAFETY_FACTOR = 8


class LatticeSurgeryScheduler:
    """Schedules one circuit on one lattice-surgery chip (Algorithm 1)."""

    def __init__(
        self,
        circuit: Circuit,
        mapping: InitialMapping,
        priority: PriorityFunction = criticality_priority,
        congestion_weight: float = 0.25,
        method: str = "ecmas-ls",
        max_cycles: int | None = None,
        dag=None,
        window: int | None = None,
        memoize: bool = True,
    ):
        self._circuit = circuit
        self._mapping = mapping
        self._priority = priority
        self._congestion_weight = congestion_weight
        self._method = method
        self._max_cycles = max_cycles
        self._window = window
        # ``memoize=False`` turns layer memoization off (the parity tests
        # compare both modes).
        self._memoize = memoize
        # A DAG precomputed by the pipeline's profile pass is reused as-is.
        self._dag = dag if dag is not None else circuit.dag()
        _, self._router = routing_for(mapping.chip)
        #: Tile node per placed qubit, resolved once (placements are frozen).
        self._tiles = {
            qubit: tile_node_for(slot)
            for qubit, slot in mapping.placement.qubit_to_slot.items()
        }
        self.counters = EngineCounters()


    def run(self) -> EncodedCircuit:
        """Produce the encoded circuit."""
        result = EncodedCircuit(
            model=SurfaceCodeModel.LATTICE_SURGERY,
            chip=self._mapping.chip,
            placement=self._mapping.placement,
            initial_cut_types=None,
            method=self._method,
        )
        if len(self._dag) == 0:
            return result

        frontier = (
            WindowedDagFrontier(self._dag, self._window)
            if self._window is not None
            else self._dag.frontier()
        )
        busy_until: dict[int, int] = defaultdict(int)
        completions: dict[int, list[int]] = defaultdict(list)
        scheduled: set[int] = set()
        operations: list[ScheduledOperation] = []
        queue = IncrementalReadyQueue(self._dag, self._priority, frontier.ready_nodes())
        # One usage tracker serves every cycle (cleared in place) instead of
        # a fresh one per cycle.
        usage = CapacityUsage()
        operands = self._dag.operand_pairs
        # Layer memoization: a cycle is a pure function of its ordered operand
        # slots (usage starts empty; ready gates never share qubits), so the
        # per-position path outcomes can be replayed on fingerprint repeats.
        memo: dict[tuple, tuple] | None = {} if self._memoize else None
        fingerprint = (
            LsLayerKey(self._dag, self._mapping.placement.qubit_to_slot)
            if self._memoize
            else None
        )

        max_cycles = (
            self._max_cycles if self._max_cycles is not None else _SAFETY_FACTOR * (len(self._dag) + 10)
        )
        cycle = 0
        while not frontier.is_done():
            if cycle > max_cycles:
                raise stalled_schedule_error(
                    "lattice surgery", cycle, max_cycles, frontier, self._dag, busy_until, scheduled
                )
            for node in completions.pop(cycle, []):
                queue.add(frontier.complete(node))
            order = queue.available(busy_until, cycle)

            if memo is not None:
                key = fingerprint.key(order)
                cached = memo.get(key)
                if cached is not None:
                    self.counters.layer_memo_hits += 1
                    self._replay_cycle(
                        cached, order, cycle, busy_until, completions,
                        scheduled, operations, queue,
                    )
                    cycle += 1
                    continue
                self.counters.layer_memo_misses += 1

            usage.used.clear()
            usage.node_used.clear()

            outcomes: list[RoutedPath | None] = []
            for node in order:
                qubit_a, qubit_b = operands[node]
                if busy_until[qubit_a] > cycle or busy_until[qubit_b] > cycle:
                    outcomes.append(None)
                    continue
                self.counters.route_calls += 1
                path = self._router.find(
                    usage, self._tile(qubit_a), self._tile(qubit_b),
                    self._congestion_weight, self.counters,
                )
                outcomes.append(path)
                if path is None:
                    continue
                self.counters.gates_scheduled += 1
                usage.add_path(path)
                operations.append(
                    ScheduledOperation(
                        kind=OperationKind.CNOT_BRAID,
                        start_cycle=cycle,
                        duration=1,
                        qubits=(qubit_a, qubit_b),
                        gate_node=node,
                        path=path,
                    )
                )
                busy_until[qubit_a] = cycle + 1
                busy_until[qubit_b] = cycle + 1
                completions[cycle + 1].append(node)
                scheduled.add(node)
                queue.discard(node)
            if memo is not None:
                memo[key] = tuple(outcomes)

            cycle += 1

        self.counters.cycles_simulated = cycle
        result.operations = operations
        return result

    def _replay_cycle(
        self,
        outcomes: tuple[RoutedPath | None, ...],
        order,
        cycle: int,
        busy_until: dict[int, int],
        completions: dict[int, list[int]],
        scheduled: set[int],
        operations: list[ScheduledOperation],
        queue: IncrementalReadyQueue,
    ) -> None:
        """Apply a memoized cycle's braids to the current order's gates."""
        operands = self._dag.operand_pairs
        for node, path in zip(order, outcomes):
            if path is None:
                continue
            qubit_a, qubit_b = operands[node]
            self.counters.gates_scheduled += 1
            operations.append(
                ScheduledOperation(
                    kind=OperationKind.CNOT_BRAID,
                    start_cycle=cycle,
                    duration=1,
                    qubits=(qubit_a, qubit_b),
                    gate_node=node,
                    path=path,
                )
            )
            busy_until[qubit_a] = cycle + 1
            busy_until[qubit_b] = cycle + 1
            completions[cycle + 1].append(node)
            scheduled.add(node)
            queue.discard(node)

    def _tile(self, qubit: int) -> Node:
        tile = self._tiles.get(qubit)
        if tile is None:
            # Unplaced qubit: surface the mapping error, not a KeyError.
            return tile_node_for(self._mapping.placement.slot_of(qubit))
        return tile


def schedule_lattice_surgery(
    circuit: Circuit,
    mapping: InitialMapping,
    priority: PriorityFunction = criticality_priority,
    method: str = "ecmas-ls",
) -> EncodedCircuit:
    """Convenience wrapper around :class:`LatticeSurgeryScheduler`."""
    scheduler = LatticeSurgeryScheduler(circuit, mapping, priority=priority, method=method)
    return scheduler.run()
