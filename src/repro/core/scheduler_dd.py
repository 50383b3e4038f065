"""Algorithm 1 — priority scheduling for the double defect model.

The scheduler walks the CNOT DAG cycle by cycle.  In every cycle it considers
the ready gates whose operand tiles are free, in priority order (criticality,
then descendant count), and for each gate either

* routes a one-cycle braid when the operand cut types differ,
* or — for same-cut operands — consults a cut-decision strategy
  (:mod:`repro.core.cut_decisions`) to choose between a three-cycle direct
  execution (which occupies a channel path for its whole duration) and a
  three-cycle tile-local cut-type modification that may overlap the tile's
  idle cycles and is followed by a one-cycle braid.

Paths are routed on the corridor graph with per-cycle capacities equal to the
corridor bandwidths, so gates that fail to find a path simply wait — this is
exactly the congestion the paper's bandwidth adjusting and cut-type
optimisations are designed to relieve.

The same scheduler, configured with uniform cut types and the ``never_modify``
strategy, serves as the AutoBraid / Braidflash baseline scheduler.

Hot path
--------
The ready set stays incrementally sorted
(:class:`repro.core.incremental.IncrementalReadyQueue`) instead of being
rebuilt from the frontier every cycle, and paths come from the landmark A*
of :class:`repro.routing.fast_router.FastRouter`.  Both preserve the plain
Algorithm 1 semantics exactly: ``tests/test_differential_engines.py`` holds
every schedule to a reference engine that recomputes the ready list each
cycle and routes with a reference Dijkstra.

The scheduler also memoizes whole cycles by their layer
fingerprint (:mod:`repro.core.layer_memo`): cut types, capped idle times,
the three-cycle residual-capacity signature and — for the adaptive strategy
— the successor look-ahead together determine a cycle's outcome, so
repeated layers replay their recorded actions without routing or strategy
calls.  ``window`` enables the sliding-window frontier of
:class:`~repro.core.incremental.WindowedDagFrontier` for bounded working
sets on very large circuits.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import Node, tile_node_for
from repro.circuits.circuit import Circuit
from repro.core.cut_decisions import (
    DIRECT_SAME_CUT_CYCLES,
    MODIFICATION_CYCLES,
    CutContext,
    CutDecisionStrategy,
    adaptive_strategy,
)
from repro.core.cut_types import CutType
from repro.core.engines import routing_for, stalled_schedule_error
from repro.core.incremental import IncrementalReadyQueue, WindowedDagFrontier
from repro.core.layer_memo import LOOKAHEAD_STRATEGIES, MEMO_SAFE_STRATEGIES, DdLayerKey
from repro.core.mapping import InitialMapping
from repro.core.priorities import PriorityFunction, criticality_priority
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import SchedulingError
from repro.profiling.instrumentation import EngineCounters
from repro.routing.paths import CapacityUsage, RoutedPath

#: Hard safety bound: a valid schedule never needs more cycles than four per
#: gate plus the modification overhead; exceeding it indicates a scheduler bug.
_SAFETY_FACTOR = 8


class DoubleDefectScheduler:
    """Schedules one circuit on one double-defect chip (Algorithm 1)."""

    def __init__(
        self,
        circuit: Circuit,
        mapping: InitialMapping,
        priority: PriorityFunction = criticality_priority,
        cut_strategy: CutDecisionStrategy = adaptive_strategy,
        congestion_weight: float = 0.25,
        method: str = "ecmas-dd",
        max_cycles: int | None = None,
        dag=None,
        window: int | None = None,
        memoize: bool = True,
    ):
        if mapping.cut_types is None:
            raise SchedulingError("double defect scheduling needs an initial cut-type assignment")
        self._circuit = circuit
        self._mapping = mapping
        self._priority = priority
        self._cut_strategy = cut_strategy
        self._congestion_weight = congestion_weight
        self._method = method
        self._max_cycles = max_cycles
        self._window = window
        # Layer memoization runs only for strategies whose read set the
        # fingerprint provably covers; a custom strategy disables it rather
        # than risking an unsound replay.
        self._memoize = memoize and cut_strategy in MEMO_SAFE_STRATEGIES
        self._memo_lookahead = cut_strategy in LOOKAHEAD_STRATEGIES
        # A DAG precomputed by the pipeline's profile pass is reused as-is;
        # standalone callers pay for one derivation here.
        self._dag = dag if dag is not None else circuit.dag()
        _, self._router = routing_for(mapping.chip)
        #: Tile node per placed qubit, resolved once (placements are frozen).
        self._tiles = {
            qubit: tile_node_for(slot)
            for qubit, slot in mapping.placement.qubit_to_slot.items()
        }
        #: Cycle-keyed residual-usage signature cache, active only while the
        #: layer memo is (set up per run; _apply_direct evicts from it).
        self._signature_cache: dict[int, object] | None = None
        self.counters = EngineCounters()

    def _find_path(self, usage: CapacityUsage, source: Node, target: Node) -> RoutedPath | None:
        """Route one query, accounting it in the counters."""
        self.counters.route_calls += 1
        return self._router.find(usage, source, target, self._congestion_weight, self.counters)

    # ------------------------------------------------------------------ public
    def run(self) -> EncodedCircuit:
        """Produce the encoded circuit."""
        result = EncodedCircuit(
            model=SurfaceCodeModel.DOUBLE_DEFECT,
            chip=self._mapping.chip,
            placement=self._mapping.placement,
            initial_cut_types=dict(self._mapping.cut_types or {}),
            method=self._method,
        )
        if len(self._dag) == 0:
            return result

        frontier = (
            WindowedDagFrontier(self._dag, self._window)
            if self._window is not None
            else self._dag.frontier()
        )
        cut = dict(self._mapping.cut_types or {})
        busy_until: dict[int, int] = defaultdict(int)
        usage_by_cycle: dict[int, CapacityUsage] = {}
        completions: dict[int, list[int]] = defaultdict(list)
        cut_flips: dict[int, list[int]] = defaultdict(list)
        scheduled: set[int] = set()
        operations: list[ScheduledOperation] = []
        # The ready set stays sorted across cycles instead of being rebuilt
        # from the frontier every cycle.
        queue = IncrementalReadyQueue(self._dag, self._priority, frontier.ready_nodes())
        operands = self._dag.operand_pairs
        # Layer-fingerprint memoization (see repro.core.layer_memo).
        memo: dict[tuple, tuple] | None = {} if self._memoize else None
        fingerprint = (
            DdLayerKey(
                self._dag,
                self._mapping.placement.qubit_to_slot,
                DIRECT_SAME_CUT_CYCLES,
                self._memo_lookahead,
            )
            if self._memoize
            else None
        )
        # Residual-usage signatures by cycle, shared between the fingerprint
        # and _apply_direct (which evicts the cycles it reserves into).
        self._signature_cache = {} if self._memoize else None

        max_cycles = (
            self._max_cycles
            if self._max_cycles is not None
            else _SAFETY_FACTOR * (len(self._dag) * (DIRECT_SAME_CUT_CYCLES + MODIFICATION_CYCLES) + 10)
        )
        cycle = 0
        while not frontier.is_done():
            if cycle > max_cycles:
                raise stalled_schedule_error(
                    "double defect", cycle, max_cycles, frontier, self._dag, busy_until, scheduled
                )
            for qubit in cut_flips.pop(cycle, []):
                cut[qubit] = cut[qubit].flipped()
            for node in completions.pop(cycle, []):
                queue.add(frontier.complete(node))
            order = queue.available(busy_until, cycle)

            if memo is not None:
                key = fingerprint.key(
                    order, cut, busy_until, cycle, usage_by_cycle, self._signature_cache
                )
                cached = memo.get(key)
                if cached is not None:
                    self.counters.layer_memo_hits += 1
                    self._replay_cycle(
                        cached, order, cycle, cut, busy_until, usage_by_cycle,
                        completions, cut_flips, scheduled, operations, queue,
                    )
                    cycle += 1
                    usage_by_cycle.pop(cycle - 1, None)
                    self._signature_cache.pop(cycle - 1, None)
                    continue
                misses = self.counters.layer_memo_misses = self.counters.layer_memo_misses + 1
                if (
                    misses >= 32
                    and self.counters.layer_memo_hits * 8 < misses
                    and frontier.num_remaining * 2 <= len(self._dag)
                ):
                    # Fingerprinting is not paying for itself on this circuit:
                    # half the gates are scheduled and layers still almost
                    # never repeat exactly.  Stop keying.  (Repetitive
                    # circuits front-load their misses — every layer is new
                    # once — so the cutoff also waits for schedule progress,
                    # not just a miss count.)  Purely a performance decision:
                    # replays only ever happen on hits, so the schedule is
                    # unaffected.
                    memo = None
                    fingerprint = None
                    self._signature_cache = None
            usage_now = usage_by_cycle.setdefault(cycle, CapacityUsage())

            record: list | None = [] if memo is not None else None
            for node in order:
                qubit_a, qubit_b = operands[node]
                if busy_until[qubit_a] > cycle or busy_until[qubit_b] > cycle:
                    # An earlier decision in this cycle occupied a tile.
                    if record is not None:
                        record.append(None)
                    continue
                if cut[qubit_a] != cut[qubit_b]:
                    path = self._try_braid(
                        node, qubit_a, qubit_b, cycle, usage_now,
                        busy_until, completions, scheduled, operations,
                    )
                    if path is not None:
                        queue.discard(node)
                    if record is not None:
                        record.append(("braid", path) if path is not None else None)
                    continue
                context = CutContext(
                    dag=self._dag,
                    node=node,
                    qubit_a=qubit_a,
                    qubit_b=qubit_b,
                    cut_types=cut,
                    idle_a=cycle - busy_until[qubit_a],
                    idle_b=cycle - busy_until[qubit_b],
                    ready_count=len(order),
                    bandwidth=self._mapping.chip.bandwidth,
                    num_qubits=self._circuit.num_qubits,
                )
                decision = self._cut_strategy(context)
                if decision.modify and decision.qubit is not None:
                    finished_now = self._schedule_modification(
                        decision.qubit, cycle, cut, busy_until, cut_flips, operations,
                        idle=cycle - busy_until[decision.qubit],
                    )
                    braid_path = None
                    if finished_now:
                        # The modification fit entirely into past idle cycles;
                        # the cut types now differ, so try the braid immediately.
                        braid_path = self._try_braid(
                            node, qubit_a, qubit_b, cycle, usage_now,
                            busy_until, completions, scheduled, operations,
                        )
                        if braid_path is not None:
                            queue.discard(node)
                    if record is not None:
                        side = 0 if decision.qubit == qubit_a else 1
                        record.append(("modify", side, finished_now, braid_path))
                else:
                    path = self._try_direct(
                        node, qubit_a, qubit_b, cycle, usage_by_cycle,
                        busy_until, completions, scheduled, operations,
                    )
                    if path is not None:
                        queue.discard(node)
                    if record is not None:
                        record.append(("direct", path) if path is not None else None)
            if memo is not None:
                memo[key] = tuple(record)

            cycle += 1
            usage_by_cycle.pop(cycle - 1, None)
            if self._signature_cache is not None:
                self._signature_cache.pop(cycle - 1, None)

        self.counters.cycles_simulated = cycle
        result.operations = operations
        return result

    # ---------------------------------------------------------------- helpers
    def _tile(self, qubit: int) -> Node:
        tile = self._tiles.get(qubit)
        if tile is None:
            # Unplaced qubit: surface the mapping error, not a KeyError.
            return tile_node_for(self._mapping.placement.slot_of(qubit))
        return tile

    def _try_braid(
        self,
        node: int,
        qubit_a: int,
        qubit_b: int,
        cycle: int,
        usage_now: CapacityUsage,
        busy_until: dict[int, int],
        completions: dict[int, list[int]],
        scheduled: set[int],
        operations: list[ScheduledOperation],
    ) -> RoutedPath | None:
        """One-cycle braid between different-cut tiles; returns the path if scheduled."""
        path = self._find_path(usage_now, self._tile(qubit_a), self._tile(qubit_b))
        if path is None:
            return None
        usage_now.add_path(path)
        self._apply_braid(
            node, qubit_a, qubit_b, cycle, path, busy_until, completions, scheduled, operations
        )
        return path

    def _apply_braid(
        self,
        node: int,
        qubit_a: int,
        qubit_b: int,
        cycle: int,
        path: RoutedPath,
        busy_until: dict[int, int],
        completions: dict[int, list[int]],
        scheduled: set[int],
        operations: list[ScheduledOperation],
    ) -> None:
        """Record the bookkeeping of one scheduled braid (shared with replay)."""
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

    def _try_direct(
        self,
        node: int,
        qubit_a: int,
        qubit_b: int,
        cycle: int,
        usage_by_cycle: dict[int, CapacityUsage],
        busy_until: dict[int, int],
        completions: dict[int, list[int]],
        scheduled: set[int],
        operations: list[ScheduledOperation],
    ) -> RoutedPath | None:
        """Three-cycle same-cut CNOT occupying its path for the whole duration."""
        path = self._find_multicycle_path(cycle, DIRECT_SAME_CUT_CYCLES, qubit_a, qubit_b, usage_by_cycle)
        if path is None:
            return None
        self._apply_direct(
            node, qubit_a, qubit_b, cycle, path, usage_by_cycle,
            busy_until, completions, scheduled, operations,
        )
        return path

    def _apply_direct(
        self,
        node: int,
        qubit_a: int,
        qubit_b: int,
        cycle: int,
        path: RoutedPath,
        usage_by_cycle: dict[int, CapacityUsage],
        busy_until: dict[int, int],
        completions: dict[int, list[int]],
        scheduled: set[int],
        operations: list[ScheduledOperation],
    ) -> None:
        """Reserve and book one direct same-cut CNOT (shared with replay)."""
        self.counters.gates_scheduled += 1
        for offset in range(DIRECT_SAME_CUT_CYCLES):
            usage_by_cycle.setdefault(cycle + offset, CapacityUsage()).add_path(path)
        cache = self._signature_cache
        if cache is not None:
            # Future fingerprints read these cycles' signatures; evict them.
            for offset in range(DIRECT_SAME_CUT_CYCLES):
                cache.pop(cycle + offset, None)
        operations.append(
            ScheduledOperation(
                kind=OperationKind.CNOT_SAME_CUT,
                start_cycle=cycle,
                duration=DIRECT_SAME_CUT_CYCLES,
                qubits=(qubit_a, qubit_b),
                gate_node=node,
                path=path,
            )
        )
        end = cycle + DIRECT_SAME_CUT_CYCLES
        busy_until[qubit_a] = end
        busy_until[qubit_b] = end
        completions[end].append(node)
        scheduled.add(node)

    def _replay_cycle(
        self,
        actions,
        order,
        cycle: int,
        cut: dict[int, CutType],
        busy_until: dict[int, int],
        usage_by_cycle: dict[int, CapacityUsage],
        completions: dict[int, list[int]],
        cut_flips: dict[int, list[int]],
        scheduled: set[int],
        operations: list[ScheduledOperation],
        queue: IncrementalReadyQueue,
    ) -> None:
        """Apply a memoized cycle's recorded actions to the current order.

        The fingerprint guarantees the recorded decisions and paths are valid
        verbatim; only the gate nodes and absolute cycle numbers differ.
        Braid reservations for the *current* cycle are not re-applied — that
        usage tracker is dropped when the cycle ends and nothing routes
        during a replay — but direct CNOTs reserve their full three-cycle
        span, which future fingerprints read.
        """
        operands = self._dag.operand_pairs
        for node, action in zip(order, actions):
            if action is None:
                continue
            qubit_a, qubit_b = operands[node]
            tag = action[0]
            if tag == "braid":
                self._apply_braid(
                    node, qubit_a, qubit_b, cycle, action[1],
                    busy_until, completions, scheduled, operations,
                )
                queue.discard(node)
            elif tag == "direct":
                self._apply_direct(
                    node, qubit_a, qubit_b, cycle, action[1], usage_by_cycle,
                    busy_until, completions, scheduled, operations,
                )
                queue.discard(node)
            else:  # "modify"
                _tag, side, finished_recorded, braid_path = action
                qubit = qubit_a if side == 0 else qubit_b
                finished_now = self._schedule_modification(
                    qubit, cycle, cut, busy_until, cut_flips, operations,
                    idle=cycle - busy_until[qubit],
                )
                assert finished_now == finished_recorded  # fingerprint soundness
                if finished_now and braid_path is not None:
                    self._apply_braid(
                        node, qubit_a, qubit_b, cycle, braid_path,
                        busy_until, completions, scheduled, operations,
                    )
                    queue.discard(node)

    def _schedule_modification(
        self,
        qubit: int,
        cycle: int,
        cut: dict[int, CutType],
        busy_until: dict[int, int],
        cut_flips: dict[int, list[int]],
        operations: list[ScheduledOperation],
        idle: int,
    ) -> bool:
        """Schedule a cut-type modification; returns True when it completes immediately.

        The modification may overlap up to ``MODIFICATION_CYCLES`` cycles the
        tile has already spent idle (the paper's "performed earlier" rule); the
        recorded operation keeps its true start cycle so the validator can
        check the tile really was idle.
        """
        overlap = min(MODIFICATION_CYCLES, max(0, idle))
        start = cycle - overlap
        end = start + MODIFICATION_CYCLES
        self.counters.cut_modifications += 1
        operations.append(
            ScheduledOperation(
                kind=OperationKind.CUT_MODIFICATION,
                start_cycle=start,
                duration=MODIFICATION_CYCLES,
                qubits=(qubit,),
                new_cut=cut[qubit].flipped(),
            )
        )
        if end <= cycle:
            cut[qubit] = cut[qubit].flipped()
            return True
        busy_until[qubit] = end
        cut_flips[end].append(qubit)
        return False

    def _find_multicycle_path(
        self,
        cycle: int,
        duration: int,
        qubit_a: int,
        qubit_b: int,
        usage_by_cycle: dict[int, CapacityUsage],
    ) -> RoutedPath | None:
        """Find a path free in every cycle of ``[cycle, cycle + duration)``.

        The search runs against a merged usage view holding, for every edge,
        the maximum reservation over the involved cycles.
        """
        involved = [
            cycle_usage
            for offset in range(duration)
            if (cycle_usage := usage_by_cycle.get(cycle + offset)) is not None
            and (cycle_usage.used or cycle_usage.node_used)
        ]
        if len(involved) == 1:
            # Common case: only the current cycle carries reservations, so the
            # merged view is that cycle's usage verbatim — search it directly.
            merged = involved[0]
        else:
            merged = CapacityUsage()
            for cycle_usage in involved:
                for key, used in cycle_usage.used.items():
                    merged.used[key] = max(merged.used.get(key, 0), used)
                for node, used in cycle_usage.node_used.items():
                    merged.node_used[node] = max(merged.node_used.get(node, 0), used)
        return self._find_path(merged, self._tile(qubit_a), self._tile(qubit_b))


def schedule_double_defect(
    circuit: Circuit,
    mapping: InitialMapping,
    priority: PriorityFunction = criticality_priority,
    cut_strategy: CutDecisionStrategy = adaptive_strategy,
    method: str = "ecmas-dd",
) -> EncodedCircuit:
    """Convenience wrapper around :class:`DoubleDefectScheduler`."""
    scheduler = DoubleDefectScheduler(
        circuit, mapping, priority=priority, cut_strategy=cut_strategy, method=method
    )
    return scheduler.run()
