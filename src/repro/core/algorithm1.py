"""Algorithm 1 — priority scheduling over the CNOT DAG, for both surface-code models.

The paper states Algorithm 1 once: walk the CNOT DAG cycle by cycle and, in
every cycle, offer the ready gates whose operand tiles are free to the
model's gate action in priority order (criticality, then descendant count,
by default); a gate whose action fails simply waits for a later cycle.
:class:`Algorithm1Scheduler` is that loop, shared by both models.  It owns

* the frontier — the DAG's, or the sliding
  :class:`~repro.core.incremental.WindowedDagFrontier` for bounded working
  sets on very large circuits — and the
  :class:`~repro.core.incremental.IncrementalReadyQueue` that keeps the
  ready set sorted across cycles instead of rebuilding it every cycle;
* the bookkeeping every action shares: tile busy horizons, gate
  completions, per-cycle capacity usage and the operation list;
* route accounting and the safety bound with its stall diagnostic;
* the layer memo.

A model is a small policy on top.  A subclass supplies its layer key
(:mod:`repro.core.layer_memo`) and its per-gate action :meth:`_act`, which
books the gate or leaves it waiting and returns a *record* of what it did:
``("braid", path)``, ``("direct", path)``, ``("modify", side, finished,
braid_path)``, or ``None`` for a gate left waiting.
:mod:`repro.core.scheduler_ls` braids every gate;
:mod:`repro.core.scheduler_dd` braids different-cut operands and lets a
cut-decision strategy choose a direct CNOT or a cut-type modification for
same-cut ones.

Layer memo
----------
A cycle's records are a pure function of its layer key, so the driver stores
them under the key and, when the key repeats, :meth:`_replay` applies them to
the current gates without routing or strategy calls.  Replay re-derives the
one outcome that reads state outside the records — whether a cut
modification completes immediately — and raises :class:`SchedulingError`
naming the cycle, gate and qubit if it disagrees with the record.
Fingerprinting stops once it clearly does not pay (see :meth:`run`); that
moves memo counters, never the schedule.

None of the accelerations change the schedule:
``tests/test_differential_engines.py`` holds every schedule to a reference
engine that recomputes the ready list each cycle, routes with a reference
Dijkstra and never memoizes.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import Node, tile_node_for
from repro.core.incremental import IncrementalReadyQueue, WindowedDagFrontier
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import SchedulingError
from repro.profiling.instrumentation import EngineCounters
from repro.routing.fast_router import routing_for
from repro.routing.paths import CapacityUsage, RoutedPath

#: Hard safety bound: a valid schedule never needs more than the model's
#: worst-case cycles per gate; eight times that indicates a scheduler bug.
_SAFETY_FACTOR = 8


def stalled_schedule_error(
    kind: str,
    cycle: int,
    max_cycles: int,
    frontier,
    dag,
    busy_until: dict[int, int],
    dispatched=(),
) -> SchedulingError:
    """Build the safety-bound diagnostic for a scheduler that stopped progressing.

    Names the first *blocked* ready gate — ready but not yet dispatched —
    with its operand qubits and tile busy horizons, so a stall points at the
    offending gate instead of only at the cycle budget.  Gates in
    ``dispatched`` are executing, not blocked; when only those remain the
    message says so instead of blaming one of them.
    """
    message = (
        f"{kind} scheduler exceeded {max_cycles} cycles at cycle {cycle}; "
        f"{frontier.num_remaining} gates remain"
    )
    blocked = [node for node in frontier.ready_nodes() if node not in dispatched]
    if blocked:
        node = blocked[0]
        control, target = dag.operands(node)
        message += (
            f"; first blocked gate: node {node} CX(q{control}, q{target})"
            f" with tiles busy until cycles {busy_until[control]} and"
            f" {busy_until[target]}"
        )
    elif frontier.ready_nodes():
        message += f"; {len(frontier.ready_nodes())} dispatched gate(s) still in flight"
    return SchedulingError(message)


class Algorithm1Scheduler:
    """The Algorithm 1 cycle loop; a subclass supplies the model's policy.

    Policy hooks: :meth:`_layer_key` and :meth:`_act` (required) and
    :meth:`_begin_cycle`.  A policy that records ``"direct"`` or ``"modify"``
    actions also provides ``_book_direct(node, qubit_a, qubit_b, path)`` and
    ``_modify(qubit) -> bool``, through which :meth:`_replay` books them.
    """

    #: The surface-code model, its name in diagnostics, and the worst-case
    #: cycles one gate can take (sizes the safety bound).
    model: SurfaceCodeModel
    kind: str
    gate_cycles: int

    def __init__(
        self, circuit, mapping, *, priority, congestion_weight, method, max_cycles, dag, window, memoize
    ):
        self._circuit = circuit
        self._mapping = mapping
        self._priority = priority
        self._congestion_weight = congestion_weight
        self._method = method
        self._max_cycles = max_cycles
        self._window = window
        # ``memoize=False`` turns the layer memo off (the parity tests
        # compare both modes).
        self._memoize = memoize
        # A DAG precomputed by the pipeline's profile pass is reused as-is;
        # standalone callers pay for one derivation here.
        self._dag = dag if dag is not None else circuit.dag()
        self._router = routing_for(mapping.chip)
        #: Tile node per placed qubit, resolved once (placements are frozen).
        self._tiles = {
            qubit: tile_node_for(slot)
            for qubit, slot in mapping.placement.qubit_to_slot.items()
        }
        self.counters = EngineCounters()

    # ------------------------------------------------------------------ public
    def run(self) -> EncodedCircuit:
        """Produce the encoded circuit."""
        mapping, dag, counters = self._mapping, self._dag, self.counters
        result = EncodedCircuit(
            model=self.model,
            chip=mapping.chip,
            placement=mapping.placement,
            initial_cut_types=None if mapping.cut_types is None else dict(mapping.cut_types),
            method=self._method,
        )
        if len(dag) == 0:
            return result

        frontier = self._start(result.operations)
        queue, busy_until = self._queue, self._busy_until
        completions, usage_by_cycle = self._completions, self._usage_by_cycle
        operands = dag.operand_pairs
        memo: dict[tuple, tuple] | None = {} if self._memoize else None
        max_cycles = (
            self._max_cycles
            if self._max_cycles is not None
            else _SAFETY_FACTOR * (len(dag) * self.gate_cycles + 10)
        )
        cycle = 0
        while not frontier.is_done():
            if cycle > max_cycles:
                raise stalled_schedule_error(
                    self.kind, cycle, max_cycles, frontier, dag, busy_until, self._scheduled
                )
            self._cycle = cycle
            self._begin_cycle(cycle)
            for node in completions.pop(cycle, []):
                queue.add(frontier.complete(node))
            order = queue.available(busy_until, cycle)

            if memo is not None:
                key = self._layer_key(order, cycle)
                cached = memo.get(key)
                if cached is not None:
                    counters.layer_memo_hits += 1
                    self._replay(order, cached)
                    usage_by_cycle.pop(cycle, None)
                    cycle += 1
                    continue
                misses = counters.layer_memo_misses = counters.layer_memo_misses + 1
                if (
                    misses >= 32
                    and counters.layer_memo_hits * 8 < misses
                    and frontier.num_remaining * 2 <= len(dag)
                ):
                    # Fingerprinting is not paying for itself on this circuit:
                    # half the gates are scheduled and layers still almost
                    # never repeat exactly.  Stop keying.  (Repetitive
                    # circuits front-load their misses — every layer is new
                    # once — so the cutoff also waits for schedule progress,
                    # not just a miss count.)  Replays only ever happen on
                    # hits, so the schedule is unaffected.
                    memo = None
            self._usage_now = usage_by_cycle.setdefault(cycle, CapacityUsage())

            actions = []
            for node in order:
                qubit_a, qubit_b = operands[node]
                if busy_until[qubit_a] > cycle or busy_until[qubit_b] > cycle:
                    # An earlier action in this cycle occupied a tile.
                    actions.append(None)
                else:
                    actions.append(self._act(node, qubit_a, qubit_b, len(order)))
            if memo is not None:
                memo[key] = tuple(actions)
            usage_by_cycle.pop(cycle, None)
            cycle += 1

        counters.cycles_simulated = cycle
        return result

    # ---------------------------------------------------------- model policy
    def _begin_cycle(self, cycle: int) -> None:
        """Apply policy state changes that take effect at ``cycle`` (none by default)."""

    def _layer_key(self, order, cycle: int) -> tuple:
        """The memo key of the cycle about to dispatch ``order``."""
        raise NotImplementedError

    def _act(self, node: int, qubit_a: int, qubit_b: int, ready_count: int):
        """Dispatch one gate whose tiles are free; returns its memo record."""
        raise NotImplementedError

    # ------------------------------------------------------ shared bookkeeping
    def _start(self, operations: list[ScheduledOperation]):
        """Reset the per-run state shared by the actions and the replay; returns the frontier."""
        frontier = (
            WindowedDagFrontier(self._dag, self._window)
            if self._window is not None
            else self._dag.frontier()
        )
        self._operations = operations
        self._busy_until: dict[int, int] = defaultdict(int)
        self._completions: dict[int, list[int]] = defaultdict(list)
        self._usage_by_cycle: dict[int, CapacityUsage] = {}
        self._scheduled: set[int] = set()
        self._queue = IncrementalReadyQueue(self._dag, self._priority, frontier.ready_nodes())
        self._cycle = 0
        return frontier

    def _tile(self, qubit: int) -> Node:
        tile = self._tiles.get(qubit)
        if tile is None:
            # Unplaced qubit: surface the mapping error, not a KeyError.
            return tile_node_for(self._mapping.placement.slot_of(qubit))
        return tile

    def _route(self, usage: CapacityUsage, qubit_a: int, qubit_b: int) -> RoutedPath | None:
        """Route one query between two qubits' tiles, accounting it in the counters."""
        self.counters.route_calls += 1
        return self._router.find(
            usage, self._tile(qubit_a), self._tile(qubit_b), self._congestion_weight, self.counters
        )

    def _braid(self, node: int, qubit_a: int, qubit_b: int) -> RoutedPath | None:
        """Route and book a one-cycle braid now; returns its path, or ``None`` to wait."""
        usage = self._usage_now
        path = self._route(usage, qubit_a, qubit_b)
        if path is not None:
            usage.add_path(path)
            self._book(node, qubit_a, qubit_b, path)
        return path

    def _book(
        self,
        node: int,
        qubit_a: int,
        qubit_b: int,
        path: RoutedPath,
        kind: OperationKind = OperationKind.CNOT_BRAID,
        duration: int = 1,
    ) -> None:
        """Book one dispatched CNOT starting this cycle: operation, tile horizons, completion."""
        cycle = self._cycle
        end = cycle + duration
        self.counters.gates_scheduled += 1
        self._operations.append(
            ScheduledOperation(
                kind=kind,
                start_cycle=cycle,
                duration=duration,
                qubits=(qubit_a, qubit_b),
                gate_node=node,
                path=path,
            )
        )
        self._busy_until[qubit_a] = end
        self._busy_until[qubit_b] = end
        self._completions[end].append(node)
        self._scheduled.add(node)
        self._queue.discard(node)

    def _replay(self, order, actions) -> None:
        """Apply a memoized cycle's records to the current order's gates.

        The layer key guarantees the records are valid verbatim; only the
        gate nodes and the absolute cycle differ.  Braids reserve no capacity
        here — the current cycle's usage is dropped when the cycle ends and
        nothing routes during a replay — but direct CNOTs reserve their whole
        span, which later layer keys read.
        """
        operands = self._dag.operand_pairs
        for node, action in zip(order, actions):
            if action is None:
                continue
            qubit_a, qubit_b = operands[node]
            tag = action[0]
            if tag == "braid":
                self._book(node, qubit_a, qubit_b, action[1])
            elif tag == "direct":
                self._book_direct(node, qubit_a, qubit_b, action[1])
            else:  # "modify"
                _tag, side, finished, braid_path = action
                qubit = qubit_b if side else qubit_a
                if self._modify(qubit) != finished:
                    raise SchedulingError(
                        f"layer memo replay diverged at cycle {self._cycle}: the cut-type"
                        f" modification of q{qubit} for node {node} was recorded as"
                        f" {'completing' if finished else 'pending'} but is"
                        f" {'pending' if finished else 'completing'}"
                    )
                if braid_path is not None:
                    self._book(node, qubit_a, qubit_b, braid_path)
