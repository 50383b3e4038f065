"""Algorithm 1 policy for the double defect model.

:class:`~repro.core.algorithm1.Algorithm1Scheduler` runs the cycle loop;
this module supplies the model's per-gate action.  Each ready gate whose
operand tiles are free

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

A direct CNOT needs a path free in each of the three cycles it occupies.
Its searches run against the cycle's *span view*: for every edge id and
junction id, the largest reservation over the current cycle and the next
two.  The view is built on the cycle's first direct query and then raised in
place whenever a braid or a direct CNOT reserves a path into any of those
cycles, so every query sees exactly the maximum it would merge afresh; it is
dropped when the next cycle begins, and a replayed cycle never builds one.

The layer key (:class:`~repro.core.layer_memo.DdLayerKey`) covers cut types,
capped idle times, the three-cycle residual-capacity signature and — for
the adaptive strategy — the successor look-ahead, which together determine
a cycle's records.  Pending cut flips (modifications that finish in a later
cycle) are applied as their cycle begins.
"""

from __future__ import annotations

from collections import defaultdict

from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.core.algorithm1 import Algorithm1Scheduler
from repro.core.cut_decisions import (
    DIRECT_SAME_CUT_CYCLES,
    MODIFICATION_CYCLES,
    CutContext,
    CutDecisionStrategy,
    adaptive_strategy,
)
from repro.core.layer_memo import LOOKAHEAD_STRATEGIES, MEMO_SAFE_STRATEGIES, DdLayerKey
from repro.core.mapping import InitialMapping
from repro.core.priorities import PriorityKey, criticality_priority
from repro.core.schedule import OperationKind, ScheduledOperation
from repro.errors import SchedulingError
from repro.routing.fast_router import DEFAULT_CONGESTION_WEIGHT
from repro.routing.paths import CapacityUsage, IdPath


class DoubleDefectScheduler(Algorithm1Scheduler):
    """Schedules one circuit on one double-defect chip (Algorithm 1)."""

    model = SurfaceCodeModel.DOUBLE_DEFECT
    kind = "double defect"
    #: Worst case per gate: a cut-type modification, then a direct CNOT.
    gate_cycles = DIRECT_SAME_CUT_CYCLES + MODIFICATION_CYCLES

    def __init__(
        self,
        circuit: Circuit,
        mapping: InitialMapping,
        priority: PriorityKey = criticality_priority,
        cut_strategy: CutDecisionStrategy = adaptive_strategy,
        congestion_weight: float = DEFAULT_CONGESTION_WEIGHT,
        method: str = "ecmas-dd",
        max_cycles: int | None = None,
        dag=None,
        window: int | None = None,
        memoize: bool = True,
    ):
        if mapping.cut_types is None:
            raise SchedulingError("double defect scheduling needs an initial cut-type assignment")
        # Layer memoization runs only for strategies whose read set the
        # fingerprint provably covers; a custom strategy disables it rather
        # than risking an unsound replay.
        super().__init__(
            circuit,
            mapping,
            priority=priority,
            congestion_weight=congestion_weight,
            method=method,
            max_cycles=max_cycles,
            dag=dag,
            window=window,
            memoize=memoize and cut_strategy in MEMO_SAFE_STRATEGIES,
        )
        self._cut_strategy = cut_strategy

    def _start(self, operations):
        frontier = super()._start(operations)
        self._cut = dict(self._mapping.cut_types)
        #: Qubits whose pending modification completes at a given cycle.
        self._cut_flips: dict[int, list[int]] = defaultdict(list)
        #: Residual-usage signatures by cycle, shared between the layer key
        #: and _book_direct (which evicts the cycles it reserves into).
        self._signatures: dict[int, object] = {}
        #: The current cycle's span view (see the module docstring), or None
        #: before its first direct query.
        self._span: CapacityUsage | None = None
        self._fingerprint = (
            DdLayerKey(
                self._dag,
                self._tile_ids,
                DIRECT_SAME_CUT_CYCLES,
                self._cut_strategy in LOOKAHEAD_STRATEGIES,
            )
            if self._memoize
            else None
        )
        return frontier

    def _begin_cycle(self, cycle: int) -> None:
        self._span = None
        cut = self._cut
        for qubit in self._cut_flips.pop(cycle, ()):
            cut[qubit] = cut[qubit].flipped()

    def _layer_key(self, order, cycle: int) -> tuple:
        signatures = self._signatures
        signatures.pop(cycle - 1, None)  # no later key reads a past cycle
        return self._fingerprint.key(
            order, self._cut, self._busy_until, cycle, self._usage_by_cycle, signatures
        )

    def _act(self, node: int, qubit_a: int, qubit_b: int, ready_count: int):
        cut = self._cut
        if cut[qubit_a] != cut[qubit_b]:
            path = self._braid(node, qubit_a, qubit_b)
            return None if path is None else ("braid", path)
        cycle, busy_until = self._cycle, self._busy_until
        decision = self._cut_strategy(
            CutContext(
                dag=self._dag,
                node=node,
                qubit_a=qubit_a,
                qubit_b=qubit_b,
                cut_types=cut,
                idle_a=cycle - busy_until[qubit_a],
                idle_b=cycle - busy_until[qubit_b],
                ready_count=ready_count,
                bandwidth=self._mapping.chip.bandwidth,
                num_qubits=self._circuit.num_qubits,
            )
        )
        if decision.modify and decision.qubit is not None:
            finished = self._modify(decision.qubit)
            # A modification that fit entirely into past idle cycles leaves
            # the cut types differing, so the braid is tried immediately.
            path = self._braid(node, qubit_a, qubit_b) if finished else None
            return ("modify", 0 if decision.qubit == qubit_a else 1, finished, path)
        path = self._direct_path(qubit_a, qubit_b)
        if path is None:
            return None
        self._book_direct(node, qubit_a, qubit_b, path)
        return ("direct", path)

    def _braid(self, node: int, qubit_a: int, qubit_b: int) -> IdPath | None:
        path = super()._braid(node, qubit_a, qubit_b)
        if path is not None and self._span is not None:
            _raise_span(self._span, self._usage_now, path)
        return path

    def _book_direct(self, node: int, qubit_a: int, qubit_b: int, path: IdPath) -> None:
        """Book a three-cycle same-cut CNOT, reserving its path for its whole span."""
        usage_by_cycle, signatures, span = self._usage_by_cycle, self._signatures, self._span
        for at in range(self._cycle, self._cycle + DIRECT_SAME_CUT_CYCLES):
            cycle_usage = usage_by_cycle.setdefault(at, CapacityUsage())
            cycle_usage.add_path(path)
            if span is not None:
                _raise_span(span, cycle_usage, path)
            # Later layer keys read this cycle's signature; evict it.
            signatures.pop(at, None)
        self._book(node, qubit_a, qubit_b, path, OperationKind.CNOT_SAME_CUT, DIRECT_SAME_CUT_CYCLES)

    def _modify(self, qubit: int) -> bool:
        """Schedule a cut-type modification; returns True when it completes immediately.

        The modification may overlap up to ``MODIFICATION_CYCLES`` cycles the
        tile has already spent idle (the paper's "performed earlier" rule); the
        recorded operation keeps its true start cycle so the validator can
        check the tile really was idle.
        """
        cycle, cut = self._cycle, self._cut
        overlap = min(MODIFICATION_CYCLES, max(0, cycle - self._busy_until[qubit]))
        start = cycle - overlap
        end = start + MODIFICATION_CYCLES
        self.counters.cut_modifications += 1
        self._operations.append(
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
        self._busy_until[qubit] = end
        self._cut_flips[end].append(qubit)
        return False

    def _direct_path(self, qubit_a: int, qubit_b: int) -> IdPath | None:
        """Find a path free in every cycle a direct CNOT starting now occupies.

        The search runs against the cycle's span view, built here on the
        cycle's first direct query.
        """
        span = self._span
        if span is None:
            span = self._span = CapacityUsage()
            used, node_used = span.used, span.node_used
            for at in range(self._cycle, self._cycle + DIRECT_SAME_CUT_CYCLES):
                cycle_usage = self._usage_by_cycle.get(at)
                if cycle_usage is None:
                    continue
                for eid, count in cycle_usage.used.items():
                    if used.get(eid, 0) < count:
                        used[eid] = count
                for node, count in cycle_usage.node_used.items():
                    if node_used.get(node, 0) < count:
                        node_used[node] = count
        return self._route(span, qubit_a, qubit_b)


def _raise_span(span: CapacityUsage, cycle_usage: CapacityUsage, path: IdPath) -> None:
    """Raise ``span`` to ``cycle_usage``'s counts on the steps of ``path``, just reserved there."""
    used, cycle_used = span.used, cycle_usage.used
    for eid in path.edges:
        count = cycle_used[eid]
        if used.get(eid, 0) < count:
            used[eid] = count
    node_used, cycle_node_used = span.node_used, cycle_usage.node_used
    for node in path.interior:
        count = cycle_node_used[node]
        if node_used.get(node, 0) < count:
            node_used[node] = count
