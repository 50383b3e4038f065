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

    def _book_direct(self, node: int, qubit_a: int, qubit_b: int, path: IdPath) -> None:
        """Book a three-cycle same-cut CNOT, reserving its path for its whole span."""
        usage_by_cycle, signatures = self._usage_by_cycle, self._signatures
        for at in range(self._cycle, self._cycle + DIRECT_SAME_CUT_CYCLES):
            usage_by_cycle.setdefault(at, CapacityUsage()).add_path(path)
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

        The search runs against a merged usage view holding, for every edge
        id and junction id, the maximum reservation over the involved cycles.
        """
        involved = [
            cycle_usage
            for at in range(self._cycle, self._cycle + DIRECT_SAME_CUT_CYCLES)
            if (cycle_usage := self._usage_by_cycle.get(at)) is not None
            and (cycle_usage.used or cycle_usage.node_used)
        ]
        if len(involved) == 1:
            # Common case: only the current cycle carries reservations, so the
            # merged view is that cycle's usage verbatim — search it directly.
            merged = involved[0]
        else:
            merged = CapacityUsage()
            for cycle_usage in involved:
                for eid, used in cycle_usage.used.items():
                    merged.used[eid] = max(merged.used.get(eid, 0), used)
                for node, used in cycle_usage.node_used.items():
                    merged.node_used[node] = max(merged.node_used.get(node, 0), used)
        return self._route(merged, qubit_a, qubit_b)
