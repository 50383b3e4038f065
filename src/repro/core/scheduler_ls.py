"""Algorithm 1 policy for the lattice surgery model.

Lattice surgery CNOTs all cost one clock cycle: a Bell state is built through
a corridor of ancilla tiles between the two operand tiles (Fig. 4), so the
scheduling problem reduces to picking, in every cycle, a maximal
capacity-respecting set of ready gates.
:class:`~repro.core.algorithm1.Algorithm1Scheduler` runs the cycle loop; the
policy here routes each gate as one braid through the corridor graph, and
gates that cannot be routed wait for the next cycle.

The same scheduler with the EDPCI gate order (shortest tile separation first,
trivial snake placement) is used as the EDPCI baseline.

A lattice-surgery cycle starts from empty capacity usage, so its layer key
(:class:`~repro.core.layer_memo.LsLayerKey`) is just its ordered operand
tile ids; its records are ``("braid", path)`` (an id path) or ``None``.
"""

from __future__ import annotations

from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.core.algorithm1 import Algorithm1Scheduler
from repro.core.layer_memo import LsLayerKey
from repro.core.mapping import InitialMapping
from repro.core.priorities import PriorityKey, criticality_priority
from repro.routing.fast_router import DEFAULT_CONGESTION_WEIGHT


class LatticeSurgeryScheduler(Algorithm1Scheduler):
    """Schedules one circuit on one lattice-surgery chip (Algorithm 1)."""

    model = SurfaceCodeModel.LATTICE_SURGERY
    kind = "lattice surgery"
    gate_cycles = 1

    def __init__(
        self,
        circuit: Circuit,
        mapping: InitialMapping,
        priority: PriorityKey = criticality_priority,
        congestion_weight: float = DEFAULT_CONGESTION_WEIGHT,
        method: str = "ecmas-ls",
        max_cycles: int | None = None,
        dag=None,
        window: int | None = None,
        memoize: bool = True,
    ):
        super().__init__(
            circuit,
            mapping,
            priority=priority,
            congestion_weight=congestion_weight,
            method=method,
            max_cycles=max_cycles,
            dag=dag,
            window=window,
            memoize=memoize,
        )

    def _start(self, operations):
        frontier = super()._start(operations)
        self._fingerprint = LsLayerKey(self._dag, self._tile_ids) if self._memoize else None
        return frontier

    def _layer_key(self, order, cycle: int) -> tuple:
        return self._fingerprint.key(order)

    def _act(self, node: int, qubit_a: int, qubit_b: int, ready_count: int):
        path = self._braid(node, qubit_a, qubit_b)
        return None if path is None else ("braid", path)
