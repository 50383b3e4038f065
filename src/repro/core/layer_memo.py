"""Layer-fingerprint memoization for the Algorithm 1 schedulers.

Generator circuits (ising, dnn, qft, ghz …) repeat the same dependency layer
many times: the same ordered set of tile pairs, the same cut types, the same
residual capacities.  The schedulers therefore re-derive the exact same cycle
— the same routing queries, the same cut decisions, the same reservations —
over and over.  This module builds a *fingerprint* of everything one
scheduling cycle can read, so a scheduler can cache the cycle's outcome on
the first occurrence and replay it on repeats without touching the router or
the decision strategies.

Soundness is the whole game: a fingerprint hit must imply a bit-identical
cycle.  The keys below are derived from the schedulers' actual read sets:

Lattice surgery (:class:`LsLayerKey`)
    A cycle starts from an empty :class:`CapacityUsage` and schedules braids
    in priority order; two simultaneously-ready gates can never share a qubit
    (gates on a common qubit are chained in the DAG), so no mid-cycle state
    leaks between gates beyond the usage tracker itself.  The outcome is a
    pure function of the **ordered operand tile-id pairs**.

Double defect (:class:`DdLayerKey`)
    Richer reads: per-gate cut types and idle times (idle matters only capped
    at :data:`MODIFICATION_CYCLES` — beyond that, overlap and
    ``remaining_modification`` saturate), the residual-capacity state of the
    current and next two cycles (direct CNOTs reserve a three-cycle span),
    θ via the ready count (the key's length), and — for the adaptive strategy
    — the look-ahead over successor partners' cut types.  A partner that is
    itself an operand of a gate in the current order may have its cut flipped
    *mid-cycle* (a modification overlapping enough idle time completes
    immediately), so such partners are encoded as **layer-local position
    references** rather than concrete cut values; partners outside the order
    cannot flip mid-cycle and are encoded by their concrete cut type.

Every key component is an integer or a small enum: operand tiles are
:class:`~repro.chip.routing_graph.RoutingGraph` tile ids (one to one with
tile slots, so id keys hit and miss exactly where slot keys did) and a
residual-capacity signature is the sorted edge-id and junction-id counts of
an id-keyed :class:`CapacityUsage`.  Key builders precompute every static
per-gate component (operand tile pairs, the look-ahead partner structure)
once per run, so the per-cycle fingerprint is a few list indexes per gate
rather than DAG walks.

Only the strategies in :data:`MEMO_SAFE_STRATEGIES` are memoized: their read
sets are known.  A custom strategy silently disables memoization rather than
risking an unsound replay.

``tests/test_layer_memo.py`` asserts memoized schedules are bit-identical to
unmemoized ones across the benchmark suite and under Hypothesis-generated
circuits.
"""

from __future__ import annotations

from repro.circuits.dag import GateDAG
from repro.core.cut_decisions import (
    MODIFICATION_CYCLES,
    adaptive_strategy,
    channel_first_strategy,
    never_modify_strategy,
    time_first_strategy,
)
from repro.core.cut_types import CutType
from repro.routing.paths import CapacityUsage

#: Strategies whose complete read set is covered by :class:`DdLayerKey`.
#: ``adaptive`` additionally reads the successor look-ahead (captured when
#: ``lookahead=True``); the other three read at most capped idle times.
MEMO_SAFE_STRATEGIES = (
    adaptive_strategy,
    time_first_strategy,
    channel_first_strategy,
    never_modify_strategy,
)

#: Strategies that require the successor look-ahead in the fingerprint.
LOOKAHEAD_STRATEGIES = (adaptive_strategy,)

#: Cache-miss sentinel for :class:`DdLayerKey`'s signature cache (``None`` is
#: a legitimate cached signature — it means "no reservations").
_NO_SIGNATURE = object()


def usage_signature(usage: CapacityUsage | None):
    """Hashable content signature of one cycle's reservations (None if empty).

    The sorted ``(edge id, lanes)`` and ``(junction id, paths)`` items: two
    usages on one graph share a signature exactly when they reserve the
    same lanes.
    """
    if usage is None or (not usage.used and not usage.node_used):
        return None
    return (
        tuple(sorted(usage.used.items())),
        tuple(sorted(usage.node_used.items())),
    )


class LsLayerKey:
    """Per-run fingerprint builder for lattice-surgery cycles."""

    def __init__(self, dag: GateDAG, tiles):
        #: (tile_a, tile_b) per DAG node, precomputed once from the
        #: qubit-indexed ``tiles``.
        self._pair_tiles = [
            (tiles[control], tiles[target]) for control, target in dag.operand_pairs
        ]

    def key(self, order) -> tuple:
        """Fingerprint of one cycle: the ordered operand tile pairs."""
        pair_tiles = self._pair_tiles
        return tuple(pair_tiles[node] for node in order)


class DdLayerKey:
    """Per-run fingerprint builder for double-defect cycles.

    ``span`` is the number of cycles a direct CNOT reserves
    (:data:`~repro.core.cut_decisions.DIRECT_SAME_CUT_CYCLES`): the residual
    state of cycles ``cycle .. cycle + span - 1`` can influence routing, so
    their signatures are part of the key.
    """

    def __init__(self, dag: GateDAG, tiles, span: int, lookahead: bool):
        self._dag = dag
        self._operands = dag.operand_pairs
        self._pair_tiles = [
            (tiles[control], tiles[target]) for control, target in dag.operand_pairs
        ]
        self._span = span
        # Per-node look-ahead partner tuples, computed lazily on first use
        # (schedulers may stop fingerprinting mid-run when the memo never
        # hits; eager construction would charge the whole DAG up front).
        self._lookahead: list[tuple[int, ...] | None] | None = (
            [None] * len(dag) if lookahead else None
        )

    def _lookahead_partners(self, node: int) -> tuple[int, ...]:
        """The look-ahead read order of the adaptive strategy for ``node``:
        for each operand qubit, the partners of the successor gates sharing
        it, flattened to the qubits their cut types are compared against."""
        dag = self._dag
        qubit_a, qubit_b = self._operands[node]
        partners = []
        for qubit in (qubit_a, qubit_b):
            for child in dag.successors(node):
                child_a, child_b = dag.operands(child)
                if qubit == child_a:
                    partners.append(child_b)
                elif qubit == child_b:
                    partners.append(child_a)
        return tuple(partners)

    def key(
        self,
        order,
        cut: dict[int, CutType],
        busy_until: dict[int, int],
        cycle: int,
        usage_by_cycle: dict[int, CapacityUsage],
        signature_cache: dict[int, object] | None = None,
    ) -> tuple:
        """Fingerprint of one cycle under the current scheduler state.

        ``signature_cache`` memoizes residual-usage signatures by cycle
        number; the scheduler must evict a cycle's entry whenever it reserves
        capacity into that cycle (direct CNOTs reserve forward spans).
        """
        operands = self._operands
        pair_tiles = self._pair_tiles
        lookahead = self._lookahead
        position_get = None
        if lookahead is not None:
            # Where each qubit appears in this cycle's order — look-ahead
            # partners found here are encoded positionally (their cut may
            # flip mid-cycle).
            qubit_position: dict[int, tuple[int, int]] = {}
            for position, node in enumerate(order):
                qubit_a, qubit_b = operands[node]
                qubit_position[qubit_a] = (position, 0)
                qubit_position[qubit_b] = (position, 1)
            position_get = qubit_position.get
        parts = []
        append = parts.append
        for node in order:
            qubit_a, qubit_b = operands[node]
            idle_a = cycle - busy_until[qubit_a]
            idle_b = cycle - busy_until[qubit_b]
            entry = (
                pair_tiles[node],
                cut[qubit_a],
                cut[qubit_b],
                # Idle beyond MODIFICATION_CYCLES saturates both the overlap
                # rule and remaining_modification, so the cap loses nothing.
                idle_a if idle_a < MODIFICATION_CYCLES else MODIFICATION_CYCLES,
                idle_b if idle_b < MODIFICATION_CYCLES else MODIFICATION_CYCLES,
            )
            if lookahead is not None:
                partners = lookahead[node]
                if partners is None:
                    partners = self._lookahead_partners(node)
                    lookahead[node] = partners
                if partners:
                    entry = entry + tuple(
                        position_get(partner) or ("cut", cut[partner])
                        for partner in partners
                    )
            append(entry)
        if signature_cache is None:
            signatures = tuple(
                usage_signature(usage_by_cycle.get(cycle + offset))
                for offset in range(self._span)
            )
        else:
            parts_sig = []
            for offset in range(self._span):
                at = cycle + offset
                sig = signature_cache.get(at, _NO_SIGNATURE)
                if sig is _NO_SIGNATURE:
                    sig = usage_signature(usage_by_cycle.get(at))
                    signature_cache[at] = sig
                parts_sig.append(sig)
            signatures = tuple(parts_sig)
        return (tuple(parts), signatures)
