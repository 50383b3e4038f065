"""Incremental ready-set and priority maintenance for the schedulers.

Algorithm 1 as stated rebuilds its view of the ready set every cycle: it
sorts the frontier's ready nodes, filters out already-dispatched gates,
filters out busy tiles and then re-sorts by priority.  All of that is
O(R log R) per cycle even though the ready set changes only at gate dispatch
and gate retirement.

:class:`IncrementalReadyQueue` keeps the ready set permanently ordered
instead.  A priority is a fixed per-node sort key (see
:mod:`repro.core.priorities`), evaluated once per node when it becomes
ready — criticality and descendant counts are already computed once on the
DAG — and the sorted entries are maintained under two O(log R) events:

* :meth:`add` when gate retirement makes new nodes ready,
* :meth:`discard` when a gate is dispatched.

The per-cycle cost is then a single linear scan over the ordered entries to
drop busy tiles (:meth:`available`), which yields *exactly* the list the
per-cycle rebuild computes (``tests/oracle/engine.py`` holds the rebuild).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heappop, heappush

from repro.circuits.dag import GateDAG
from repro.core.priorities import PriorityKey
from repro.errors import SchedulingError


class IncrementalReadyQueue:
    """Priority-ordered view of the not-yet-dispatched ready gates."""

    def __init__(self, dag: GateDAG, priority: PriorityKey, initial_ready=()):
        self._dag = dag
        self._key = priority
        #: Sorted (key, node, control, target) entries.
        self._entries: list[tuple] = []
        self.add(initial_ready)

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, nodes) -> None:
        """Insert newly ready nodes (from gate retirement)."""
        dag, key = self._dag, self._key
        operands = dag.operand_pairs
        for node in nodes:
            control, target = operands[node]
            insort(self._entries, (key(dag, node), node, control, target))

    def discard(self, node: int) -> None:
        """Remove a dispatched node from the ready view."""
        # A (key, node) 2-tuple sorts immediately before the 4-tuple entry it
        # prefixes, so bisect_left lands exactly on the node's entry.
        index = bisect_left(self._entries, (self._key(self._dag, node), node))
        if index < len(self._entries) and self._entries[index][1] == node:
            del self._entries[index]

    def available(self, busy_until: dict[int, int], cycle: int) -> list[int]:
        """Ready nodes whose operand tiles are free, smallest key first."""
        return [
            node
            for _key, node, control, target in self._entries
            if busy_until[control] <= cycle and busy_until[target] <= cycle
        ]


class WindowedDagFrontier:
    """A sliding-window view over a :class:`~repro.circuits.dag.DagFrontier`.

    Large circuits (n >= 500 qubits, 10k+ gates) can expose thousands of
    simultaneously-ready gates: the full frontier makes every scheduling
    cycle pay for a ready set far wider than the chip can route anyway, and
    the working structures (priority queue, per-cycle bookkeeping) grow with
    it.  This view caps the *visible* ready set to a window of ``window``
    gates in program order: only nodes with id below ``low + window`` are
    presented, where ``low`` is the smallest not-yet-completed node.  As the
    oldest gates finish, the window slides forward and the DAG-ready nodes it
    admits are surfaced through :meth:`complete` exactly as if they had just
    become ready.

    Deadlock-free by construction: DAG edges always point forward in program
    order, so the smallest incomplete node has all predecessors completed —
    it is ready and always inside the window.

    Windowed schedules are generally *different* from full-frontier schedules
    (the scheduler cannot pull far-ahead gates into early cycles), but every
    dependency and capacity constraint still holds — the validator accepts
    them unchanged (``tests/test_windowed.py``).
    """

    def __init__(self, dag: GateDAG, window: int):
        if window < 1:
            raise SchedulingError(f"scheduling window must be >= 1, got {window}")
        self._inner = dag.frontier()
        self._window = window
        self._low = 0
        self._limit = min(window, len(dag))
        #: DAG-ready nodes currently beyond the window limit (min-heap).
        self._hidden: list[int] = []
        for node in self._inner.ready_nodes():
            if node >= self._limit:
                heappush(self._hidden, node)

    @property
    def dag(self) -> GateDAG:
        """The underlying immutable DAG."""
        return self._inner.dag

    @property
    def window(self) -> int:
        """The configured window width (gates in program order)."""
        return self._window

    @property
    def num_remaining(self) -> int:
        """Number of gates not yet completed."""
        return self._inner.num_remaining

    def is_done(self) -> bool:
        """True when every gate has completed."""
        return self._inner.is_done()

    def ready_nodes(self) -> tuple[int, ...]:
        """Ready nodes inside the window, in ascending node id order."""
        return tuple(
            node for node in self._inner.ready_nodes() if node < self._limit
        )

    def is_ready(self, node: int) -> bool:
        """True if ``node`` is DAG-ready and inside the window."""
        return node < self._limit and self._inner.is_ready(node)

    def is_completed(self, node: int) -> bool:
        """True if ``node`` has been completed."""
        return self._inner.is_completed(node)

    def remaining_nodes(self) -> tuple[int, ...]:
        """All nodes not yet completed (windowed or not)."""
        return self._inner.remaining_nodes()

    def complete(self, node: int) -> tuple[int, ...]:
        """Mark ``node`` executed; returns nodes that became *visible* ready.

        Covers both nodes that just became DAG-ready inside the window and
        previously-ready nodes the sliding window just admitted.
        """
        surfaced = []
        for ready in self._inner.complete(node):
            if ready < self._limit:
                surfaced.append(ready)
            else:
                heappush(self._hidden, ready)
        inner = self._inner
        low = self._low
        while low < len(inner.dag) and inner.is_completed(low):
            low += 1
        self._low = low
        new_limit = min(len(inner.dag), low + self._window)
        if new_limit > self._limit:
            self._limit = new_limit
            while self._hidden and self._hidden[0] < self._limit:
                surfaced.append(heappop(self._hidden))
        return tuple(sorted(surfaced))
