"""Kernighan–Lin / Fiduccia–Mattheyses weighted graph bisection.

The paper uses METIS to map logical qubits onto the tile array according to
the communication graph.  METIS is a multilevel refinement partitioner whose
core refinement step is Kernighan–Lin / Fiduccia–Mattheyses; this module
implements both refinement cores from scratch (the recursive and multilevel
drivers live in :mod:`repro.partition.placement` and
:mod:`repro.partition.coarsen`):

* :func:`kernighan_lin_bisection` — the classic KL formulation: repeatedly
  compute gains ``D[v] = external(v) - internal(v)``, greedily swap the
  highest-gain *pair*, lock the swapped vertices, and keep the best prefix
  of swaps of each pass.  The pair search is an all-pairs scan, O(n²) per
  swap — obviously correct, and the reference placement engine's core.
* :func:`fm_refine` + :class:`GainBuckets` — the Fiduccia–Mattheyses
  formulation over contiguous local vertex ids: per-vertex gains indexed
  into array-backed bucket lists (intrusive doubly-linked lists over flat
  arrays, mirroring the CompactRoutingGraph idiom of
  :mod:`repro.chip.graph_arrays`), single-vertex moves under a balance
  window, O(degree) gain updates per move.  This is the fast placement
  engine's core; one pass costs O(V + E) instead of O(n³).
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.errors import PartitionError

#: Weighted adjacency: ``weights[(a, b)] = w`` with ``a < b``.
WeightMap = dict[tuple[int, int], float]


def cut_weight(weights: WeightMap, side_a: set[int], side_b: set[int]) -> float:
    """Total weight of edges crossing the bisection."""
    total = 0.0
    for (a, b), w in weights.items():
        if (a in side_a and b in side_b) or (a in side_b and b in side_a):
            total += w
    return total


def _neighbor_weights(weights: WeightMap, vertices: Sequence[int]) -> dict[int, dict[int, float]]:
    adjacency: dict[int, dict[int, float]] = {v: {} for v in vertices}
    for (a, b), w in weights.items():
        if a in adjacency and b in adjacency:
            adjacency[a][b] = adjacency[a].get(b, 0.0) + w
            adjacency[b][a] = adjacency[b].get(a, 0.0) + w
    return adjacency


def kernighan_lin_bisection(
    vertices: Sequence[int],
    weights: WeightMap,
    max_passes: int = 10,
    seed: int | None = None,
    initial: tuple[set[int], set[int]] | None = None,
    size_a: int | None = None,
) -> tuple[set[int], set[int]]:
    """Bisect ``vertices`` into two halves with small cut weight.

    By default the split is balanced (sizes differ by at most one vertex);
    ``size_a`` requests an explicit size for the first side, which the
    recursive grid placement uses when a region splits unevenly.  ``initial``
    may provide a starting partition (e.g. from a previous level of
    recursion); otherwise a random split of the requested sizes seeds the
    refinement.  KL passes swap vertex pairs, so the requested sizes are
    preserved exactly — which is also why an ``initial`` partition whose
    first side does not already have ``size_a`` vertices is rejected rather
    than silently refined at the wrong balance.
    """
    vertex_list = list(vertices)
    if len(vertex_list) < 2:
        raise PartitionError("bisection needs at least two vertices")
    if len(set(vertex_list)) != len(vertex_list):
        raise PartitionError("duplicate vertices in bisection input")
    if size_a is not None and not 0 < size_a < len(vertex_list):
        raise PartitionError(f"size_a={size_a} must be strictly between 0 and {len(vertex_list)}")
    rng = random.Random(seed)
    if initial is None:
        shuffled = vertex_list[:]
        rng.shuffle(shuffled)
        half = size_a if size_a is not None else (len(shuffled) + 1) // 2
        side_a, side_b = set(shuffled[:half]), set(shuffled[half:])
    else:
        side_a, side_b = set(initial[0]), set(initial[1])
        if side_a | side_b != set(vertex_list) or side_a & side_b:
            raise PartitionError("initial partition does not cover the vertex set")
        if size_a is not None and len(side_a) != size_a:
            raise PartitionError(
                f"initial partition has {len(side_a)} vertices on the first side "
                f"but size_a={size_a} was requested; KL swaps preserve sizes, so "
                f"the initial split must already match"
            )
    adjacency = _neighbor_weights(weights, vertex_list)

    for _ in range(max_passes):
        improved = _kl_pass(side_a, side_b, adjacency)
        if not improved:
            break
    return side_a, side_b


def _gains(side_a: set[int], side_b: set[int], adjacency: dict[int, dict[int, float]]) -> dict[int, float]:
    gains: dict[int, float] = {}
    for vertex, neighbors in adjacency.items():
        own = side_a if vertex in side_a else side_b
        external = sum(w for n, w in neighbors.items() if n not in own)
        internal = sum(w for n, w in neighbors.items() if n in own)
        gains[vertex] = external - internal
    return gains


def _kl_pass(side_a: set[int], side_b: set[int], adjacency: dict[int, dict[int, float]]) -> bool:
    """One KL pass; returns True when the partition was improved."""
    gains = _gains(side_a, side_b, adjacency)
    locked: set[int] = set()
    swap_sequence: list[tuple[int, int, float]] = []
    work_a, work_b = set(side_a), set(side_b)

    for _ in range(min(len(work_a), len(work_b))):
        best: tuple[float, int, int] | None = None
        # Sorted scans pin the gain tie-break to vertex order: set iteration
        # order is hash-history-dependent, and the winning pair of an
        # equal-gain tie must not vary between two runs that feed the
        # golden-parity harness.
        for a in sorted(work_a):
            if a in locked:
                continue
            for b in sorted(work_b):
                if b in locked:
                    continue
                cross = adjacency[a].get(b, 0.0)
                gain = gains[a] + gains[b] - 2.0 * cross
                if best is None or gain > best[0]:
                    best = (gain, a, b)
        if best is None:
            break
        gain, a, b = best
        swap_sequence.append((a, b, gain))
        locked.add(a)
        locked.add(b)
        # Update gains as if a and b were swapped.
        for vertex, neighbors in adjacency.items():
            if vertex in locked:
                continue
            delta = 0.0
            in_a = vertex in work_a
            if a in neighbors:
                delta += (2.0 if in_a else -2.0) * neighbors[a]
            if b in neighbors:
                delta += (-2.0 if in_a else 2.0) * neighbors[b]
            gains[vertex] += delta
        work_a.remove(a)
        work_b.remove(b)
        work_a.add(b)
        work_b.add(a)

    # Keep the best prefix of swaps.
    best_total = 0.0
    best_prefix = 0
    running = 0.0
    for index, (_, _, gain) in enumerate(swap_sequence, start=1):
        running += gain
        if running > best_total + 1e-12:
            best_total = running
            best_prefix = index
    if best_prefix == 0:
        return False
    for a, b, _ in swap_sequence[:best_prefix]:
        side_a.remove(a)
        side_b.remove(b)
        side_a.add(b)
        side_b.add(a)
    return True


class GainBuckets:
    """Array-backed gain bucket lists over contiguous vertex ids.

    FM gains are integers bounded by the maximum weighted degree, so every
    possible gain maps to one bucket.  Buckets are intrusive doubly-linked
    lists stored in flat arrays (``_head`` per bucket, ``_next``/``_prev``
    per vertex), the same idiom :class:`repro.chip.graph_arrays.CompactRoutingGraph`
    uses for adjacency: no per-entry objects, O(1) insert/remove, and a
    lazily-lowered top pointer so finding the best gain is amortized O(1).
    """

    def __init__(self, count: int, max_gain: int) -> None:
        if max_gain < 1:
            max_gain = 1
        self.max_gain = max_gain
        self._head = [-1] * (2 * max_gain + 1)
        self._next = [-1] * count
        self._prev = [-1] * count
        self._gain = [0] * count
        self._member = [False] * count
        self._top = -1

    def __contains__(self, vertex: int) -> bool:
        return self._member[vertex]

    def gain_of(self, vertex: int) -> int:
        """Current gain of ``vertex`` (only meaningful while a member)."""
        return self._gain[vertex]

    def insert(self, vertex: int, gain: int) -> None:
        """Add ``vertex`` at ``gain``, pushing it to the bucket head."""
        index = gain + self.max_gain
        head = self._head[index]
        self._gain[vertex] = gain
        self._next[vertex] = head
        self._prev[vertex] = -1
        if head != -1:
            self._prev[head] = vertex
        self._head[index] = vertex
        self._member[vertex] = True
        if index > self._top:
            self._top = index

    def remove(self, vertex: int) -> None:
        """Unlink ``vertex`` from its bucket (e.g. when it gets locked)."""
        index = self._gain[vertex] + self.max_gain
        nxt, prv = self._next[vertex], self._prev[vertex]
        if prv == -1:
            self._head[index] = nxt
        else:
            self._next[prv] = nxt
        if nxt != -1:
            self._prev[nxt] = prv
        self._member[vertex] = False

    def adjust(self, vertex: int, delta: int) -> None:
        """Shift a member vertex's gain by ``delta`` in O(1)."""
        if delta:
            gain = self._gain[vertex] + delta
            self.remove(vertex)
            self.insert(vertex, gain)

    def best(self, feasible) -> int:
        """Highest-gain member vertex satisfying ``feasible``, or ``-1``.

        Scans buckets from the top pointer downward; empty buckets at the
        top are compacted away so repeated calls stay amortized O(1) plus
        the (rare) infeasible entries skipped.
        """
        index = self._top
        compacting = True
        while index >= 0:
            vertex = self._head[index]
            if vertex == -1:
                if compacting:
                    self._top = index - 1
                index -= 1
                continue
            compacting = False
            while vertex != -1:
                if feasible(vertex):
                    return vertex
                vertex = self._next[vertex]
            index -= 1
        return -1


def cut_weight_arrays(
    adj_index: Sequence[int],
    adj_vertex: Sequence[int],
    adj_weight: Sequence[int],
    side: Sequence[int],
) -> int:
    """Cut weight of a 0/1 side assignment over a CSR adjacency."""
    total = 0
    for v in range(len(side)):
        for k in range(adj_index[v], adj_index[v + 1]):
            u = adj_vertex[k]
            if u > v and side[u] != side[v]:
                total += adj_weight[k]
    return total


def fm_refine(
    adj_index: Sequence[int],
    adj_vertex: Sequence[int],
    adj_weight: Sequence[int],
    side: list[int],
    vertex_weight: Sequence[int],
    target_a: int,
    *,
    move_tolerance: int = 0,
    accept_tolerance: int = 0,
    max_passes: int = 8,
) -> int:
    """Fiduccia–Mattheyses refinement of a 0/1 ``side`` assignment in place.

    ``adj_index``/``adj_vertex``/``adj_weight`` is a CSR adjacency over
    contiguous vertex ids with **integer** weights (quantize floats before
    calling); ``vertex_weight`` carries the accumulated weights of coarsened
    vertices and ``target_a`` the desired total vertex weight on side 0.

    Each pass moves single vertices, best gain first, under a balance
    window: a move is feasible while the resulting deviation from
    ``target_a`` stays within ``move_tolerance`` *or* shrinks.  The pass
    then keeps the prefix of moves minimizing
    ``(balance violation beyond accept_tolerance, -cumulative gain)`` —
    strictly better than keeping nothing.  Consequences: a partition that
    already satisfies ``accept_tolerance`` only ever gets a strictly
    smaller cut at unchanged-or-better balance (so the cut never
    increases), while an out-of-window partition (e.g. freshly projected
    from a coarser level) is pulled back toward ``target_a`` even when
    that costs cut weight.  With unit vertex weights and
    ``accept_tolerance=0`` the requested sizes are restored exactly.

    Returns the final cut weight.
    """
    n = len(side)
    max_gain = 1
    for v in range(n):
        wdeg = 0
        for k in range(adj_index[v], adj_index[v + 1]):
            wdeg += adj_weight[k]
        if wdeg > max_gain:
            max_gain = wdeg
    for _ in range(max_passes):
        if not _fm_pass(
            adj_index,
            adj_vertex,
            adj_weight,
            side,
            vertex_weight,
            target_a,
            move_tolerance,
            accept_tolerance,
            max_gain,
        ):
            break
    return cut_weight_arrays(adj_index, adj_vertex, adj_weight, side)


def _fm_pass(
    adj_index: Sequence[int],
    adj_vertex: Sequence[int],
    adj_weight: Sequence[int],
    side: list[int],
    vertex_weight: Sequence[int],
    target_a: int,
    move_tolerance: int,
    accept_tolerance: int,
    max_gain: int,
) -> bool:
    """One FM pass; returns True when a non-empty prefix was accepted."""
    n = len(side)
    weight_a = sum(vertex_weight[v] for v in range(n) if side[v] == 0)
    buckets = GainBuckets(n, max_gain)
    for v in range(n):
        gain = 0
        for k in range(adj_index[v], adj_index[v + 1]):
            w = adj_weight[k]
            gain += w if side[adj_vertex[k]] != side[v] else -w
        buckets.insert(v, gain)

    best_violation = max(0, abs(weight_a - target_a) - accept_tolerance)
    best_gain = 0
    best_prefix = 0
    cumulative = 0
    moves: list[int] = []
    while True:
        deviation = abs(weight_a - target_a)

        def feasible(v: int) -> bool:
            delta = -vertex_weight[v] if side[v] == 0 else vertex_weight[v]
            after = abs(weight_a + delta - target_a)
            return after <= move_tolerance or after < deviation

        vertex = buckets.best(feasible)
        if vertex < 0:
            break
        cumulative += buckets.gain_of(vertex)
        buckets.remove(vertex)
        old = side[vertex]
        side[vertex] = 1 - old
        weight_a += vertex_weight[vertex] if old == 1 else -vertex_weight[vertex]
        moves.append(vertex)
        for k in range(adj_index[vertex], adj_index[vertex + 1]):
            u = adj_vertex[k]
            if buckets._member[u]:
                w = adj_weight[k]
                buckets.adjust(u, 2 * w if side[u] == old else -2 * w)
        violation = max(0, abs(weight_a - target_a) - accept_tolerance)
        if (violation, -cumulative) < (best_violation, -best_gain):
            best_violation = violation
            best_gain = cumulative
            best_prefix = len(moves)

    for vertex in moves[best_prefix:]:
        side[vertex] = 1 - side[vertex]
    return best_prefix > 0
