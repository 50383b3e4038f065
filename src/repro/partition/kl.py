"""Kernighan–Lin / Fiduccia–Mattheyses weighted graph bisection.

The paper uses METIS to map logical qubits onto the tile array according to
the communication graph.  METIS is a multilevel refinement partitioner whose
core refinement step is Kernighan–Lin / Fiduccia–Mattheyses; this module
implements both refinement cores from scratch (the recursive and multilevel
drivers live in :mod:`repro.partition.placement` and
:mod:`repro.partition.coarsen`).

Both cores read one :data:`WeightRows` adjacency: ``rows[v]`` maps each
neighbour of ``v`` to the edge weight, in edge order.  A placement builds it
once per compile from the communication graph (:func:`weight_rows`, CNOT
counts kept as ``int``, weights checked once by :func:`check_weights`) and
every bisection of every attempt shares it: a region is an id-sorted vertex
list into the rows, and the cores hand back id-sorted side lists.  A row may
name vertices outside the region; each bisection reads only the region's
entries, in row order, so every gain is the same sum a region-restricted map
would give.  The public :func:`kernighan_lin_bisection` is a thin adapter
that builds the same rows from a :data:`WeightMap`.

* :func:`kl_refine` — the classic KL formulation: repeatedly compute gains
  ``D[v] = external(v) - internal(v)``, greedily swap the highest-gain
  *pair*, lock the swapped vertices, and keep the best prefix of swaps of
  each pass.  This is the reference placement engine's core.  Each swap
  picks the pair a row-major all-pairs scan would pick — the maximum
  ``(D[a] + D[b]) - 2·w(a, b)``, ties to the smallest ``a``, then the
  smallest ``b`` — with a pruned scan.  Unlocked vertices never change sides
  within a pass, so each side keeps one sorted free list; a swap orders free
  ``B`` by ``(-D[b], b)`` once, walks free ``A`` in id order, skips an ``a``
  whose bound ``D[a] + max D[b]`` cannot beat the best pair so far, and
  stops the walk over ``B`` once ``D[a] + D[b]`` falls below the best gain
  found for that ``a``.  The pruning is exact: weights are finite and
  ``>= 0`` (checked on entry), and subtracting a non-negative float never
  rounds upward, so ``fl(D[a] + D[b])`` bounds every gain a skipped pair
  could reach.  After a swap only the pair's free neighbours get new
  gains.  Gains are two ``sum()`` calls per vertex, never a hand-written
  loop: from Python 3.12 ``sum()`` of floats is compensated, and the
  oracle uses it.  Gain arithmetic multiplies by the int ``2``, so integer
  weights (CNOT counts) keep every gain an exact int, while fractional
  weights give the floats ``2.0 *`` would.  Two region shapes skip the
  generic pass, exactly: a 2-vertex region keeps its start, because its
  only swap gains ``(w + w) - 2·w = 0`` (or less, with self-loops) and a
  pass keeps only gains above ``1e-12``; a 2/2 four-vertex region runs an
  unrolled pass that scores its four pairs in row-major order.
  ``tests/oracle/kl.py`` keeps the all-pairs original this core is
  differential-tested against.
* :func:`fm_refine` + :class:`GainBuckets` — the Fiduccia–Mattheyses
  formulation over contiguous local vertex ids: per-vertex gains indexed
  into array-backed bucket lists (intrusive doubly-linked lists over flat
  arrays, mirroring the integer-indexed idiom of
  :mod:`repro.chip.routing_graph`), single-vertex moves under a balance
  window, O(degree) gain updates per move.  This is the fast placement
  engine's core; one pass costs O(V + E) instead of O(n³).
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Sequence

from repro.errors import PartitionError
from repro.profiling import PlacementCounters

#: Weighted adjacency: ``weights[(a, b)] = w`` with ``a < b``.
WeightMap = dict[tuple[int, int], float]

#: Per-vertex weighted rows: ``rows[v][u]`` is the weight between ``v`` and
#: ``u``, each row in edge order (see :func:`weight_rows`).
WeightRows = dict[int, dict[int, float]]

#: A region's rows by position: ``inner[i][j]`` is the weight between the
#: region's ``i``-th and ``j``-th vertex, each row in edge order.
RegionRows = list[dict[int, float]]

#: Edge weights may sum to at most this (float range ends just below
#: ``2**1024``), so every KL gain, gain sum and FM-quantized weight
#: (``w · 1024``) stays finite.
MAX_TOTAL_WEIGHT = 2.0**1000


def cut_weight(weights: WeightMap, side_a: set[int], side_b: set[int]) -> float:
    """Total weight of edges crossing the bisection."""
    total = 0.0
    for (a, b), w in weights.items():
        if (a in side_a and b in side_b) or (a in side_b and b in side_a):
            total += w
    return total


def check_weights(edges: Iterable[tuple[int, int, float]]) -> None:
    """Raise :class:`PartitionError` naming the first edge with an unusable weight.

    ``edges`` holds ``(a, b, w)`` triples.  Zero and fractional weights are
    legal; a weight is rejected when it is negative or not finite, or when it
    takes the running total past :data:`MAX_TOTAL_WEIGHT`, where a core's
    gain or quantization arithmetic could overflow.  Both bisection cores
    rely on it: KL's pruned pair search and 2-vertex shortcut need finite
    gains, FM's quantization finite scaled weights.
    """
    total = 0.0
    for a, b, w in edges:
        if not 0.0 <= w <= MAX_TOTAL_WEIGHT - total:
            raise PartitionError(
                f"edge {(a, b)} has weight {w!r}; edge weights must be finite, >= 0 "
                f"and sum to at most 2**1000"
            )
        total += w


def weight_rows(vertices: Iterable[int], edges: Iterable[tuple[int, int, float]]) -> WeightRows:
    """The :data:`WeightRows` of ``(a, b, w)`` triples, every ``vertices`` member a row.

    Repeated pairs merge into the row entry of their first occurrence, and a
    self-loop counts twice in its row (it is internal to either side).
    Weights are not checked here; callers run :func:`check_weights` once.
    """
    rows: WeightRows = {v: {} for v in vertices}
    for a, b, w in edges:
        row = rows.setdefault(a, {})
        row[b] = row.get(b, 0) + w
        row = rows.setdefault(b, {})
        row[a] = row.get(a, 0) + w
    return rows


def _seeded_start(vertices: Sequence[int], size_a: int, seed: int | None) -> list[int]:
    """KL's starting first side: the first ``size_a`` of a seeded shuffle."""
    shuffled = list(vertices)
    random.Random(seed).shuffle(shuffled)
    return shuffled[:size_a]


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

    An adapter over :func:`kl_refine`: it checks ``weights``, builds their
    :data:`WeightRows` and returns the sides as sets.
    """
    vertex_list = list(vertices)
    if len(vertex_list) < 2:
        raise PartitionError("bisection needs at least two vertices")
    if len(set(vertex_list)) != len(vertex_list):
        raise PartitionError("duplicate vertices in bisection input")
    if size_a is not None and not 0 < size_a < len(vertex_list):
        raise PartitionError(f"size_a={size_a} must be strictly between 0 and {len(vertex_list)}")
    if initial is None:
        half = size_a if size_a is not None else (len(vertex_list) + 1) // 2
        start_a = _seeded_start(vertex_list, half, seed)
    else:
        start_a, start_b = set(initial[0]), set(initial[1])
        if start_a | start_b != set(vertex_list) or start_a & start_b:
            raise PartitionError("initial partition does not cover the vertex set")
        if size_a is not None and len(start_a) != size_a:
            raise PartitionError(
                f"initial partition has {len(start_a)} vertices on the first side "
                f"but size_a={size_a} was requested; KL swaps preserve sizes, so "
                f"the initial split must already match"
            )
    edges = [(a, b, w) for (a, b), w in weights.items()]
    check_weights(edges)
    rows = weight_rows(vertex_list, edges)
    side_a, side_b = kl_refine(rows, sorted(vertex_list), start_a, max_passes)
    return set(side_a), set(side_b)


def kl_bisect(
    rows: WeightRows,
    vertices: list[int],
    size_a: int,
    seed: int | None = None,
    counters: PlacementCounters | None = None,
    max_passes: int = 10,
) -> tuple[list[int], list[int]]:
    """KL-bisect the id-sorted region ``vertices``, ``size_a`` of them first.

    The reference placement engine's core: :func:`kl_refine` from the first
    ``size_a`` vertices of a shuffle seeded with ``seed``.
    """
    return kl_refine(rows, vertices, _seeded_start(vertices, size_a, seed), max_passes, counters)


def kl_refine(
    rows: WeightRows,
    vertices: list[int],
    start_a: Iterable[int],
    max_passes: int = 10,
    counters: PlacementCounters | None = None,
) -> tuple[list[int], list[int]]:
    """Refine the split of the id-sorted region ``vertices`` whose first side is ``start_a``.

    Runs KL passes until one keeps no swap or ``max_passes`` ran, and
    returns both sides in ``vertices`` order.  A 2-vertex region and a 2/2
    four-vertex region take the exact shortcuts in the module docstring.
    The passes number the region's vertices by position, which keeps id
    order, so every tie breaks as it would by vertex id.
    """
    start = set(start_a)
    side = [0 if v in start else 1 for v in vertices]
    if len(vertices) == 2:
        if counters is not None:
            counters.fast_path_regions += 1
    else:
        kl_pass = _kl_pass
        if len(vertices) == 4 and len(start) == 2:
            kl_pass = _kl_pass_2x2
            if counters is not None:
                counters.fast_path_regions += 1
        # The region's own edges by position, each row still in edge order.
        local = {v: i for i, v in enumerate(vertices)}
        inner = [{local[n]: w for n, w in rows[v].items() if n in local} for v in vertices]
        for _ in range(max_passes):
            kept = kl_pass(inner, side)
            if counters is not None:
                counters.kl_passes += 1
                counters.swaps_kept += kept
            if not kept:
                break
    return (
        [v for v, s in zip(vertices, side) if s == 0],
        [v for v, s in zip(vertices, side) if s == 1],
    )


def _gains(inner: RegionRows, side: list[int]) -> list[float]:
    """``D[i] = external(i) - internal(i)``, each a ``sum()`` in row order."""
    return [
        sum([w for j, w in row.items() if side[j] != own])
        - sum([w for j, w in row.items() if side[j] == own])
        for row, own in zip(inner, side)
    ]


def _keep_best_prefix(swaps: list[tuple[int, int, float]], side: list[int]) -> int:
    """Apply the best-gain prefix of a pass's swaps; returns its length."""
    best_total = 0.0
    best_prefix = 0
    running = 0.0
    for index, (_, _, gain) in enumerate(swaps, start=1):
        running += gain
        if running > best_total + 1e-12:
            best_total = running
            best_prefix = index
    for a, b, _ in swaps[:best_prefix]:
        side[a] = 1
        side[b] = 0
    return best_prefix


def _kl_pass(inner: RegionRows, side: list[int]) -> int:
    """One KL pass over the region's rows; returns the number of swaps kept."""
    gains = _gains(inner, side)
    locked = [False] * len(side)
    swaps: list[tuple[int, int, float]] = []
    # Free lists in position (= id) order pin the gain tie-break to vertex
    # order, so the winning pair of an equal-gain tie never varies between
    # two runs that feed the golden-parity harness.
    free_a = [i for i, s in enumerate(side) if s == 0]
    free_b = [i for i, s in enumerate(side) if s == 1]

    for _ in range(min(len(free_a), len(free_b))):
        # Stable sort of the position-ordered free B by descending gain: ties by id.
        order_b = sorted(free_b, key=gains.__getitem__, reverse=True)
        top_b = gains[order_b[0]]
        best_gain, best_a, best_b = -math.inf, -1, -1
        for a in free_a:
            gain_a = gains[a]
            if gain_a + top_b <= best_gain:
                continue
            row = inner[a]
            row_gain, row_b = -math.inf, -1
            for b in order_b:
                bound = gain_a + gains[b]
                if bound < row_gain or bound <= best_gain:
                    break
                gain = bound - 2 * row.get(b, 0)
                if gain > row_gain or (gain == row_gain and b < row_b):
                    row_gain, row_b = gain, b
            if row_gain > best_gain:
                best_gain, best_a, best_b = row_gain, a, row_b
        a, b = best_a, best_b
        swaps.append((a, b, best_gain))
        locked[a] = locked[b] = True
        free_a.remove(a)
        free_b.remove(b)
        # Update gains as if a and b were swapped; only their neighbours move.
        row_a, row_b = inner[a], inner[b]
        for vertex in {**row_a, **row_b}:
            if locked[vertex]:
                continue
            delta = 0
            in_a = side[vertex] == 0
            if vertex in row_a:
                delta += (2 if in_a else -2) * row_a[vertex]
            if vertex in row_b:
                delta += (-2 if in_a else 2) * row_b[vertex]
            gains[vertex] += delta
    return _keep_best_prefix(swaps, side)


def _kl_pass_2x2(inner: RegionRows, side: list[int]) -> int:
    """:func:`_kl_pass` unrolled for two vertices a side; the same swaps, bit for bit.

    The first swap takes the best of the four pairs in row-major order (the
    first maximum, so ties go to the smallest ``a``, then ``b``); the second
    swaps the remaining pair at its gain after the first swap.  That gain
    cancels the first one exactly, so only float rounding can keep the
    second swap; the pass therefore reproduces the generic update's floats
    (an absent row entry reads as the int ``0``, and ``x - y`` equals
    ``-y + x``).
    """
    gains = _gains(inner, side)
    a0, a1 = [i for i, s in enumerate(side) if s == 0]
    b0, b1 = [i for i, s in enumerate(side) if s == 1]
    best_gain, a, b = -math.inf, -1, -1
    for pair_a, pair_b in ((a0, b0), (a0, b1), (a1, b0), (a1, b1)):
        gain = (gains[pair_a] + gains[pair_b]) - 2 * inner[pair_a].get(pair_b, 0)
        if gain > best_gain:
            best_gain, a, b = gain, pair_a, pair_b
    rest_a = a1 if a == a0 else a0
    rest_b = b1 if b == b0 else b0
    row_a, row_b = inner[a], inner[b]
    gain_a = gains[rest_a] + (2 * row_a.get(rest_a, 0) - 2 * row_b.get(rest_a, 0))
    gain_b = gains[rest_b] + (2 * row_b.get(rest_b, 0) - 2 * row_a.get(rest_b, 0))
    last_gain = (gain_a + gain_b) - 2 * inner[rest_a].get(rest_b, 0)
    return _keep_best_prefix([(a, b, best_gain), (rest_a, rest_b, last_gain)], side)


class GainBuckets:
    """Array-backed gain bucket lists over contiguous vertex ids.

    FM gains are integers bounded by the maximum weighted degree, so every
    possible gain maps to one bucket.  Buckets are intrusive doubly-linked
    lists stored in flat arrays (``_head`` per bucket, ``_next``/``_prev``
    per vertex), the same idiom :class:`repro.chip.routing_graph.RoutingGraph`
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
    counters: PlacementCounters | None = None,
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
        if counters is not None:
            counters.fm_passes += 1
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
