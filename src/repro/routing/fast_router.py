"""Capacity-aware, goal-directed path search over the corridor graph.

:class:`FastRouter` is the router of every scheduler.  Each query returns the
*canonical* path between two tiles: among all capacity-feasible paths of
minimal cost (hops plus congestion penalty) — edges with no residual
capacity are unusable, tiles other than the two endpoints are never
traversed — the one whose node sequence is lexicographically smallest.  The
tie-break makes the answer a pure function of (graph, usage, endpoints,
weight) rather than of search order, so any exact search can stand in for
any other; the tests hold this router to a plain reference Dijkstra.  The
search runs over the integer ids and adjacency rows of the
:class:`~repro.chip.routing_graph.RoutingGraph` it is given and explores a
fraction of the graph:

* **Landmark tables.**  For every target actually queried the router runs
  one backward breadth-first sweep over the graph's junction rows
  (:meth:`RoutingGraph.hop_distances_from`) and keeps the result as a
  node-id-indexed distance list.  Tables are built lazily per target and
  then amortised across the whole schedule; the build cost is accounted
  separately (``landmark_build_seconds``) so shallow circuits on big chips
  can be diagnosed instead of guessed at.
* **Early-exit goal-directed search.**  The forward search is an A* over
  integer node ids whose heuristic is the memoized backward distance.  Every
  edge costs at least one hop, so the hop distance is a consistent heuristic
  and the first pop of the target is optimal.

Because node ids are assigned in sorted node-tuple order (see
:mod:`repro.chip.routing_graph`), the lexicographic order of id sequences
equals the lexicographic order of node-tuple sequences — heap entries
ordered by ``(cost + h, cost, id-sequence)`` therefore reproduce the
canonical tie-break bit-for-bit, and each path step's edge key is its two
endpoints in id order.  ``tests/test_properties_routing.py`` and
``tests/test_differential_engines.py`` enforce this against the reference
Dijkstra.

Defective chips need no special handling here: the :class:`RoutingGraph`
already excludes dead tiles and disabled segments and carries per-segment
capacity overrides.  Parity on defective chips is enforced by
``tests/test_defects.py`` and the Hypothesis properties in
``tests/test_routing_graph.py``.

Routing seam
------------
Every scheduler obtains its router (and, as ``router.graph``, its graph)
through :func:`routing_for`, which consults an installable provider.
Long-lived processes — the compile daemon in :mod:`repro.service` — install
a provider backed by an LRU of warm per-chip state, so repeated compiles
against the same chip reuse the graph and the router's memoized landmark
tables instead of rebuilding them from cold.  One-shot callers never
notice: with no provider installed, :func:`routing_for` builds fresh state.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Callable, Sequence

from repro.chip.chip import Chip
from repro.chip.routing_graph import Node, RoutingGraph
from repro.errors import RoutingError
from repro.routing.paths import CapacityUsage, RoutedPath

#: Distinguishes "no cache entry" from a cached ``None`` (unroutable pair).
_UNCACHED = object()

#: Congestion weight of the schedulers' path queries (ReSu included); the
#: Braidflash baseline routes with ``0.0``.
DEFAULT_CONGESTION_WEIGHT = 0.25


def check_route_endpoints(graph: RoutingGraph, source: Node, target: Node) -> None:
    """Raise :class:`RoutingError` unless ``source``/``target`` are distinct tiles of ``graph``."""
    if source == target:
        raise RoutingError("source and target tiles must differ")
    if not graph.is_tile(source) or not graph.is_tile(target):
        raise RoutingError("paths are routed between tile nodes")
    for node in (source, target):
        if node not in graph.node_id:
            raise RoutingError(f"tile {node} is not on the chip (dead or off the tile array)")


def _routed_path(nodes: tuple[Node, ...], ids: Sequence[int]) -> RoutedPath:
    """The :class:`RoutedPath` through node ``ids``.

    Id order is node-tuple order, so each step's canonical edge key is its
    two endpoints in id order.  The steps are adjacency entries by
    construction, so the path needs no re-validation against the graph.
    """
    steps = zip(ids, ids[1:])
    return RoutedPath(
        tuple(nodes[i] for i in ids),
        tuple((nodes[a], nodes[b]) if a < b else (nodes[b], nodes[a]) for a, b in steps),
    )


class FastRouter:
    """Capacity-aware router over a :class:`RoutingGraph` with landmark A* search.

    One instance serves one graph; the landmark tables and the static-path
    cache are shared across every :meth:`find` call, which is where the
    reuse pays off (the daemon's :class:`~repro.service.state.WarmStateCache`
    additionally shares whole routers across compiles).
    """

    def __init__(self, graph: RoutingGraph):
        self._graph = graph
        #: Node-id-indexed hop-distance lists, keyed by target node id.
        self._tables: dict[int, list[int]] = {}
        #: Canonical paths on the *empty* usage state, keyed by (source,
        #: target).  With no reservations every congestion penalty is zero,
        #: so the canonical path depends only on the endpoints — schedulers
        #: re-ask for the same unloaded pairs every cycle.  Entries store
        #: ``(path, interior_nodes)`` (or ``None`` for disconnected pairs) so
        #: the load-overlap check needs no per-call slicing.
        self._static_paths: dict[
            tuple[Node, Node], tuple[RoutedPath, tuple[Node, ...]] | None
        ] = {}
        #: Wall-clock seconds spent building landmark tables over this
        #: router's lifetime (warm routers carry time from earlier compiles).
        self.landmark_build_seconds = 0.0

    @property
    def graph(self) -> RoutingGraph:
        """The routing graph this router serves."""
        return self._graph

    @property
    def landmark_table_count(self) -> int:
        """How many per-target landmark tables have been memoized so far."""
        return len(self._tables)

    @property
    def static_path_count(self) -> int:
        """How many unloaded-graph canonical paths have been cached so far."""
        return len(self._static_paths)

    # ------------------------------------------------------------- landmarks
    def _table_for(self, target_id: int, stats) -> list[int]:
        """The id-indexed hop-distance list towards ``target_id`` (lazy build)."""
        table = self._tables.get(target_id)
        if table is None:
            started = time.perf_counter()
            table = self._graph.hop_distances_from(target_id)
            elapsed = time.perf_counter() - started
            self.landmark_build_seconds += elapsed
            if stats is not None:
                stats.landmark_build_seconds += elapsed
            self._tables[target_id] = table
        return table

    # ----------------------------------------------------------------- search
    def find(
        self,
        usage: CapacityUsage,
        source: Node,
        target: Node,
        congestion_weight: float = 0.0,
        stats=None,
    ) -> RoutedPath | None:
        """The canonical path from ``source`` to ``target`` under ``usage``.

        Returns ``None`` when no path exists under the current usage.  With
        ``congestion_weight > 0`` the search prefers less-used edges, trading
        a slightly longer path for better packing of later gates.  ``stats``
        may be an :class:`~repro.profiling.EngineCounters` to account search
        effort.
        """
        key = (source, target)
        cached = self._static_paths.get(key, _UNCACHED)
        empty = not usage.used and not usage.node_used
        if cached is _UNCACHED:
            # Endpoints are validated once per pair: invalid pairs raise here
            # and are never cached, so repeat calls re-validate and re-raise.
            check_route_endpoints(self._graph, source, target)
            if self._graph.junctions_passable:
                path = self._static_walk(source, target, stats)
            else:
                path = self._search(CapacityUsage(), source, target, congestion_weight, stats)
            cached = (path, path.nodes[1:-1]) if path is not None else None
            self._static_paths[key] = cached
            if empty:
                return path
        elif empty:
            if stats is not None:
                stats.static_path_hits += 1
            return cached[0] if cached is not None else None
        # Loaded graph, known static answer.  If the pair is statically
        # disconnected, load cannot create a path.  If the canonical unloaded
        # path carries no load on any edge or interior node, it is still the
        # answer: load only raises costs and shrinks the feasible set, so the
        # loaded minimal-cost set is a subset of the unloaded one that still
        # contains this path — and it stays the lexicographic minimum of any
        # subset it belongs to.
        if cached is None:
            if stats is not None:
                stats.route_failures += 1
            return None
        path, interior = cached
        used = usage.used
        if used:
            for edge in path.edges:
                if edge in used:
                    return self._search(usage, source, target, congestion_weight, stats)
        node_used = usage.node_used
        if node_used:
            for node in interior:
                if node in node_used:
                    return self._search(usage, source, target, congestion_weight, stats)
        if stats is not None:
            stats.static_path_hits += 1
        return path

    def _static_walk(self, source: Node, target: Node, stats) -> RoutedPath | None:
        """The canonical path on the *unloaded* graph, read off the table.

        With no reservations the cost of a path is exactly its hop count and
        every edge is feasible (the graph omits capacities below one), so the
        canonical answer is the lexicographically-smallest shortest path: a
        greedy walk that always steps to the smallest-id junction one hop
        closer to the target (``junction_adjacency`` rows are id-ascending,
        so the first qualifying neighbor is that junction).  Interior nodes
        must be junctions able to pass a path, which is why callers gate this
        on :attr:`RoutingGraph.junctions_passable`; defective chips
        that strand a junction fall back to the A* search instead.
        """
        graph = self._graph
        source_id = graph.node_id[source]
        target_id = graph.node_id[target]
        remaining = self._table_for(target_id, stats)
        if stats is not None:
            stats.landmark_tables = len(self._tables)
        d = remaining[source_id]
        if d < 0:
            if stats is not None:
                stats.route_failures += 1
            return None
        junction_adjacency = graph.junction_adjacency
        ids = [source_id]
        node = source_id
        while d > 1:
            for neighbor, _eid, _capacity in junction_adjacency[node]:
                if remaining[neighbor] == d - 1:
                    node = neighbor
                    ids.append(neighbor)
                    d -= 1
                    break
            else:  # pragma: no cover — BFS guarantees a closer junction
                raise RoutingError(
                    f"landmark table inconsistent at node {graph.nodes[node]}"
                )
        if node != target_id:
            ids.append(target_id)
        return _routed_path(graph.nodes, ids)

    def _search(
        self,
        usage: CapacityUsage,
        source: Node,
        target: Node,
        congestion_weight: float,
        stats,
    ) -> RoutedPath | None:
        graph = self._graph
        source_id = graph.node_id[source]
        target_id = graph.node_id[target]
        remaining = self._table_for(target_id, stats)
        if stats is not None:
            stats.landmark_tables = len(self._tables)
        heuristic = remaining[source_id]
        if heuristic < 0:
            if stats is not None:
                stats.route_failures += 1
            return None  # statically disconnected — no residual path can exist
        # Translate the tuple-keyed reservations into id-keyed dicts once per
        # query: the per-cycle reservation sets are tiny compared to the
        # search, and the inner loop then hashes ints instead of node tuples.
        if usage.used:
            edge_id = graph.edge_id
            edge_used = {edge_id[key]: count for key, count in usage.used.items()}
        else:
            edge_used = {}
        if usage.node_used:
            node_id = graph.node_id
            node_used = {node_id[node]: count for node, count in usage.node_used.items()}
        else:
            node_used = {}
        junction_adjacency = graph.junction_adjacency
        tile_access = graph.tile_access
        node_capacity = graph.through_capacity
        edge_get = edge_used.get
        node_get = node_used.get
        heappush = heapq.heappush
        heappop = heapq.heappop
        # A* over (cost + h, cost, id-sequence).  The hop distance h is
        # consistent (every edge costs >= 1), so the first pop of the target
        # carries the minimal cost; ordering entries by (cost, sequence)
        # after the f-value makes that first pop the canonical lexicographic
        # minimum as well: any prefix of a smaller equal-cost path has a
        # strictly smaller key than a full-path target entry, hence is
        # expanded before the target can be popped.  Id-sequence order equals
        # node-tuple-sequence order by the graph's id invariant.
        #
        # The best-label store is two flat id-indexed lists (cost, sequence);
        # a popped entry is current iff its sequence is the stored object, so
        # the superseded check is one identity test.  Expansion iterates only
        # junction neighbors (tiles are endpoints, never passed through) and
        # probes ``tile_access`` for the target tile.
        infinity = float("inf")
        best_cost = [infinity] * len(graph.nodes)
        best_seq: list[tuple[int, ...] | None] = [None] * len(graph.nodes)
        start = (source_id,)
        best_cost[source_id] = 0.0
        best_seq[source_id] = start
        heap: list[tuple[float, float, tuple[int, ...]]] = [(float(heuristic), 0.0, start)]
        expanded = 0
        while heap:
            _f, cost, ids = heappop(heap)
            node = ids[-1]
            if node == target_id:
                if stats is not None:
                    stats.nodes_expanded += expanded
                return _routed_path(graph.nodes, ids)
            if best_seq[node] is not ids:
                continue  # superseded after pushing
            expanded += 1
            access = tile_access[node].get(target_id)
            if access is not None:
                eid, capacity = access
                load = edge_get(eid, 0)
                if load < capacity:
                    new_cost = cost + 1.0
                    if congestion_weight and load:
                        new_cost += congestion_weight * load
                    bc = best_cost[target_id]
                    if new_cost <= bc:
                        candidate = ids + (target_id,)
                        if new_cost < bc or candidate < best_seq[target_id]:
                            best_cost[target_id] = new_cost
                            best_seq[target_id] = candidate
                            heappush(heap, (new_cost, new_cost, candidate))
            for neighbor, eid, capacity in junction_adjacency[node]:
                load = edge_get(eid, 0)
                if load >= capacity:
                    continue
                if neighbor != target_id and node_get(neighbor, 0) >= node_capacity[neighbor]:
                    continue  # the junction has no free lane to pass through
                h = remaining[neighbor]
                if h < 0:
                    continue  # cannot reach the target from here
                new_cost = cost + 1.0
                if congestion_weight and load:
                    new_cost += congestion_weight * load
                bc = best_cost[neighbor]
                if new_cost > bc:
                    continue
                candidate = ids + (neighbor,)
                if new_cost == bc and not candidate < best_seq[neighbor]:
                    continue
                best_cost[neighbor] = new_cost
                best_seq[neighbor] = candidate
                heappush(heap, (new_cost + h, new_cost, candidate))
        if stats is not None:
            stats.nodes_expanded += expanded
            stats.route_failures += 1
        return None


#: A routing provider maps a chip to a router (its graph is ``router.graph``).
#: Both are immutable-after-construction (the router only grows memo tables),
#: so a provider may hand the same router to any number of sequential
#: compiles.
RoutingProvider = Callable[[Chip], "FastRouter"]

_routing_provider: RoutingProvider | None = None


def set_routing_provider(provider: RoutingProvider | None) -> RoutingProvider | None:
    """Install (or with ``None`` clear) the process-wide routing provider.

    Returns the previous provider so callers can restore it; see
    :class:`repro.service.state.WarmStateCache` for the canonical user.
    """
    global _routing_provider  # lint: disable=FRK001 — this IS the sanctioned seam
    previous = _routing_provider
    _routing_provider = provider
    return previous


def routing_for(chip: Chip) -> FastRouter:
    """The router (and, as ``router.graph``, the graph) a scheduler should use for ``chip``.

    Delegates to the installed provider when there is one (warm-state reuse
    in daemon processes) and otherwise builds fresh state.  The result is
    always semantically identical either way: graphs are value-determined by
    the chip, and router memo tables only cache derived data.
    """
    if _routing_provider is not None:
        return _routing_provider(chip)
    return FastRouter(RoutingGraph(chip))
