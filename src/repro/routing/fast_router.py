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
  (:meth:`~repro.chip.routing_graph.Topology.hop_distances_from`) and keeps
  the result as a node-id-indexed distance list.  Tables are built lazily
  per target and then amortised across the whole schedule; the build cost
  is accounted separately (``landmark_build_seconds``) so shallow circuits
  on big chips can be diagnosed instead of guessed at.
* **Boxed-in endpoints fail first.**  A search under load whose source or
  target tile has no access edge with a free lane into a junction with a
  free through-lane returns ``None`` before the heap is built: the search
  could never leave or enter such a tile.
* **Early-exit goal-directed search.**  The forward search is an A* over
  integer node ids whose heuristic is the memoized backward distance.  Every
  edge costs at least one hop, so the hop distance is a consistent heuristic
  and the first pop of the target is optimal.

Route memo
----------
The landmark tables and the unloaded canonical paths live in the
:class:`~repro.chip.routing_graph.RouteMemo` of the graph's
:class:`~repro.chip.routing_graph.Topology`, not in the router.  Both depend
only on which nodes and edges exist, not on lane counts, so every router over
a graph of that topology shares them: a chip and its bandwidth-adjusted
copy, one chip under several lane vectors, and every later compile on a chip
of that shape.  The router takes the memo straight from
``graph.topology.memo``.  Graphs come from the process's store
(:data:`~repro.chip.routing_graph.ROUTING_GRAPHS`), which shares one
topology among the chips of a shape, so each hop table is built once per
process rather than once per compile.

The router speaks ids only.  :meth:`FastRouter.find` takes two tile ids
(:meth:`RoutingGraph.tile_id`) and an id-keyed
:class:`~repro.routing.paths.CapacityUsage`, whose edge-id and junction-id
counts the search reads directly, and returns an
:class:`~repro.routing.paths.IdPath`.  A path's edge ids come off the
adjacency rows the search walks (junction rows, then the target's
``tile_access`` entry); the static-path cache is keyed by the tile-id pair
and its overlap check compares ints.  Callers build the tuple
:class:`~repro.routing.paths.RoutedPath` only when they write an operation.

Because node ids are assigned in sorted node-tuple order (see
:mod:`repro.chip.routing_graph`), the lexicographic order of id sequences
equals the lexicographic order of node-tuple sequences — heap entries
ordered by ``(cost + h, cost, id-sequence)`` therefore reproduce the
canonical tie-break bit-for-bit.  ``tests/test_properties_routing.py`` and
``tests/test_differential_engines.py`` enforce this against the reference
Dijkstra, which the test oracle puts behind the same id interface.

Defective chips need no special handling here: the :class:`RoutingGraph`
already excludes dead tiles and disabled segments and carries per-segment
capacity overrides.  Parity on defective chips is enforced by
``tests/test_defects.py`` and the Hypothesis properties in
``tests/test_routing_graph.py``.

Routing seam
------------
Every scheduler obtains its router (and, as ``router.graph``, its graph)
through :func:`routing_for`, which takes the chip's graph from
:data:`~repro.chip.routing_graph.ROUTING_GRAPHS`.  A provider installed with
:func:`set_routing_provider` replaces that lookup; the test oracle installs
one to route every scheduler through the reference Dijkstra.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.chip.chip import Chip
from repro.chip.routing_graph import ROUTING_GRAPHS, RouteMemo, RoutingGraph
from repro.errors import RoutingError
from repro.routing.paths import CapacityUsage, IdPath

#: Distinguishes "no cache entry" from a cached ``None`` (unroutable pair).
_UNCACHED = object()

#: Congestion weight of the schedulers' path queries (ReSu included); the
#: Braidflash baseline routes with ``0.0``.
DEFAULT_CONGESTION_WEIGHT = 0.25


def check_route_endpoints(graph: RoutingGraph, source: int, target: int) -> None:
    """Raise :class:`RoutingError` unless node ids ``source``/``target`` are distinct tiles.

    Tile ids come from :meth:`RoutingGraph.tile_id`, which already names a
    tile the graph lacks (dead or off the tile array).
    """
    if source == target:
        raise RoutingError("source and target tiles must differ")
    nodes = graph.nodes
    if nodes[source][0] != "t" or nodes[target][0] != "t":
        raise RoutingError("paths are routed between tile nodes")


def _id_path(graph: RoutingGraph, ids: tuple[int, ...]) -> IdPath:
    """The :class:`IdPath` through node ``ids`` (tile, junctions..., tile).

    Each step's edge id is read off the adjacency row the search walked:
    the junction row of the step's first node for the steps into junctions,
    and the last junction's ``tile_access`` entry for the step onto the
    target tile.  The steps are adjacency entries by construction, so the
    path needs no re-validation against the graph.
    """
    junction_adjacency = graph.junction_adjacency
    edges = []
    for a, b in zip(ids, ids[1:-1]):
        for neighbor, eid in junction_adjacency[a]:
            if neighbor == b:
                edges.append(eid)
                break
    edges.append(graph.tile_access[ids[-2]][ids[-1]])
    return IdPath(ids, tuple(edges))


class FastRouter:
    """Capacity-aware router over a :class:`RoutingGraph` with landmark A* search.

    One instance serves one graph.  Its :class:`RouteMemo` — the landmark
    tables and the static-path cache — is the graph topology's, shared
    across every :meth:`find` call and with every router over a graph of the
    same topology.
    """

    def __init__(self, graph: RoutingGraph):
        topology = graph.topology
        self._graph = graph
        self._topology = topology
        self._memo = topology.memo
        self._tables = topology.memo.tables
        self._static_paths = topology.memo.static_paths

    @property
    def graph(self) -> RoutingGraph:
        """The routing graph this router serves."""
        return self._graph

    @property
    def memo(self) -> RouteMemo:
        """The topology-keyed memo this router reads and fills."""
        return self._memo

    @property
    def landmark_table_count(self) -> int:
        """How many per-target landmark tables the memo holds."""
        return len(self._tables)

    # ------------------------------------------------------------- landmarks
    def _table_for(self, target_id: int, stats) -> list[int]:
        """The id-indexed hop-distance list towards ``target_id`` (lazy build)."""
        return self._tables.get(target_id) or self._topology.table_to(target_id, stats)

    # ----------------------------------------------------------------- search
    def find(
        self,
        usage: CapacityUsage,
        source: int,
        target: int,
        congestion_weight: float = 0.0,
        stats=None,
    ) -> IdPath | None:
        """The canonical path from tile id ``source`` to tile id ``target`` under ``usage``.

        Returns ``None`` when no path exists under the current usage.  With
        ``congestion_weight > 0`` the search prefers less-used edges, trading
        a slightly longer path for better packing of later gates.  ``stats``
        may be an :class:`~repro.profiling.EngineCounters` to account search
        effort.
        """
        key = (source, target)
        cached = self._static_paths.get(key, _UNCACHED)
        used, node_used = usage.used, usage.node_used
        empty = not used and not node_used
        if cached is _UNCACHED:
            # Endpoints are validated once per pair: invalid pairs raise here
            # and are never cached, so repeat calls re-validate and re-raise.
            check_route_endpoints(self._graph, source, target)
            if self._graph.junctions_passable:
                path = self._static_walk(source, target, stats)
            else:
                path = self._search({}, {}, source, target, congestion_weight, stats)
            self._memo.add_path(key, path)
            # A statically disconnected pair was counted as a failure by the
            # walk or search above; load cannot create a path.
            if empty or path is None:
                return path
            cached = path
        elif empty:
            if stats is not None:
                stats.static_path_hits += 1
            return cached
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
        if used:
            for eid in cached.edges:
                if eid in used:
                    return self._search(used, node_used, source, target, congestion_weight, stats)
        if node_used:
            for node in cached.interior:
                if node in node_used:
                    return self._search(used, node_used, source, target, congestion_weight, stats)
        if stats is not None:
            stats.static_path_hits += 1
        return cached

    def _static_walk(self, source: int, target: int, stats) -> IdPath | None:
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
        remaining = self._table_for(target, stats)
        d = remaining[source]
        if d < 0:
            if stats is not None:
                stats.route_failures += 1
            return None
        junction_adjacency = graph.junction_adjacency
        ids = [source]
        edges = []
        node = source
        while d > 1:
            for neighbor, eid in junction_adjacency[node]:
                if remaining[neighbor] == d - 1:
                    node = neighbor
                    ids.append(neighbor)
                    edges.append(eid)
                    d -= 1
                    break
            else:  # pragma: no cover — BFS guarantees a closer junction
                raise RoutingError(
                    f"landmark table inconsistent at node {graph.nodes[node]}"
                )
        # Tiles never neighbour tiles, so the walk ends on a corner junction
        # of the target.
        ids.append(target)
        edges.append(graph.tile_access[node][target])
        return IdPath(tuple(ids), tuple(edges))

    def _search(
        self,
        edge_used: dict[int, int],
        node_used: dict[int, int],
        source: int,
        target: int,
        congestion_weight: float,
        stats,
    ) -> IdPath | None:
        graph = self._graph
        remaining = self._table_for(target, stats)
        heuristic = remaining[source]
        if heuristic < 0:
            if stats is not None:
                stats.route_failures += 1
            return None  # statically disconnected — no residual path can exist
        junction_adjacency = graph.junction_adjacency
        tile_access = graph.tile_access
        lanes = graph.lanes
        node_capacity = graph.through_capacity
        edge_get = edge_used.get
        node_get = node_used.get
        # A path leaves the source and enters the target through one of the
        # tile's access edges and the corner junction behind it, which it
        # passes through.  When every such step is full at either end, no
        # path exists, and the search below would only prove it.
        for tile in (target, source):
            for corner, eid in junction_adjacency[tile]:
                if edge_get(eid, 0) < lanes[eid] and node_get(corner, 0) < node_capacity[corner]:
                    break
            else:
                if stats is not None:
                    stats.route_failures += 1
                return None
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
        start = (source,)
        best_cost[source] = 0.0
        best_seq[source] = start
        heap: list[tuple[float, float, tuple[int, ...]]] = [(float(heuristic), 0.0, start)]
        expanded = 0
        while heap:
            _f, cost, ids = heappop(heap)
            node = ids[-1]
            if node == target:
                if stats is not None:
                    stats.nodes_expanded += expanded
                return _id_path(graph, ids)
            if best_seq[node] is not ids:
                continue  # superseded after pushing
            expanded += 1
            eid = tile_access[node].get(target)
            if eid is not None:
                load = edge_get(eid, 0)
                if load < lanes[eid]:
                    new_cost = cost + 1.0
                    if congestion_weight and load:
                        new_cost += congestion_weight * load
                    bc = best_cost[target]
                    if new_cost <= bc:
                        candidate = ids + (target,)
                        if new_cost < bc or candidate < best_seq[target]:
                            best_cost[target] = new_cost
                            best_seq[target] = candidate
                            heappush(heap, (new_cost, new_cost, candidate))
            for neighbor, eid in junction_adjacency[node]:
                load = edge_get(eid, 0)
                if load >= lanes[eid]:
                    continue
                if neighbor != target and node_get(neighbor, 0) >= node_capacity[neighbor]:
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
RoutingProvider = Callable[[Chip], "FastRouter"]

_routing_provider: RoutingProvider | None = None


def set_routing_provider(provider: RoutingProvider | None) -> RoutingProvider | None:
    """Install (or with ``None`` clear) the process-wide routing provider.

    Returns the previous provider so callers can restore it.  The test
    oracle is the one user: it routes every scheduler through the reference
    Dijkstra.
    """
    global _routing_provider  # lint: disable=FRK001 — this IS the sanctioned seam
    previous = _routing_provider
    _routing_provider = provider
    return previous


def routing_for(chip: Chip) -> FastRouter:
    """The router (and, as ``router.graph``, the graph) a scheduler should use for ``chip``.

    The graph comes from :data:`~repro.chip.routing_graph.ROUTING_GRAPHS`
    unless a provider is installed.  The result is semantically identical
    either way: graphs are value-determined by the chip, and memos only
    cache answers determined by the topology.
    """
    if _routing_provider is not None:
        return _routing_provider(chip)
    return FastRouter(ROUTING_GRAPHS.graph_for(chip))
