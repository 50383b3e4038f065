"""The reference router: a plain Dijkstra that states the canonical-path contract.

Among all capacity-feasible paths of minimal cost (hops plus congestion
penalty), :func:`find_path` returns the one whose node sequence is
lexicographically smallest.  The tie-break makes the result a pure function
of (graph, usage, endpoints, weight) rather than of heap exploration order,
which is what lets the production router
(:class:`~repro.routing.fast_router.FastRouter`) answer the same queries with
a goal-directed search and still produce bit-identical schedules.

Carrying the node sequence in the heap keys costs a constant factor over a
parent-pointer Dijkstra.  That is deliberate: this implementation optimises
for being obviously correct, because the tests hold the production router to
it.

The search runs on the tuple view of the graph under the tuple-keyed
:class:`~oracle.usage.ReferenceUsage`.  :class:`OracleRouter` puts it behind
the production router's id interface, translating usage, endpoints and the
answer between ids and tuples at its own boundary.
"""

from __future__ import annotations

import heapq

from repro.chip.routing_graph import Node, RoutingGraph
from repro.routing.fast_router import check_route_endpoints
from repro.routing.paths import CapacityUsage, IdPath, RoutedPath

from .usage import ReferenceUsage, from_ids, id_path

#: Sentinel greater than every (cost, nodes) candidate.
_INFINITY = (float("inf"), ())


def find_path(
    graph: RoutingGraph,
    usage: ReferenceUsage,
    source: Node,
    target: Node,
    congestion_weight: float = 0.0,
    stats=None,
) -> RoutedPath | None:
    """Find a path from tile ``source`` to tile ``target`` respecting residual capacity.

    Returns ``None`` when no path exists under the current usage.  With
    ``congestion_weight > 0`` the search prefers less-used edges, trading a
    slightly longer path for better packing of later gates.  Ties between
    equal-cost paths resolve to the lexicographically smallest node sequence
    (see the module docstring).  ``stats`` may be an
    :class:`~repro.profiling.EngineCounters` to account search effort.
    """
    check_route_endpoints(graph, graph.tile_id(source), graph.tile_id(target))
    # Dijkstra over (cost, node-sequence): the lexicographic tie-break is part
    # of the heap key, so the first pop of the target is the canonical path.
    # Extending two equal-cost paths by the same suffix preserves their
    # relative order (the first differing node stays inside the prefixes),
    # which gives this ordering the optimal-substructure property Dijkstra
    # needs.
    best: dict[Node, tuple[float, tuple[Node, ...]]] = {source: (0.0, (source,))}
    heap: list[tuple[float, tuple[Node, ...]]] = [(0.0, (source,))]
    expanded = 0
    while heap:
        cost, nodes = heapq.heappop(heap)
        node = nodes[-1]
        if node == target:
            if stats is not None:
                stats.nodes_expanded += expanded
            return RoutedPath.from_nodes(graph, list(nodes))
        if best.get(node, (cost, nodes)) != (cost, nodes):
            continue  # a better route to this node was found after pushing
        expanded += 1
        for neighbor in graph.neighbors(node):
            if graph.is_tile(neighbor) and neighbor != target:
                continue  # tiles are endpoints only
            if not usage.can_use(graph, node, neighbor):
                continue
            if neighbor != target and not usage.can_pass_through(graph, neighbor):
                continue  # the junction has no free lane to pass through
            penalty = 0.0
            if congestion_weight:
                load = usage.used.get((node, neighbor) if node <= neighbor else (neighbor, node), 0)
                penalty = congestion_weight * load
            candidate = (cost + 1.0 + penalty, nodes + (neighbor,))
            if candidate < best.get(neighbor, _INFINITY):
                best[neighbor] = candidate
                heapq.heappush(heap, candidate)
    if stats is not None:
        stats.nodes_expanded += expanded
        stats.route_failures += 1
    return None


class OracleRouter:
    """A drop-in for :class:`~repro.routing.fast_router.FastRouter` backed by :func:`find_path`."""

    #: The reference search memoizes no landmark tables.
    landmark_table_count = 0

    def __init__(self, graph: RoutingGraph):
        self.graph = graph

    def find(
        self,
        usage: CapacityUsage,
        source: int,
        target: int,
        congestion_weight: float = 0.0,
        stats=None,
    ) -> IdPath | None:
        """Answer one id-level query with the reference Dijkstra on tuples."""
        graph = self.graph
        check_route_endpoints(graph, source, target)
        nodes = graph.nodes
        path = find_path(
            graph, from_ids(graph, usage), nodes[source], nodes[target], congestion_weight, stats
        )
        return None if path is None else id_path(graph, path)
