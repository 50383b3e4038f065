"""The reference usage model: per-cycle reservations keyed by node tuples.

Production :class:`~repro.routing.paths.CapacityUsage` counts lanes by edge
id and junction id and only ever grows within a cycle.  This model states
the same bookkeeping on the tuple view of the graph — edge keys and node
tuples, as the validator reads a schedule — together with the queries the
reference Dijkstra and the tests ask (residual capacity, release of a
reservation, violation listing).  :func:`to_ids` and :func:`from_ids` map a
usage between the two views; they are a bijection on one graph, which is
what lets the layer memo's id-keyed signatures stand for tuple-keyed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chip.routing_graph import EdgeKey, Node, RoutingGraph, edge_key
from repro.errors import RoutingError
from repro.routing.paths import CapacityUsage, IdPath, RoutedPath


@dataclass(slots=True)
class ReferenceUsage:
    """Per-cycle usage counters for routing-graph edge keys and junction nodes."""

    used: dict[EdgeKey, int] = field(default_factory=dict)
    node_used: dict[Node, int] = field(default_factory=dict)

    def residual(self, graph: RoutingGraph, a: Node, b: Node) -> int:
        """Remaining capacity on edge ``{a, b}``."""
        return graph.capacity(a, b) - self.used.get(edge_key(a, b), 0)

    def node_residual(self, graph: RoutingGraph, node: Node) -> int:
        """Remaining through-capacity of ``node``."""
        return graph.node_capacity(node) - self.node_used.get(node, 0)

    def can_use(self, graph: RoutingGraph, a: Node, b: Node) -> bool:
        """True when at least one lane is free on edge ``{a, b}``."""
        return self.residual(graph, a, b) > 0

    def can_pass_through(self, graph: RoutingGraph, node: Node) -> bool:
        """True when another path may pass through ``node`` this cycle."""
        return self.node_residual(graph, node) > 0

    def add_path(self, path: RoutedPath) -> None:
        """Reserve one lane on every edge and interior node of ``path``."""
        for key in path.edges:
            self.used[key] = self.used.get(key, 0) + 1
        for node in path.nodes[1:-1]:
            self.node_used[node] = self.node_used.get(node, 0) + 1

    def remove_path(self, path: RoutedPath) -> None:
        """Release a previous reservation (used by rip-up-and-reroute)."""
        for key in path.edges:
            remaining = self.used.get(key, 0) - 1
            if remaining < 0:
                raise RoutingError(f"negative usage on edge {key}")
            if remaining == 0:
                self.used.pop(key, None)
            else:
                self.used[key] = remaining
        for node in path.nodes[1:-1]:
            remaining = self.node_used.get(node, 0) - 1
            if remaining < 0:
                raise RoutingError(f"negative usage on node {node}")
            if remaining == 0:
                self.node_used.pop(node, None)
            else:
                self.node_used[node] = remaining

    def copy(self) -> "ReferenceUsage":
        """Independent copy of the usage counters."""
        return ReferenceUsage(dict(self.used), dict(self.node_used))

    def total_edge_load(self) -> int:
        """Sum of reserved lanes over all edges (a congestion measure)."""
        return sum(self.used.values())

    def violates(self, graph: RoutingGraph) -> list[EdgeKey]:
        """Edges whose usage exceeds capacity (should always be empty)."""
        return [key for key, used in self.used.items() if used > graph.capacity(*key)]


def to_ids(graph: RoutingGraph, usage: ReferenceUsage) -> CapacityUsage:
    """The id-keyed :class:`CapacityUsage` of ``usage`` on ``graph``."""
    edge_id, node_id = graph.edge_id, graph.node_id
    return CapacityUsage(
        {edge_id[key]: count for key, count in usage.used.items()},
        {node_id[node]: count for node, count in usage.node_used.items()},
    )


def from_ids(graph: RoutingGraph, usage: CapacityUsage) -> ReferenceUsage:
    """The tuple-keyed image of an id-keyed ``usage`` on ``graph``."""
    edges, nodes = graph.edges, graph.nodes
    return ReferenceUsage(
        {edges[eid]: count for eid, count in usage.used.items()},
        {nodes[node]: count for node, count in usage.node_used.items()},
    )


def id_path(graph: RoutingGraph, path: RoutedPath) -> IdPath:
    """The :class:`IdPath` of a tuple ``path`` on ``graph``."""
    edge_id, node_id = graph.edge_id, graph.node_id
    return IdPath(
        tuple(node_id[node] for node in path.nodes), tuple(edge_id[key] for key in path.edges)
    )


def find_routed(
    router, usage: ReferenceUsage, source: Node, target: Node, congestion_weight: float = 0.0
) -> RoutedPath | None:
    """Ask an id-level ``router`` one tuple-level query.

    Translates the endpoints and ``usage`` to ids, and the answer back to a
    tuple :class:`RoutedPath`.
    """
    graph = router.graph
    found = router.find(
        to_ids(graph, usage), graph.tile_id(source), graph.tile_id(target), congestion_weight
    )
    return None if found is None else found.routed(graph)
