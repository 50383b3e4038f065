"""Path data structures and capacity bookkeeping for per-cycle routing.

Routing happens one clock cycle at a time: the scheduler asks for a path
between two tiles given what has already been reserved in that cycle, and the
:class:`CapacityUsage` tracker guarantees no corridor edge is oversubscribed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chip.routing_graph import EdgeKey, Node, RoutingGraph, edge_key
from repro.errors import RoutingError


@dataclass(frozen=True, slots=True)
class RoutedPath:
    """A concrete path between two tile nodes.

    Attributes
    ----------
    nodes:
        The node sequence, starting and ending at tile nodes.
    edges:
        The undirected edge keys traversed, in order.
    """

    nodes: tuple[Node, ...]
    edges: tuple[EdgeKey, ...]

    @property
    def source(self) -> Node:
        """The first node (a tile node)."""
        return self.nodes[0]

    @property
    def target(self) -> Node:
        """The last node (a tile node)."""
        return self.nodes[-1]

    @property
    def length(self) -> int:
        """Number of edges in the path."""
        return len(self.edges)

    @classmethod
    def from_nodes(cls, graph: RoutingGraph, nodes: list[Node]) -> "RoutedPath":
        """Build a path from a node list, validating adjacency against ``graph``."""
        if len(nodes) < 2:
            raise RoutingError("a path needs at least two nodes")
        return cls(tuple(nodes), tuple(graph.path_edges(nodes)))


@dataclass(slots=True)
class CapacityUsage:
    """Per-cycle usage counters for routing-graph edges and junction nodes.

    Edge counters enforce corridor bandwidth; node counters enforce the
    paper's non-intersection constraint at corridor crossings (two paths may
    only share a junction when its bandwidth provides separate lanes).
    """

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

    def copy(self) -> "CapacityUsage":
        """Independent copy of the usage counters."""
        return CapacityUsage(dict(self.used), dict(self.node_used))

    def total_edge_load(self) -> int:
        """Sum of reserved lanes over all edges (a congestion measure)."""
        return sum(self.used.values())

    def violates(self, graph: RoutingGraph) -> list[EdgeKey]:
        """Edges whose usage exceeds capacity (should always be empty)."""
        return [key for key, used in self.used.items() if used > graph.capacity(*key)]
