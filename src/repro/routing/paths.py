"""Path data structures and capacity bookkeeping for per-cycle routing.

Routing happens one clock cycle at a time: the scheduler asks for a path
between two tiles given what has already been reserved in that cycle, and the
:class:`CapacityUsage` tracker guarantees no corridor edge is oversubscribed.

The scheduling state lives on the integer ids of a
:class:`~repro.chip.routing_graph.RoutingGraph`: the router returns an
:class:`IdPath` (node ids, edge ids, interior junction ids) and
:class:`CapacityUsage` counts reservations by edge id and junction id.  Node
tuples appear at one boundary only — :meth:`IdPath.routed` builds the tuple
:class:`RoutedPath` that a :class:`~repro.core.schedule.ScheduledOperation`
carries, once per id path, when the operation is written.  The validator,
serialisation and :meth:`RoutedPath.from_nodes` read tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chip.routing_graph import EdgeKey, Node, RoutingGraph
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


class IdPath:
    """A path on a :class:`RoutingGraph`'s integer ids, as the router returns it.

    ``nodes`` are node ids from source tile to target tile, ``edges`` the edge
    ids of its steps and ``interior`` the junction ids between the endpoints
    (the nodes a reservation passes through).  The tuple
    :class:`RoutedPath` is built on the first :meth:`routed` call and cached,
    so a path replayed from the layer memo or served from the router's
    static cache is converted once.
    """

    __slots__ = ("nodes", "edges", "interior", "_routed")

    def __init__(self, nodes: tuple[int, ...], edges: tuple[int, ...]):
        self.nodes = nodes
        self.edges = edges
        self.interior = nodes[1:-1]
        self._routed: RoutedPath | None = None

    def routed(self, graph: RoutingGraph) -> RoutedPath:
        """The tuple :class:`RoutedPath` of this path on ``graph`` (built once)."""
        routed = self._routed
        if routed is None:
            nodes, edges = graph.nodes, graph.edges
            routed = self._routed = RoutedPath(
                tuple(nodes[i] for i in self.nodes), tuple(edges[e] for e in self.edges)
            )
        return routed


@dataclass(slots=True)
class CapacityUsage:
    """Per-cycle usage counters by edge id and junction id.

    Edge counters enforce corridor bandwidth; node counters enforce the
    paper's non-intersection constraint at corridor crossings (two paths may
    only share a junction when its bandwidth provides separate lanes).
    """

    used: dict[int, int] = field(default_factory=dict)
    node_used: dict[int, int] = field(default_factory=dict)

    def add_path(self, path: IdPath) -> None:
        """Reserve one lane on every edge and interior junction of ``path``."""
        used = self.used
        for eid in path.edges:
            used[eid] = used.get(eid, 0) + 1
        node_used = self.node_used
        for node in path.interior:
            node_used[node] = node_used.get(node, 0) + 1
