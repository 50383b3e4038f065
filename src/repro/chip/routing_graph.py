"""Corridor routing graph built from a :class:`~repro.chip.chip.Chip`.

Nodes
-----
* **Junction nodes** ``("j", r, c)`` — the crossing of horizontal corridor
  ``r`` (``0..tile_rows``) and vertical corridor ``c`` (``0..tile_cols``).
* **Tile nodes** ``("t", i, j)`` — the logical tile slot at row ``i``,
  column ``j``.  Tile nodes are only legal as path *endpoints*: a braiding /
  Bell-state path may start and end at a tile but never pass through one.

Edges
-----
* Horizontal corridor segments ``("j", r, c) – ("j", r, c+1)`` with capacity
  equal to the bandwidth of horizontal corridor ``r``.
* Vertical corridor segments ``("j", r, c) – ("j", r+1, c)`` with capacity
  equal to the bandwidth of vertical corridor ``c``.
* Tile access edges between a tile node and its four corner junctions.

Capacities are *per clock cycle*: a set of CNOT paths executes simultaneously
iff, for every edge, the number of paths using the edge does not exceed the
edge capacity.  With all bandwidths equal to one this reduces to the
edge-disjointness constraint of prior work; larger bandwidths model the
paper's software-defined channels.

Defects
-------
The graph is built from the chip's *effective* capacities: dead tiles get no
node (and no access edges), disabled corridor segments are omitted, and
per-segment bandwidth overrides replace the corridor's nominal capacity.
The router and the validator share this graph, so a defect declared
on the chip is honored everywhere without further plumbing.

Graph chips
-----------
The graph never asks whether the chip is square: the junctions, each
segment's endpoints, corridor and effective lanes, and each tile's access
junctions all come from the chip's wiring section (:meth:`Chip.junctions`,
:meth:`Chip.segment`, :meth:`Chip.tile_access`).  On a graph chip that wiring
is one junction ``("j", i, 0)`` per tile-graph node, one segment
``("e", a, b)`` with ``a < b`` per tile-graph edge, and one access edge from
each alive tile ``("t", i, 0)`` to its own junction.  Everything downstream —
canonical path search, the fast router's landmark tables,
:class:`CompactRoutingGraph` — consumes the same node/edge/capacity interface
and needs no topology awareness.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.chip.chip import Chip, Corridor, TileSlot
from repro.errors import RoutingError

#: Node type alias: ("j", row, col) for junctions, ("t", row, col) for tiles.
Node = tuple[str, int, int]
#: Canonical undirected edge key (the two endpoints, sorted).
EdgeKey = tuple[Node, Node]


def junction(row: int, col: int) -> Node:
    """The junction node at corridor crossing ``(row, col)``."""
    return ("j", row, col)


def tile_node(row: int, col: int) -> Node:
    """The tile node for tile slot ``(row, col)``."""
    return ("t", row, col)


def tile_node_for(slot: TileSlot) -> Node:
    """The tile node for a :class:`TileSlot`."""
    return tile_node(slot.row, slot.col)


def edge_key(a: Node, b: Node) -> EdgeKey:
    """Canonical (order-independent) key for the undirected edge ``{a, b}``."""
    return (a, b) if a <= b else (b, a)


#: Capacity of a tile-access edge.  A tile participates in at most one CNOT
#: per cycle, but the double defect model may attach both an entry and an
#: ancilla braid to the same tile, so two lanes are allowed at the boundary.
TILE_ACCESS_CAPACITY = 2


class RoutingGraph:
    """Undirected capacitated graph over junction and tile nodes."""

    def __init__(self, chip: Chip):
        self._chip = chip
        self._adjacency: dict[Node, list[Node]] = {}
        self._capacity: dict[EdgeKey, int] = {}
        self._corridor: dict[EdgeKey, Corridor | None] = {}
        self._junction_capacity: dict[Node, int] = {}
        self._build()

    # ----------------------------------------------------------- construction
    def _build(self) -> None:
        chip = self._chip
        for node in chip.junctions():
            self._adjacency[node] = []
            self._junction_capacity[node] = 0
        # Corridor segments, at their defect-adjusted effective capacities.
        # Disabled segments (capacity 0) are omitted entirely; a junction's
        # through-capacity is the best lane count among its enabled segments,
        # which reduces to max(bh[row], bv[col]) on a pristine square chip.
        for key in chip.segment_keys():
            a, b, corridor, lanes = chip.segment(key)
            if lanes < 1:
                continue
            self._add_edge(a, b, lanes, corridor)
            for node in (a, b):
                self._junction_capacity[node] = max(self._junction_capacity[node], lanes)
        # Tile access edges (dead tiles get no node and no edges).
        for slot in chip.alive_tile_slots():
            tile = tile_node_for(slot)
            self._adjacency[tile] = []
            for access in chip.tile_access(slot.row, slot.col):
                self._add_edge(tile, access, TILE_ACCESS_CAPACITY, None)

    def _add_edge(self, a: Node, b: Node, capacity: int, corridor: Corridor | None) -> None:
        key = edge_key(a, b)
        self._capacity[key] = capacity
        self._corridor[key] = corridor
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)

    # ---------------------------------------------------------------- queries
    @property
    def chip(self) -> Chip:
        """The chip this graph was built from."""
        return self._chip

    def node_capacity(self, node: Node) -> int:
        """Number of distinct paths that may pass *through* ``node`` in one cycle.

        The paper requires simultaneously executed CNOT paths to be
        non-intersecting, i.e. vertex-disjoint at unit bandwidth.  A junction
        where a horizontal corridor of bandwidth ``bh`` crosses a vertical
        corridor of bandwidth ``bv`` provides ``max(bh, bv)`` disjoint lanes
        through the crossing; with defects, only the *enabled* incident
        segments (at their effective capacities) count.  Tile nodes are only
        path endpoints, so their capacity is effectively unbounded.
        """
        if self.is_tile(node):
            return 1 << 30
        return self._junction_capacity[node]

    @property
    def nodes(self) -> tuple[Node, ...]:
        """All nodes (junctions then tiles, in insertion order)."""
        return tuple(self._adjacency)

    @property
    def edges(self) -> tuple[EdgeKey, ...]:
        """All undirected edge keys."""
        return tuple(self._capacity)

    @property
    def edge_capacities(self) -> dict[EdgeKey, int]:
        """The live capacity map, keyed by canonical edge key.  Do not mutate.

        Bulk accessor for :class:`~repro.chip.graph_arrays.CompactRoutingGraph`,
        which reads every edge once at compile time; per-edge
        :meth:`capacity` calls would dominate its constructor.
        """
        return self._capacity

    @property
    def junction_capacities(self) -> dict[Node, int]:
        """The live junction through-capacity map.  Do not mutate.

        Bulk counterpart of :meth:`node_capacity` for junction nodes (tiles
        are not in the map; their capacity is the unbounded sentinel).
        """
        return self._junction_capacity

    def capacity(self, a: Node, b: Node) -> int:
        """Capacity of the edge between ``a`` and ``b``."""
        try:
            return self._capacity[edge_key(a, b)]
        except KeyError as exc:
            raise RoutingError(f"no edge between {a} and {b}") from exc

    def has_edge(self, a: Node, b: Node) -> bool:
        """True when the graph contains the edge ``{a, b}``."""
        return edge_key(a, b) in self._capacity

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        """Adjacent nodes of ``node``."""
        try:
            return tuple(self._adjacency[node])
        except KeyError as exc:
            raise RoutingError(f"unknown node {node}") from exc

    def is_tile(self, node: Node) -> bool:
        """True for tile nodes."""
        return node[0] == "t"

    def tile_nodes(self) -> tuple[Node, ...]:
        """All alive tile nodes in row-major order (dead tiles are not nodes)."""
        return tuple(tile_node_for(slot) for slot in self._chip.alive_tile_slots())

    def corridor_of(self, a: Node, b: Node) -> Corridor | None:
        """Identify the corridor an edge belongs to.

        Returns the corridor :meth:`Chip.segment` names — ``("h", r)`` for a
        segment of horizontal corridor ``r``, ``("v", c)`` for a vertical
        corridor segment, ``("e", index)`` for a tile-graph edge — and
        ``None`` for tile access edges.  Used by bandwidth adjusting to
        attribute path load to corridors.
        """
        try:
            return self._corridor[edge_key(a, b)]
        except KeyError as exc:
            raise RoutingError(f"no edge between {a} and {b}") from exc

    def path_edges(self, path: Iterable[Node]) -> list[EdgeKey]:
        """Edge keys traversed by a node path, validating adjacency."""
        nodes = list(path)
        edges: list[EdgeKey] = []
        for a, b in zip(nodes, nodes[1:]):
            if not self.has_edge(a, b):
                raise RoutingError(f"path step {a} -> {b} is not an edge")
            edges.append(edge_key(a, b))
        return edges
