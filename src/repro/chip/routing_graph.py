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
canonical path search, the fast router's landmark tables, the validator —
consumes the same node/edge/capacity interface and needs no topology
awareness.

Integer ids
-----------
The graph is stored integer-indexed, built in one pass over the wiring, and
the tuple API (:meth:`capacity`, :meth:`neighbors`, ...) is a thin lookup
over the arrays the router searches:

* **Node ids** follow insertion order — the chip's junctions, then its alive
  tiles, each row-major.  Junction tuples sort before tile tuples
  (``"j" < "t"``) and both families list row-major, so insertion order *is*
  sorted node-tuple order: ``id(a) < id(b)  ⟺  a < b``.  The lexicographic
  order of two id sequences therefore equals that of the node-tuple
  sequences, which is what lets the router apply the canonical path
  tie-break on integers, and a path step's edge key is its two endpoints in
  id order.  ``tests/test_routing_graph.py`` checks the invariant on
  random square and graph chips.
* **Edge ids** follow insertion order too: enabled corridor segments in
  :meth:`Chip.segment_keys` order, then each alive tile's access edges.
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


#: Through-capacity of a tile node.  Tiles are path endpoints only, so their
#: capacity is effectively unbounded.
TILE_NODE_CAPACITY = 1 << 30


class RoutingGraph:
    """Undirected capacitated graph over junction and tile nodes.

    The arrays below are read directly by the router; treat them as
    read-only.

    Attributes
    ----------
    nodes:
        Node tuples indexed by node id (sorted tuple order); ``node_id`` is
        the inverse map.
    edges:
        Canonical edge keys indexed by edge id; ``edge_id`` is the inverse map.
    through_capacity:
        Through-capacity per node id (see :meth:`node_capacity`).
    junction_adjacency:
        Per node id, its *junction* neighbors as ``(neighbor, edge id,
        capacity)`` in ascending neighbor id.  Searches never pass through a
        tile, so this is the only row they iterate; a tile's row holds its
        access junctions.
    tile_access:
        Per node id, its *tile* neighbors as ``{tile id: (edge id,
        capacity)}``, probed for a search's target tile.
    corridors:
        The corridor of each edge id as :meth:`corridor_of` names it
        (``None`` for tile access edges).
    junctions_passable:
        True when every junction can pass at least one path through it.  A
        defective chip may strand a junction with only tile-access edges
        (through-capacity 0); the fast router's unloaded greedy walk is only
        canonical when no such junction exists.
    topology:
        ``(nodes, edges)``: which nodes and edges exist, in id order, and
        nothing of their lane counts.  Two graphs with equal topologies have
        equal ids, adjacency rows and ``junctions_passable`` and differ at
        most in capacities, which is what lets routers share a
        :class:`~repro.routing.fast_router.RouteMemo`.
    """

    def __init__(self, chip: Chip):
        self._chip = chip
        junctions = chip.junctions()
        tiles = [tile_node_for(slot) for slot in chip.alive_tile_slots()]
        nodes = (*junctions, *tiles)
        node_id = {node: i for i, node in enumerate(nodes)}
        num_junctions = len(junctions)
        through = [0] * num_junctions + [TILE_NODE_CAPACITY] * len(tiles)
        rows: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
        access: list[dict[int, tuple[int, int]]] = [{} for _ in nodes]
        edges: list[EdgeKey] = []
        capacities: list[int] = []
        corridors: list[Corridor | None] = []
        # Corridor segments, at their defect-adjusted effective capacities.
        # Disabled segments (capacity 0) are omitted entirely; a junction's
        # through-capacity is the best lane count among its enabled segments,
        # which reduces to max(bh[row], bv[col]) on a pristine square chip.
        for key in chip.segment_keys():
            a, b, corridor, lanes = chip.segment(key)
            if lanes < 1:
                continue
            ia, ib = node_id[a], node_id[b]
            if ia > ib:
                ia, ib = ib, ia
            eid = len(edges)
            edges.append((nodes[ia], nodes[ib]))
            capacities.append(lanes)
            corridors.append(corridor)
            rows[ia].append((ib, eid, lanes))
            rows[ib].append((ia, eid, lanes))
            if through[ia] < lanes:
                through[ia] = lanes
            if through[ib] < lanes:
                through[ib] = lanes
        # Tile access edges (dead tiles get no node and no edges).  Junction
        # ids sort below tile ids, so the junction leads each key.
        for tile_id in range(num_junctions, len(nodes)):
            tile = nodes[tile_id]
            for corner in chip.tile_access(tile[1], tile[2]):
                jid = node_id[corner]
                eid = len(edges)
                edges.append((nodes[jid], tile))
                capacities.append(TILE_ACCESS_CAPACITY)
                corridors.append(None)
                rows[tile_id].append((jid, eid, TILE_ACCESS_CAPACITY))
                access[jid][tile_id] = (eid, TILE_ACCESS_CAPACITY)
        for row in rows:
            row.sort()

        self.nodes: tuple[Node, ...] = nodes
        self.node_id: dict[Node, int] = node_id
        self.edges: tuple[EdgeKey, ...] = tuple(edges)
        self.edge_id: dict[EdgeKey, int] = {key: i for i, key in enumerate(edges)}
        self.through_capacity: list[int] = through
        self.junction_adjacency: list[list[tuple[int, int, int]]] = rows
        self.tile_access: list[dict[int, tuple[int, int]]] = access
        self.corridors: tuple[Corridor | None, ...] = tuple(corridors)
        self.junctions_passable: bool = all(c >= 1 for c in through[:num_junctions])
        self.topology: tuple[tuple[Node, ...], tuple[EdgeKey, ...]] = (nodes, self.edges)
        self._num_junctions = num_junctions
        self._capacity = capacities

    # ---------------------------------------------------------------- queries
    @property
    def chip(self) -> Chip:
        """The chip this graph was built from."""
        return self._chip

    def _id(self, node: Node) -> int:
        try:
            return self.node_id[node]
        except KeyError as exc:
            raise RoutingError(f"unknown node {node}") from exc

    def _edge(self, a: Node, b: Node) -> int:
        try:
            return self.edge_id[edge_key(a, b)]
        except KeyError as exc:
            raise RoutingError(f"no edge between {a} and {b}") from exc

    def tile_id(self, node: Node) -> int:
        """The node id of tile ``node``, the form the router takes endpoints in.

        Raises :class:`RoutingError` naming ``node`` when it is not a tile
        node or the graph lacks it (a dead or off-array tile).
        """
        if not self.is_tile(node):
            raise RoutingError("paths are routed between tile nodes")
        tile = self.node_id.get(node)
        if tile is None:
            raise RoutingError(f"tile {node} is not on the chip (dead or off the tile array)")
        return tile

    def node_capacity(self, node: Node) -> int:
        """Number of distinct paths that may pass *through* ``node`` in one cycle.

        The paper requires simultaneously executed CNOT paths to be
        non-intersecting, i.e. vertex-disjoint at unit bandwidth.  A junction
        where a horizontal corridor of bandwidth ``bh`` crosses a vertical
        corridor of bandwidth ``bv`` provides ``max(bh, bv)`` disjoint lanes
        through the crossing; with defects, only the *enabled* incident
        segments (at their effective capacities) count.  Tile nodes are only
        path endpoints, so their capacity is :data:`TILE_NODE_CAPACITY`.
        Raises :class:`RoutingError` for a node the graph lacks (a dead or
        off-array tile, an off-chip junction).
        """
        return self.through_capacity[self._id(node)]

    @property
    def edge_capacities(self) -> dict[EdgeKey, int]:
        """Capacity per edge key, in edge-id order."""
        return dict(zip(self.edges, self._capacity))

    @property
    def junction_capacities(self) -> dict[Node, int]:
        """Through-capacity per junction node, in node-id order.

        Bulk counterpart of :meth:`node_capacity` for junction nodes (tiles
        are not in the map; their capacity is the unbounded sentinel).
        """
        count = self._num_junctions
        return dict(zip(self.nodes[:count], self.through_capacity[:count]))

    def capacity(self, a: Node, b: Node) -> int:
        """Capacity of the edge between ``a`` and ``b``."""
        return self._capacity[self._edge(a, b)]

    def has_edge(self, a: Node, b: Node) -> bool:
        """True when the graph contains the edge ``{a, b}``."""
        return edge_key(a, b) in self.edge_id

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        """Adjacent nodes of ``node``, in ascending node order."""
        node_index = self._id(node)
        nodes = self.nodes
        junctions = tuple(nodes[n] for n, _eid, _lanes in self.junction_adjacency[node_index])
        return junctions + tuple(nodes[t] for t in self.tile_access[node_index])

    def is_tile(self, node: Node) -> bool:
        """True for tile nodes."""
        return node[0] == "t"

    def tile_nodes(self) -> tuple[Node, ...]:
        """All alive tile nodes in row-major order (dead tiles are not nodes)."""
        return self.nodes[self._num_junctions :]

    def corridor_of(self, a: Node, b: Node) -> Corridor | None:
        """Identify the corridor an edge belongs to.

        Returns the corridor :meth:`Chip.segment` names — ``("h", r)`` for a
        segment of horizontal corridor ``r``, ``("v", c)`` for a vertical
        corridor segment, ``("e", index)`` for a tile-graph edge — and
        ``None`` for tile access edges.  Used by bandwidth adjusting to
        attribute path load to corridors.
        """
        return self.corridors[self._edge(a, b)]

    def path_edges(self, path: Iterable[Node]) -> list[EdgeKey]:
        """Edge keys traversed by a node path, validating adjacency."""
        nodes = list(path)
        edges: list[EdgeKey] = []
        for a, b in zip(nodes, nodes[1:]):
            if not self.has_edge(a, b):
                raise RoutingError(f"path step {a} -> {b} is not an edge")
            edges.append(edge_key(a, b))
        return edges

    def hop_distances_from(self, target_id: int) -> list[int]:
        """Static hop distance of every node id to ``target_id`` (``-1`` unreachable).

        One backward breadth-first sweep.  Like the reference search, tiles
        receive a distance (a path may *start* there) but are never expanded
        through: the sweep walks junction rows only, starting from the target
        (tile or junction), and every other tile then sits one access hop
        past its nearest corner — the target itself, at distance 0, when the
        tile hangs off a junction target.
        """
        distances = [-1] * len(self.nodes)
        distances[target_id] = 0
        junction_adjacency = self.junction_adjacency
        frontier = [target_id]
        level = 0
        while frontier:
            level += 1
            fresh: list[int] = []
            for node in frontier:
                for neighbor, _eid, _capacity in junction_adjacency[node]:
                    if distances[neighbor] < 0:
                        distances[neighbor] = level
                        fresh.append(neighbor)
            frontier = fresh
        for tile in range(self._num_junctions, len(self.nodes)):
            if distances[tile] < 0:
                best = -1
                for corner, _eid, _capacity in junction_adjacency[tile]:
                    d = distances[corner]
                    if d >= 0 and (best < 0 or d < best):
                        best = d
                if best >= 0:
                    distances[tile] = best + 1
        return distances
