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

Topology and lanes
------------------
A graph is two parts.  Its :class:`Topology` is everything but the lane
counts: the node and edge tuples and their ids, the adjacency rows, each
edge's corridor, and the :class:`RouteMemo` of routing answers that depend
on nothing else.  Its *lane image* is the chip's own: the capacity of each
edge id (:attr:`RoutingGraph.lanes`) and the through-capacity of each node
id (:attr:`RoutingGraph.through_capacity`).  Chips that differ only in lanes
— a chip and its bandwidth-adjusted copy, the chips the paper sizes for one
qubit count at several bandwidths — have equal topologies.

The process keeps its graphs in one :class:`RoutingGraphStore`,
:data:`ROUTING_GRAPHS`: one graph per chip value and one shared topology per
chip shape, so a chip the process has seen is one dict hit and a new chip of
a known shape builds only its lane image.  The schedulers, bandwidth
adjusting, graph-chip slot distances and the defect sampler take their
graphs from it; ``RoutingGraph(chip)`` builds a private graph, which is what
the validator does.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.chip.chip import Chip, Corridor, TileSlot
from repro.errors import RoutingError

if TYPE_CHECKING:
    from repro.routing.paths import IdPath

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

#: The tile-access map of a node without tile neighbours.
_NO_TILES: Mapping[int, int] = MappingProxyType({})

#: The most cells the process's :data:`ROUTING_GRAPHS` holds together: one
#: per hop-table entry and static-path node of every memo, and one per node
#: and per edge of every topology and of every lane image.  The memo of the
#: largest windowed row (``ising`` n=1000, 999 tables over 2,113 nodes) holds
#: about 2.1M.
GRAPH_STORE_BUDGET_CELLS = 4_000_000


class _Wiring:
    """One pass over a chip's wiring: the node, edge and lane lists of its graph.

    Corridor segments enter at their defect-adjusted effective capacities;
    disabled segments (capacity 0) are omitted, and a junction's
    through-capacity is the best lane count among its enabled segments,
    which reduces to ``max(bh[row], bv[col])`` on a pristine square chip.
    Dead tiles get no node and no access edges.
    """

    __slots__ = ("nodes", "node_id", "edges", "ends", "corridors", "lanes", "through", "junctions")

    def __init__(self, chip: Chip):
        junctions = chip.junctions()
        tiles = [tile_node_for(slot) for slot in chip.alive_tile_slots()]
        nodes = (*junctions, *tiles)
        node_id = {node: i for i, node in enumerate(nodes)}
        through = [0] * len(junctions) + [TILE_NODE_CAPACITY] * len(tiles)
        edges: list[EdgeKey] = []
        ends: list[tuple[int, int]] = []
        corridors: list[Corridor | None] = []
        lanes: list[int] = []
        for key in chip.segment_keys():
            a, b, corridor, count = chip.segment(key)
            if count < 1:
                continue
            ia, ib = node_id[a], node_id[b]
            if ia > ib:
                ia, ib = ib, ia
            edges.append((nodes[ia], nodes[ib]))
            ends.append((ia, ib))
            corridors.append(corridor)
            lanes.append(count)
            if through[ia] < count:
                through[ia] = count
            if through[ib] < count:
                through[ib] = count
        # Junction ids sort below tile ids, so the junction leads each key.
        for tile_id in range(len(junctions), len(nodes)):
            tile = nodes[tile_id]
            for corner in chip.tile_access(tile[1], tile[2]):
                jid = node_id[corner]
                edges.append((nodes[jid], tile))
                ends.append((jid, tile_id))
                corridors.append(None)
                lanes.append(TILE_ACCESS_CAPACITY)
        self.nodes = nodes
        self.node_id = node_id
        self.edges = tuple(edges)
        self.ends = ends
        self.corridors = tuple(corridors)
        self.lanes = lanes
        self.through = through
        self.junctions = len(junctions)

    @property
    def key(self) -> tuple:
        """What makes two topologies equal: the node, edge and corridor tuples."""
        return (self.nodes, self.edges, self.corridors)


class RouteMemo:
    """The routing answers that depend only on a graph's topology.

    ``tables`` holds the node-id-indexed hop-distance lists, keyed by target
    node id (tiles for the router, junctions for graph-chip slot
    distances); ``static_paths`` the canonical paths on the *empty* usage
    state, keyed by the (source, target) tile-id pair, ``None`` for
    disconnected pairs.  With no reservations every congestion penalty is
    zero, so the canonical path depends only on the endpoints — schedulers
    re-ask for the same unloaded pairs every cycle.  ``cells`` counts what
    the memo holds: one per hop-table entry and per static-path node (one
    per ``None``).

    Lane counts never enter an answer: every edge the graph keeps has at
    least one lane, so an unloaded search never finds one full, and a
    junction can pass a path iff it has a corridor edge.  So every graph of
    a topology shares its topology's memo.  A memo of a topology that
    :data:`ROUTING_GRAPHS` holds reports its growth to the store.
    """

    __slots__ = ("tables", "static_paths", "cells", "_store")

    def __init__(self) -> None:
        self.tables: dict[int, list[int]] = {}
        self.static_paths: dict[tuple[int, int], IdPath | None] = {}
        self.cells = 0
        self._store: RoutingGraphStore | None = None

    def add_table(self, target_id: int, table: list[int]) -> None:
        """Keep the hop table towards ``target_id``."""
        self.tables[target_id] = table
        self._grow(len(table))

    def add_path(self, key: tuple[int, int], path: IdPath | None) -> None:
        """Keep the unloaded canonical path of the tile pair ``key``."""
        self.static_paths[key] = path
        self._grow(1 if path is None else len(path.nodes))

    def _grow(self, cells: int) -> None:
        store = self._store
        if store is None:
            self.cells += cells
        else:
            store._grew(self, cells)


class Topology:
    """A routing graph without its lanes, shared by every chip of one shape.

    The arrays below are read directly by the router; treat them as
    read-only.

    Attributes
    ----------
    nodes:
        Node tuples indexed by node id (sorted tuple order); ``node_id`` is
        the inverse map.
    edges:
        Canonical edge keys indexed by edge id; ``edge_id`` is the inverse map.
    junction_adjacency:
        Per node id, its *junction* neighbors as ``(neighbor, edge id)`` in
        ascending neighbor id.  Searches never pass through a tile, so this
        is the only row they iterate; a tile's row holds its access
        junctions.
    tile_access:
        Per node id, its *tile* neighbors as ``{tile id: edge id}``, probed
        for a search's target tile.
    corridors:
        The corridor of each edge id as :meth:`RoutingGraph.corridor_of`
        names it (``None`` for tile access edges).
    junctions_passable:
        True when every junction can pass at least one path through it.  A
        defective chip may strand a junction with only tile-access edges
        (through-capacity 0); the fast router's unloaded greedy walk is only
        canonical when no such junction exists.
    memo:
        The :class:`RouteMemo` of this topology.
    key, key_hash:
        The node, edge and corridor tuples, and their hash as the store
        computed it (``None`` for a topology the store does not hold).
    """

    __slots__ = (
        "nodes",
        "node_id",
        "edges",
        "_edge_id",
        "junction_adjacency",
        "tile_access",
        "corridors",
        "junctions_passable",
        "num_junctions",
        "memo",
        "key",
        "key_hash",
    )

    def __init__(self, wiring: _Wiring, key_hash: int | None = None):
        nodes = wiring.nodes
        rows: list[list[tuple[int, int]]] = [[] for _ in nodes]
        # A node without tile neighbours shares one empty map.
        access: list[Mapping[int, int]] = [_NO_TILES] * len(nodes)
        num_junctions = wiring.junctions
        for eid, (ia, ib) in enumerate(wiring.ends):
            if ib < num_junctions:
                rows[ia].append((ib, eid))
                rows[ib].append((ia, eid))
            else:
                rows[ib].append((ia, eid))
                if access[ia] is _NO_TILES:
                    access[ia] = {}
                access[ia][ib] = eid
        self.nodes: tuple[Node, ...] = nodes
        self.node_id: dict[Node, int] = wiring.node_id
        self.edges: tuple[EdgeKey, ...] = wiring.edges
        self._edge_id: dict[EdgeKey, int] | None = None
        self.junction_adjacency: list[tuple[tuple[int, int], ...]] = [
            tuple(sorted(row)) for row in rows
        ]
        self.tile_access: list[Mapping[int, int]] = access
        self.corridors: tuple[Corridor | None, ...] = wiring.corridors
        self.junctions_passable: bool = all(rows[j] for j in range(num_junctions))
        self.num_junctions = num_junctions
        self.memo = RouteMemo()
        self.key = wiring.key
        self.key_hash = key_hash

    @property
    def edge_id(self) -> dict[EdgeKey, int]:
        """Edge id per canonical edge key, built on first use (the router never needs it)."""
        edge_id = self._edge_id
        if edge_id is None:
            edge_id = self._edge_id = {key: i for i, key in enumerate(self.edges)}
        return edge_id

    @property
    def cells(self) -> int:
        """What this topology, or one lane image of it, holds: a cell per node and per edge."""
        return len(self.nodes) + len(self.edges)

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
                for neighbor, _eid in junction_adjacency[node]:
                    if distances[neighbor] < 0:
                        distances[neighbor] = level
                        fresh.append(neighbor)
            frontier = fresh
        for tile in range(self.num_junctions, len(self.nodes)):
            if distances[tile] < 0:
                best = -1
                for corner, _eid in junction_adjacency[tile]:
                    d = distances[corner]
                    if d >= 0 and (best < 0 or d < best):
                        best = d
                if best >= 0:
                    distances[tile] = best + 1
        return distances

    def table_to(self, target_id: int, stats=None) -> list[int]:
        """The memo's hop table towards ``target_id``, built on first use.

        ``stats``, an :class:`~repro.profiling.EngineCounters`, accounts the
        build time as ``landmark_build_seconds``.
        """
        table = self.memo.tables.get(target_id)
        if table is None:
            started = time.perf_counter()
            table = self.hop_distances_from(target_id)
            if stats is not None:
                stats.landmark_build_seconds += time.perf_counter() - started
            self.memo.add_table(target_id, table)
        return table


class RoutingGraph:
    """Undirected capacitated graph over junction and tile nodes: a topology and a lane image.

    ``topology`` is the graph's :class:`Topology`; ``nodes``, ``node_id``,
    ``edges``, ``edge_id``, ``junction_adjacency``, ``tile_access``,
    ``corridors`` and ``junctions_passable`` are its arrays (see there).  The
    lane image is the chip's own:

    lanes:
        Capacity per edge id (see :meth:`capacity`).
    through_capacity:
        Through-capacity per node id (see :meth:`node_capacity`).

    ``RoutingGraph(chip)`` builds a private graph over a topology of its
    own.  Given ``intern`` — the store's topology lookup — it builds only
    the lane image and takes its topology from there.
    """

    __slots__ = (
        "_chip",
        "topology",
        "lanes",
        "through_capacity",
        "nodes",
        "node_id",
        "edges",
        "junction_adjacency",
        "tile_access",
        "corridors",
        "junctions_passable",
    )

    def __init__(self, chip: Chip, intern: Callable[[_Wiring], Topology] | None = None):
        wiring = _Wiring(chip)
        topology = Topology(wiring) if intern is None else intern(wiring)
        self._chip = chip
        self.topology = topology
        self.lanes: list[int] = wiring.lanes
        self.through_capacity: list[int] = wiring.through
        self.nodes = topology.nodes
        self.node_id = topology.node_id
        self.edges = topology.edges
        self.junction_adjacency = topology.junction_adjacency
        self.tile_access = topology.tile_access
        self.corridors = topology.corridors
        self.junctions_passable = topology.junctions_passable

    # ---------------------------------------------------------------- queries
    @property
    def edge_id(self) -> dict[EdgeKey, int]:
        """Edge id per canonical edge key (see :attr:`Topology.edge_id`)."""
        return self.topology.edge_id

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
        return dict(zip(self.edges, self.lanes))

    @property
    def junction_capacities(self) -> dict[Node, int]:
        """Through-capacity per junction node, in node-id order.

        Bulk counterpart of :meth:`node_capacity` for junction nodes (tiles
        are not in the map; their capacity is the unbounded sentinel).
        """
        count = self.topology.num_junctions
        return dict(zip(self.nodes[:count], self.through_capacity[:count]))

    def capacity(self, a: Node, b: Node) -> int:
        """Capacity of the edge between ``a`` and ``b``."""
        return self.lanes[self._edge(a, b)]

    def has_edge(self, a: Node, b: Node) -> bool:
        """True when the graph contains the edge ``{a, b}``."""
        return edge_key(a, b) in self.edge_id

    def neighbors(self, node: Node) -> tuple[Node, ...]:
        """Adjacent nodes of ``node``, in ascending node order."""
        node_index = self._id(node)
        nodes = self.nodes
        junctions = tuple(nodes[n] for n, _eid in self.junction_adjacency[node_index])
        return junctions + tuple(nodes[t] for t in self.tile_access[node_index])

    def is_tile(self, node: Node) -> bool:
        """True for tile nodes."""
        return node[0] == "t"

    def tile_nodes(self) -> tuple[Node, ...]:
        """All alive tile nodes in row-major order (dead tiles are not nodes)."""
        return self.nodes[self.topology.num_junctions :]

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
        """Static hop distance of every node id to ``target_id`` (see :meth:`Topology.hop_distances_from`)."""
        return self.topology.hop_distances_from(target_id)


class RoutingGraphStore:
    """The process's routing graphs: one per chip value, one topology per chip shape.

    :meth:`graph_for` answers a chip it holds with one dict hit.  A new
    chip builds only its lane image: its wiring is read once, and its
    topology is found by hashing the node, edge and corridor tuples once, or
    built on first sight.  The store holds at most ``budget`` cells
    (:data:`GRAPH_STORE_BUDGET_CELLS`: topologies, lane images and memo
    entries, see :attr:`Topology.cells`); past it, whole topologies are
    dropped with their lane images and memos, least recently used first.  A
    caller keeps using a dropped graph until it is done; the next request
    for its chip builds it again.  Sharing changes no answer: a graph is
    determined by its chip, and a memo entry by the topology alone.

    Every method is thread-safe.  :data:`ROUTING_GRAPHS` renews its lock in
    a forked child, which starts with a copy of the parent's graphs.
    ``hits``, ``misses`` and ``evictions`` count chips.
    """

    budget = GRAPH_STORE_BUDGET_CELLS

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._graphs: dict[Chip, RoutingGraph] = {}
        #: Held topologies by key hash, least recently used first.
        self._topologies: OrderedDict[int, Topology] = OrderedDict()
        self.held_cells = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def graph_for(self, chip: Chip) -> RoutingGraph:
        """The routing graph of ``chip`` (counted as a hit or a miss)."""
        with self._lock:
            graph = self._graphs.get(chip)
            if graph is not None:
                self.hits += 1
                self._topologies.move_to_end(graph.topology.key_hash)
                return graph
        built = RoutingGraph(chip, self._intern)  # the lane image, lock not held
        with self._lock:
            graph = self._graphs.get(chip)
            if graph is not None:  # another thread stored the chip first
                self.hits += 1
                return graph
            self.misses += 1
            topology = built.topology
            if self._topologies.get(topology.key_hash) is topology:
                self._graphs[chip] = built
                self._topologies.move_to_end(topology.key_hash)
                self._grow(topology.cells)
        return built

    def _intern(self, wiring: _Wiring) -> Topology:
        """The held topology of ``wiring``, or a new one (held unless its hash is taken)."""
        key = wiring.key
        key_hash = hash(key)
        with self._lock:
            held = self._topologies.get(key_hash)
            if held is not None and held.key == key:
                return held
            topology = Topology(wiring, key_hash)
            if held is None:
                self._topologies[key_hash] = topology
                topology.memo._store = self
                self._grow(topology.cells)
            return topology

    def _grew(self, memo: RouteMemo, cells: int) -> None:
        """Account ``cells`` new cells of ``memo``."""
        with self._lock:
            memo.cells += cells
            if memo._store is self:  # else dropped while a router still filled it
                self._grow(cells)

    def _grow(self, cells: int) -> None:
        # Called with the lock held.
        self.held_cells += cells
        while self.held_cells > self.budget and self._topologies:
            _key_hash, dropped = self._topologies.popitem(last=False)
            dropped.memo._store = None
            chips = [chip for chip, graph in self._graphs.items() if graph.topology is dropped]
            for chip in chips:
                del self._graphs[chip]
            self.held_cells -= dropped.cells * (1 + len(chips)) + dropped.memo.cells
            self.evictions += len(chips)

    def clear(self) -> None:
        """Drop every graph and topology (the hit, miss and eviction counts stay)."""
        with self._lock:
            for topology in self._topologies.values():
                topology.memo._store = None
            self._topologies.clear()
            self._graphs.clear()
            self.held_cells = 0

    def topologies(self) -> list[Topology]:
        """The held topologies, least recently used first."""
        with self._lock:
            return list(self._topologies.values())

    def stats(self) -> dict:
        """Counters for ``/stats``: held chips, topologies, cells and memo entries; hits, misses, evictions."""
        with self._lock:
            memos = [topology.memo for topology in self._topologies.values()]
            return {
                "chips": len(self._graphs),
                "topologies": len(memos),
                "landmark_tables": sum(len(memo.tables) for memo in memos),
                "static_paths": sum(len(memo.static_paths) for memo in memos),
                "held_cells": self.held_cells,
                "budget_cells": self.budget,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _after_fork(self) -> None:
        # A fork copies the lock in whatever state another thread left it.
        self._lock = threading.Lock()


#: The process's one routing-graph store.
ROUTING_GRAPHS = RoutingGraphStore()
os.register_at_fork(after_in_child=ROUTING_GRAPHS._after_fork)
