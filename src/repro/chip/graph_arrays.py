"""Dense integer-indexed view of a :class:`~repro.chip.routing_graph.RoutingGraph`.

The tuple-keyed :class:`RoutingGraph` is the *semantic* model — defects,
capacities and the canonical path contract are all defined over its
``("j", r, c)`` / ``("t", i, j)`` nodes.  The hot path, however, spends its
time hashing those tuples.  :class:`CompactRoutingGraph` compiles the graph
once into contiguous integer node and edge ids and per-node adjacency rows
(plain tuples, lists and dicts), so that the router's landmark tables and
A* search index flat lists instead of dict-of-dicts.

Node-id ordering invariant
--------------------------
Node ids are assigned in **sorted node-tuple order**.  Junction tuples sort
before tile tuples (``"j" < "t"``) and both families sort row-major, so

    ``id(a) < id(b)  ⟺  a < b``  (as node tuples).

Consequently the lexicographic order of two *id sequences* equals the
lexicographic order of the corresponding *node-tuple sequences* — the
canonical path tie-break survives the translation to integers unchanged,
which is what lets the router return bit-identical paths
(``tests/test_graph_arrays.py`` round-trips this).

Edge ids are likewise assigned in sorted ``(min_id, max_id)`` endpoint order,
giving every undirected edge one stable integer the residual-capacity
bookkeeping can index by.
"""

from __future__ import annotations

from repro.chip.routing_graph import EdgeKey, Node, RoutingGraph
from repro.errors import RoutingError

#: Through-capacity stored for tile nodes (path endpoints, effectively
#: unbounded).  Matches :meth:`RoutingGraph.node_capacity`.
TILE_NODE_CAPACITY = 1 << 30


class CompactRoutingGraph:
    """A compiled-once integer-indexed image of one :class:`RoutingGraph`.

    Attributes
    ----------
    nodes:
        Node tuples indexed by node id (sorted tuple order); ``node_id`` is
        the inverse map.
    edge_keys:
        Canonical edge keys indexed by edge id; ``edge_id`` is the inverse map.
    junction_adjacency:
        Per node id, its *junction* neighbors as ``(neighbor, edge id,
        capacity)`` in ascending neighbor id.  Searches never pass through a
        tile, so this is the only row they iterate.
    tile_access:
        Per node id, its *tile* neighbors as ``{tile id: (edge id,
        capacity)}``, probed for a search's target tile.
    pair_edge_key:
        Directed ``(u, v)`` id pair to canonical edge key, both orientations,
        so a search emits :class:`RoutedPath` edges without re-deriving keys.
    node_capacity:
        Through-capacity per node id (junction lane counts; tiles get
        :data:`TILE_NODE_CAPACITY`).
    junctions_passable:
        True when every junction can pass at least one path through it.
    """

    def __init__(self, graph: RoutingGraph):
        nodes = sorted(graph.nodes)
        self.nodes: tuple[Node, ...] = tuple(nodes)
        node_id = {node: i for i, node in enumerate(nodes)}
        self.node_id: dict[Node, int] = node_id

        # Canonical edge keys are endpoint-sorted tuples, and the node-id
        # invariant makes tuple order equal id order — plain key sort is the
        # (id_a, id_b) sort.
        capacity_by_key = graph.edge_capacities
        edge_keys = sorted(capacity_by_key)
        self.edge_keys: tuple[EdgeKey, ...] = tuple(edge_keys)
        self.edge_id: dict[EdgeKey, int] = {key: i for i, key in enumerate(edge_keys)}

        is_tile = [node[0] == "t" for node in nodes]
        junction_capacity = graph.junction_capacities
        self.node_capacity: list[int] = [
            TILE_NODE_CAPACITY if tile else junction_capacity[node]
            for node, tile in zip(nodes, is_tile)
        ]
        #: A defective chip may strand a junction with only tile-access edges
        #: (through-capacity 0); the unloaded-graph greedy walk of the fast
        #: router is only canonical when no such junction exists.
        self.junctions_passable: bool = all(
            tile or capacity >= 1 for tile, capacity in zip(is_tile, self.node_capacity)
        )

        pair_edge_key: dict[tuple[int, int], EdgeKey] = {}
        self.pair_edge_key = pair_edge_key
        entries_of: list[list[tuple[int, int, int]]] = [[] for _ in nodes]
        for eid, key in enumerate(edge_keys):
            ia, ib = node_id[key[0]], node_id[key[1]]
            capacity = capacity_by_key[key]
            entries_of[ia].append((ib, eid, capacity))
            entries_of[ib].append((ia, eid, capacity))
            pair_edge_key[(ia, ib)] = key
            pair_edge_key[(ib, ia)] = key

        junction_rows = []
        access_rows = []
        tile_corner_ids: list[tuple[int, tuple[int, ...]]] = []
        for node, entries in enumerate(entries_of):
            entries.sort()
            junction_row = []
            access: dict[int, tuple[int, int]] = {}
            for neighbor, eid, capacity in entries:
                if is_tile[neighbor]:
                    access[neighbor] = (eid, capacity)
                else:
                    junction_row.append((neighbor, eid, capacity))
            junction_rows.append(tuple(junction_row))
            access_rows.append(access)
            if is_tile[node]:
                tile_corner_ids.append((node, tuple(entry[0] for entry in entries)))
        self.junction_adjacency: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(junction_rows)
        self.tile_access: tuple[dict[int, tuple[int, int]], ...] = tuple(access_rows)
        #: Per tile id, its corner junction ids: the BFS never expands a
        #: tile, so a tile's distance is one access hop past its nearest corner.
        self.tile_corner_ids = tile_corner_ids

    @property
    def num_nodes(self) -> int:
        """Number of nodes (contiguous ids ``0 .. num_nodes - 1``)."""
        return len(self.nodes)

    def id_of(self, node: Node) -> int:
        """The integer id of ``node``."""
        try:
            return self.node_id[node]
        except KeyError as exc:
            raise RoutingError(f"unknown node {node}") from exc

    def hop_distances_from(self, target_id: int) -> list[int]:
        """Static hop distance of every node to ``target_id`` (``-1`` unreachable).

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
        for tile, corners in self.tile_corner_ids:
            if distances[tile] < 0:
                best = -1
                for corner in corners:
                    d = distances[corner]
                    if d >= 0 and (best < 0 or d < best):
                        best = d
                if best >= 0:
                    distances[tile] = best + 1
        return distances
