"""Dense integer-indexed view of a :class:`~repro.chip.routing_graph.RoutingGraph`.

The tuple-keyed :class:`RoutingGraph` is the *semantic* model — defects,
capacities and the canonical path contract are all defined over its
``("j", r, c)`` / ``("t", i, j)`` nodes.  The hot path, however, spends its
time hashing those tuples.  :class:`CompactRoutingGraph` compiles the graph
once into contiguous integer node ids and CSR-style numpy arrays so that the
router's landmark tables and A* search run over flat arrays instead of
dict-of-dicts.

Node-id ordering invariant
--------------------------
Node ids are assigned in **sorted node-tuple order**.  Junction tuples sort
before tile tuples (``"j" < "t"``) and both families sort row-major, so

    ``id(a) < id(b)  ⟺  a < b``  (as node tuples).

Consequently the lexicographic order of two *id sequences* equals the
lexicographic order of the corresponding *node-tuple sequences* — the
canonical path tie-break survives the translation to integers unchanged,
which is what lets the array router return bit-identical paths
(``tests/test_graph_arrays.py`` round-trips this).

Edge ids are likewise assigned in sorted ``(min_id, max_id)`` endpoint order,
giving every undirected edge one stable integer the residual-capacity
bookkeeping can index by.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.chip.routing_graph import EdgeKey, Node, RoutingGraph
from repro.errors import RoutingError

#: Through-capacity stored for tile nodes (path endpoints, effectively
#: unbounded).  Matches :meth:`RoutingGraph.node_capacity`.
TILE_NODE_CAPACITY = 1 << 30


class CompactRoutingGraph:
    """A compiled-once flat-array image of one :class:`RoutingGraph`.

    Attributes
    ----------
    nodes:
        Node tuples indexed by node id (sorted tuple order).
    indptr, neighbor_ids, adj_edge_ids:
        CSR adjacency: the neighbors of node ``u`` are
        ``neighbor_ids[indptr[u]:indptr[u + 1]]`` (ascending id order), and
        ``adj_edge_ids`` maps each adjacency slot to its undirected edge id.
    edge_capacity:
        Base capacity per edge id (defect-adjusted, like the source graph).
    node_capacity:
        Through-capacity per node id (junction lane counts; tiles get
        :data:`TILE_NODE_CAPACITY`).
    is_tile:
        Boolean mask over node ids.
    """

    def __init__(self, graph: RoutingGraph):
        self._graph = graph
        nodes = sorted(graph.nodes)
        self.nodes: tuple[Node, ...] = tuple(nodes)
        node_id = {node: i for i, node in enumerate(nodes)}
        self.node_id: dict[Node, int] = node_id
        num_nodes = len(nodes)

        # Canonical edge keys are endpoint-sorted tuples, and the node-id
        # invariant makes tuple order equal id order — plain key sort is the
        # (id_a, id_b) sort.
        capacity_by_key = graph.edge_capacities
        edge_keys = sorted(capacity_by_key)
        self.edge_keys: tuple[EdgeKey, ...] = tuple(edge_keys)
        self.edge_id: dict[EdgeKey, int] = {key: i for i, key in enumerate(edge_keys)}
        self._capacity_list = [capacity_by_key[key] for key in edge_keys]
        self._endpoint_ids = [(node_id[a], node_id[b]) for a, b in edge_keys]

        is_tile_list = [node[0] == "t" for node in nodes]
        self._is_tile_list = is_tile_list
        junction_capacity = graph.junction_capacities
        self._node_capacity_list = [
            TILE_NODE_CAPACITY if tile else junction_capacity[node]
            for node, tile in zip(nodes, is_tile_list)
        ]
        #: True when every junction can pass at least one path through it.
        #: A defective chip may strand a junction with only tile-access edges
        #: (through-capacity 0); the unloaded-graph greedy walk of the fast
        #: router is only canonical when no such junction exists.
        self.junctions_passable: bool = all(
            tile or capacity >= 1
            for tile, capacity in zip(is_tile_list, self._node_capacity_list)
        )

        #: Directed (u, v) id pair -> canonical EdgeKey, both orientations;
        #: lets the router emit RoutedPath edges without re-deriving keys.
        pair_edge_key: dict[tuple[int, int], EdgeKey] = {}
        self.pair_edge_key = pair_edge_key
        adj_lists: list[list[tuple[int, int, int]]] = [[] for _ in range(num_nodes)]
        for eid, (key, (ia, ib)) in enumerate(zip(edge_keys, self._endpoint_ids)):
            capacity = self._capacity_list[eid]
            adj_lists[ia].append((ib, eid, capacity))
            adj_lists[ib].append((ia, eid, capacity))
            pair_edge_key[(ia, ib)] = key
            pair_edge_key[(ib, ia)] = key
        self._adj_lists = adj_lists

        # Flattened per-node adjacency for the Python-level search loops, all
        # built in one pass (plain lists/dicts beat per-element numpy indexing
        # by a wide margin there):
        # * ``adjacency`` — every neighbor as (id, edge, capacity, is_tile);
        # * ``junction_adjacency`` — junction neighbors only: the A* inner
        #   loop never passes *through* a tile;
        # * ``tile_access`` — tile neighbors keyed by id, probed for targets;
        # * ``_tile_corner_ids`` — per tile, its corner junction ids (BFS
        #   derives tile distances from corners).
        adjacency_rows = []
        junction_rows = []
        access_rows = []
        tile_corner_ids: list[tuple[int, tuple[int, ...]]] = []
        for node, entries in enumerate(adj_lists):
            entries.sort()
            full_row = []
            junction_row = []
            access: dict[int, tuple[int, int]] = {}
            for neighbor, eid, capacity in entries:
                tile = is_tile_list[neighbor]
                full_row.append((neighbor, eid, capacity, tile))
                if tile:
                    access[neighbor] = (eid, capacity)
                else:
                    junction_row.append((neighbor, eid, capacity))
            adjacency_rows.append(tuple(full_row))
            junction_rows.append(tuple(junction_row))
            access_rows.append(access)
            if is_tile_list[node]:
                tile_corner_ids.append((node, tuple(entry[0] for entry in entries)))
        self.adjacency: tuple[tuple[tuple[int, int, int, bool], ...], ...] = tuple(adjacency_rows)
        self.junction_adjacency: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(junction_rows)
        self.tile_access: tuple[dict[int, tuple[int, int]], ...] = tuple(access_rows)
        self._tile_corner_ids = tile_corner_ids

    # ----------------------------------------------------------- array views
    # The numpy faces of the graph are materialised lazily: the scalar hot
    # path (small chips) never touches them, and charging every compile for
    # arrays only the vectorised BFS and offline analyses read would put the
    # constructor back on the profile of shallow circuits.
    @cached_property
    def edge_capacity(self) -> np.ndarray:
        """Base capacity per edge id (defect-adjusted, like the source graph)."""
        return np.array(self._capacity_list, dtype=np.int64)

    @cached_property
    def edge_endpoints(self) -> np.ndarray:
        """``(num_edges, 2)`` node-id endpoints per edge id."""
        return np.array(self._endpoint_ids, dtype=np.int32).reshape(len(self.edge_keys), 2)

    @cached_property
    def is_tile(self) -> np.ndarray:
        """Boolean mask over node ids (True for tiles)."""
        return np.array(self._is_tile_list, dtype=bool)

    @cached_property
    def node_capacity(self) -> np.ndarray:
        """Through-capacity per node id (tiles get the unbounded sentinel)."""
        return np.array(self._node_capacity_list, dtype=np.int64)

    @cached_property
    def indptr(self) -> np.ndarray:
        """CSR row pointer: node ``u``'s adjacency occupies slots
        ``indptr[u]:indptr[u + 1]`` of :attr:`neighbor_ids`."""
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum([len(entries) for entries in self._adj_lists], out=indptr[1:])
        return indptr

    @cached_property
    def neighbor_ids(self) -> np.ndarray:
        """CSR neighbor ids, ascending within each row."""
        return np.array(
            [entry[0] for entries in self._adj_lists for entry in entries], dtype=np.int32
        )

    @cached_property
    def adj_edge_ids(self) -> np.ndarray:
        """Undirected edge id per CSR adjacency slot."""
        return np.array(
            [entry[1] for entries in self._adj_lists for entry in entries], dtype=np.int32
        )

    # ---------------------------------------------------------------- queries
    @property
    def graph(self) -> RoutingGraph:
        """The tuple-keyed source graph this image was compiled from."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Number of nodes (contiguous ids ``0 .. num_nodes - 1``)."""
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (contiguous ids ``0 .. num_edges - 1``)."""
        return len(self.edge_keys)

    def id_of(self, node: Node) -> int:
        """The integer id of ``node``."""
        try:
            return self.node_id[node]
        except KeyError as exc:
            raise RoutingError(f"unknown node {node}") from exc

    def node_of(self, node_id: int) -> Node:
        """The node tuple for an integer id."""
        return self.nodes[node_id]

    def edge_id_of(self, key: EdgeKey) -> int:
        """The integer id of a canonical undirected edge key."""
        try:
            return self.edge_id[key]
        except KeyError as exc:
            raise RoutingError(f"unknown edge {key}") from exc

    def node_capacity_of(self, node_id: int) -> int:
        """Through-capacity of a node id (tiles report the unbounded sentinel)."""
        return self._node_capacity_list[node_id]

    # -------------------------------------------------------------- landmarks
    #: Below this node count the per-level numpy call overhead of the
    #: vectorised sweep exceeds a plain scalar BFS over the flat adjacency
    #: (measured crossover is a few hundred nodes; the margin keeps every
    #: Table I chip on the scalar path and n>=500 chips on the vector path).
    _VECTOR_BFS_MIN_NODES = 1024

    def hop_distances_from(self, target_id: int) -> np.ndarray:
        """Static hop distance of every node to ``target_id`` (``-1`` unreachable).

        One backward breadth-first sweep.  Like the reference search, tiles
        receive a distance (a path may *start* there) but are never expanded
        through — only the target itself seeds the sweep.  Small chips take a
        scalar BFS over the flattened adjacency; large chips switch to
        vectorised level expansion over the CSR arrays, keeping the per-table
        cost flat-array cheap on n>=500 chips.
        """
        if self.num_nodes < self._VECTOR_BFS_MIN_NODES:
            return self._hop_distances_scalar(target_id)
        return self._hop_distances_vector(target_id)

    def _hop_distances_scalar(self, target_id: int) -> np.ndarray:
        distances = [-1] * self.num_nodes
        distances[target_id] = 0
        junction_adjacency = self.junction_adjacency
        # Seed with the target's neighbors, then sweep the junction subgraph
        # only — tiles are never expanded through, so their distances follow
        # from their corner junctions afterwards (one access hop).
        frontier: list[int] = []
        for neighbor, _eid, _capacity, neighbor_is_tile in self.adjacency[target_id]:
            distances[neighbor] = 1
            if not neighbor_is_tile:
                frontier.append(neighbor)
        level = 1
        while frontier:
            level += 1
            fresh: list[int] = []
            for node in frontier:
                for neighbor, _eid, _capacity in junction_adjacency[node]:
                    if distances[neighbor] < 0:
                        distances[neighbor] = level
                        fresh.append(neighbor)
            frontier = fresh
        for tile, corners in self._tile_corner_ids:
            if distances[tile] < 0:
                best = -1
                for corner in corners:
                    d = distances[corner]
                    if d >= 0 and (best < 0 or d < best):
                        best = d
                if best >= 0:
                    distances[tile] = best + 1
        return np.array(distances, dtype=np.int64)

    def _hop_distances_vector(self, target_id: int) -> np.ndarray:
        distance = np.full(self.num_nodes, -1, dtype=np.int64)
        distance[target_id] = 0
        frontier = np.array([target_id], dtype=np.int64)
        level = 0
        while frontier.size:
            level += 1
            if level > 1:
                frontier = frontier[~self.is_tile[frontier]]
                if not frontier.size:
                    break
            starts = self.indptr[frontier]
            counts = self.indptr[frontier + 1] - starts
            total = int(counts.sum())
            if not total:
                break
            # Gather the concatenated CSR neighbor slices of the frontier.
            offsets = np.arange(total) - np.repeat(counts.cumsum() - counts, counts)
            neighbors = self.neighbor_ids[np.repeat(starts, counts) + offsets]
            fresh = np.unique(neighbors[distance[neighbors] < 0])
            if not fresh.size:
                break
            distance[fresh] = level
            frontier = fresh
        return distance
