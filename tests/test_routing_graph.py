"""Tests for the corridor routing graph.

The unit tests pin the tuple API on one small chip.  The Hypothesis
properties drive random chips — square ones with dead tiles, disabled
segments and bandwidth overrides, and heavy-hex / degree-3 sparse graph chips
with dead tiles and disabled edges — and check the integer-indexed arrays the
router searches against an independent model read straight off the chip's
wiring: the node-id ordering invariant (id order == node-tuple order) the
canonical-path contract rests on, edge keys, through-capacities, the
junction-row / tile-access split, and the hop-distance BFS for every target.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chip import Chip, RoutingGraph, SurfaceCodeModel, junction, tile_node
from repro.chip.defects import DefectSpec
from repro.chip.routing_graph import (
    TILE_ACCESS_CAPACITY,
    TILE_NODE_CAPACITY,
    edge_key,
    tile_node_for,
)
from repro.chip.tile_graph import degree3_sparse, heavy_hex
from repro.errors import ReproError, RoutingError

DD = SurfaceCodeModel.DOUBLE_DEFECT


@pytest.fixture
def graph():
    return RoutingGraph(Chip.with_tile_array(DD, 3, 2, 3, bandwidth=2))


def test_node_counts(graph):
    chip = graph.chip
    junctions = (chip.tile_rows + 1) * (chip.tile_cols + 1)
    tiles = chip.tile_rows * chip.tile_cols
    assert len(graph.nodes) == junctions + tiles
    assert len(graph.tile_nodes()) == tiles


def test_edge_capacities_follow_corridor_bandwidths(graph):
    chip = graph.chip
    assert graph.capacity(junction(0, 0), junction(0, 1)) == chip.h_bandwidths[0]
    assert graph.capacity(junction(0, 0), junction(1, 0)) == chip.v_bandwidths[0]


def test_tile_access_edges_exist(graph):
    tile = tile_node(0, 0)
    for corner in (junction(0, 0), junction(0, 1), junction(1, 0), junction(1, 1)):
        assert graph.has_edge(tile, corner)
    assert graph.is_tile(tile)
    assert not graph.is_tile(junction(0, 0))


def test_neighbors_of_interior_junction(graph):
    # An interior junction touches 4 junction neighbours plus adjacent tiles.
    neighbors = graph.neighbors(junction(1, 1))
    junction_neighbors = [n for n in neighbors if n[0] == "j"]
    assert len(junction_neighbors) == 4


def test_capacity_of_missing_edge_raises(graph):
    with pytest.raises(RoutingError):
        graph.capacity(junction(0, 0), junction(2, 2))


def test_unknown_node_raises(graph):
    with pytest.raises(RoutingError):
        graph.neighbors(("j", 99, 99))


def test_corridor_of_edges(graph):
    assert graph.corridor_of(junction(0, 0), junction(0, 1)) == ("h", 0)
    assert graph.corridor_of(junction(1, 0), junction(2, 0)) == ("v", 0)
    assert graph.corridor_of(tile_node(0, 0), junction(0, 0)) is None


def test_path_edges_validates_adjacency(graph):
    nodes = [tile_node(0, 0), junction(0, 0), junction(0, 1)]
    edges = graph.path_edges(nodes)
    assert len(edges) == 2
    with pytest.raises(RoutingError):
        graph.path_edges([tile_node(0, 0), junction(2, 3)])


# ----------------------------------------------------------------- strategies
@st.composite
def square_chips(draw):
    """A random small square chip, possibly defective."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=2, max_value=4))
    chip = Chip(
        model=DD,
        code_distance=3,
        tile_rows=rows,
        tile_cols=cols,
        h_bandwidths=tuple(draw(st.integers(1, 3)) for _ in range(rows + 1)),
        v_bandwidths=tuple(draw(st.integers(1, 3)) for _ in range(cols + 1)),
        side=999,
    )
    if draw(st.booleans()):
        dead = draw(
            st.lists(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                max_size=2,
            )
        )
        segments = st.one_of(
            st.tuples(st.just("h"), st.integers(0, rows), st.integers(0, cols - 1)),
            st.tuples(st.just("v"), st.integers(0, rows - 1), st.integers(0, cols)),
        )
        disabled = draw(st.lists(segments, max_size=2))
        overrides = draw(
            st.lists(st.tuples(segments, st.integers(0, 2)), max_size=2)
        )
        try:
            chip = chip.with_defects(
                DefectSpec(
                    dead_tiles=tuple(dead),
                    disabled_segments=tuple(disabled),
                    bandwidth_overrides=tuple(overrides),
                )
            )
        except ReproError:
            assume(False)  # invalid defect draw for this geometry
    return chip


@st.composite
def graph_chips(draw):
    """A heavy-hex or degree-3 sparse chip with dead tiles and disabled edges."""
    if draw(st.booleans()):
        graph = heavy_hex(draw(st.integers(2, 3)), draw(st.integers(2, 3)))
    else:
        graph = degree3_sparse(draw(st.integers(4, 16)), seed=draw(st.integers(0, 9)))
    nodes = st.integers(0, graph.num_nodes - 1)
    dead = draw(st.lists(st.tuples(nodes, st.just(0)), max_size=3, unique=True))
    disabled = draw(
        st.lists(st.sampled_from([("e", a, b) for a, b in graph.edges]), max_size=2, unique=True)
    )
    return Chip.from_tile_graph(
        DD, 3, graph, defects=DefectSpec(dead_tiles=tuple(dead), disabled_segments=tuple(disabled))
    )


chips = st.one_of(square_chips(), graph_chips())


def _wiring(chip: Chip):
    """Independent model of the graph, read straight off the chip's wiring.

    Returns the edge capacities (enabled segments then tile access edges, in
    wiring order), the junction through-capacities and the adjacency sets.
    """
    capacity = {}
    through = {node: 0 for node in chip.junctions()}
    for key in chip.segment_keys():
        a, b, _corridor, lanes = chip.segment(key)
        if lanes >= 1:
            capacity[edge_key(a, b)] = lanes
            through[a] = max(through[a], lanes)
            through[b] = max(through[b], lanes)
    for slot in chip.alive_tile_slots():
        for corner in chip.tile_access(slot.row, slot.col):
            capacity[edge_key(corner, tile_node_for(slot))] = TILE_ACCESS_CAPACITY
    adjacency = {node: set() for node in chip.junctions()}
    adjacency.update({tile_node_for(slot): set() for slot in chip.alive_tile_slots()})
    for a, b in capacity:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return capacity, through, adjacency


def _oracle_hop_distances(adjacency, target):
    """Independent BFS: static hop count to ``target``; tiles are endpoints only."""
    best = {target: 0}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        if node[0] == "t" and node != target:
            continue
        for neighbor in adjacency[node]:
            if neighbor not in best:
                best[neighbor] = best[node] + 1
                queue.append(neighbor)
    return best


# ------------------------------------------------------------------ properties
@settings(max_examples=120, deadline=None)
@given(chips)
def test_node_ids_are_sorted_insertion_order(chip):
    graph = RoutingGraph(chip)
    tiles = [tile_node_for(slot) for slot in chip.alive_tile_slots()]
    # Insertion order: junctions, then alive tiles, each row-major ...
    assert list(graph.nodes) == chip.junctions() + tiles
    assert graph.tile_nodes() == tuple(tiles)
    assert graph.node_id == {node: i for i, node in enumerate(graph.nodes)}
    # ... which is strictly ascending node-tuple order, the invariant the
    # lexicographic path contract rests on.
    assert all(graph.nodes[i] < graph.nodes[i + 1] for i in range(len(graph.nodes) - 1))


@settings(max_examples=120, deadline=None)
@given(chips)
def test_edge_keys_come_from_node_ids(chip):
    graph = RoutingGraph(chip)
    capacity, _through, _adjacency = _wiring(chip)
    assert list(graph.edges) == list(capacity)  # segments, then tile access
    assert graph.edge_capacities == capacity
    for eid, key in enumerate(graph.edges):
        assert graph.edge_id[key] == eid
        ia, ib = graph.node_id[key[0]], graph.node_id[key[1]]
        assert key == (graph.nodes[min(ia, ib)], graph.nodes[max(ia, ib)])
        assert graph.capacity(*key) == graph.capacity(key[1], key[0]) == capacity[key]


@settings(max_examples=120, deadline=None)
@given(chips)
def test_through_capacities_and_passability(chip):
    graph = RoutingGraph(chip)
    _capacity, through, _adjacency = _wiring(chip)
    assert graph.junction_capacities == through
    assert len(graph.through_capacity) == len(graph.nodes)
    for node_id, node in enumerate(graph.nodes):
        expected = TILE_NODE_CAPACITY if graph.is_tile(node) else through[node]
        assert graph.through_capacity[node_id] == graph.node_capacity(node) == expected
    assert graph.junctions_passable == all(lanes >= 1 for lanes in through.values())


@settings(max_examples=120, deadline=None)
@given(chips)
def test_junction_rows_and_tile_access_partition_neighbors(chip):
    graph = RoutingGraph(chip)
    capacity, _through, adjacency = _wiring(chip)
    nodes = graph.nodes
    for node_id, node in enumerate(nodes):
        neighbors = graph.neighbors(node)
        assert sorted(neighbors) == list(neighbors) == sorted(adjacency[node])
        junction_row = graph.junction_adjacency[node_id]
        access = graph.tile_access[node_id]
        # The two rows split the neighbors: junctions ascending, tiles keyed.
        assert [nodes[n] for n, _eid in junction_row] == [
            n for n in neighbors if not graph.is_tile(n)
        ]
        assert sorted(nodes[t] for t in access) == [n for n in neighbors if graph.is_tile(n)]
        entries = list(junction_row) + [(t, access[t]) for t in access]
        for neighbor, eid in entries:
            assert graph.edges[eid] == edge_key(node, nodes[neighbor])
            assert graph.lanes[eid] == capacity[graph.edges[eid]]


@settings(max_examples=80, deadline=None)
@given(chips)
def test_hop_distances_match_bfs_oracle_for_every_target(chip):
    graph = RoutingGraph(chip)
    _capacity, _through, adjacency = _wiring(chip)
    # Every node as target: tiles (the router's queries) and junctions
    # (graph-chip slot distances seed there).
    for target_id, target in enumerate(graph.nodes):
        oracle = _oracle_hop_distances(adjacency, target)
        distances = graph.hop_distances_from(target_id)
        assert distances == [oracle.get(node, -1) for node in graph.nodes]


@settings(max_examples=40, deadline=None)
@given(chips)
def test_unknown_nodes_raise_routing_error(chip):
    graph = RoutingGraph(chip)
    dead = [tile_node(row, col) for row, col in chip.defects.dead_tiles]
    for node in [("t", 999, 999), ("j", 999, 999), *dead]:
        assert node not in graph.node_id
        with pytest.raises(RoutingError):
            graph.node_capacity(node)
        with pytest.raises(RoutingError):
            graph.neighbors(node)
    assert not graph.has_edge(("j", 999, 999), ("t", 999, 999))
