"""Property tests: :class:`CompactRoutingGraph` round-trips its source graph.

The compact graph is a *compiled image* of a :class:`RoutingGraph`: same
nodes, same edges, same capacities, re-indexed onto contiguous integers.
Hypothesis drives random chips — square ones with dead tiles, disabled
segments and bandwidth overrides, and heavy-hex / degree-3 sparse graph chips
with dead tiles and disabled edges — and checks that the image is lossless,
that the node-id ordering invariant (id order == node-tuple order) the
canonical-path contract rests on actually holds, and that the hop-distance
BFS agrees with an independent one for every node as target.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from collections import deque

from hypothesis import assume, given, settings, strategies as st

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.graph_arrays import TILE_NODE_CAPACITY, CompactRoutingGraph
from repro.chip.routing_graph import RoutingGraph
from repro.chip.tile_graph import degree3_sparse, heavy_hex
from repro.errors import ReproError, RoutingError

DD = SurfaceCodeModel.DOUBLE_DEFECT


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


def _oracle_hop_distances(graph: RoutingGraph, target):
    """Independent BFS: static hop count to ``target``; tiles are endpoints only."""
    best = {target: 0}
    queue = deque([target])
    while queue:
        node = queue.popleft()
        if graph.is_tile(node) and node != target:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in best:
                best[neighbor] = best[node] + 1
                queue.append(neighbor)
    return best


# ------------------------------------------------------------------ properties
@settings(max_examples=120, deadline=None)
@given(chips)
def test_node_ids_round_trip_in_sorted_order(chip):
    graph = RoutingGraph(chip)
    compact = CompactRoutingGraph(graph)
    assert compact.num_nodes == len(graph.nodes)
    assert list(compact.nodes) == sorted(graph.nodes)
    for node_id, node in enumerate(compact.nodes):
        assert compact.id_of(node) == node_id
        assert compact.node_id[node] == node_id
    # The ordering invariant the lexicographic path contract rests on.
    assert all(
        compact.nodes[i] < compact.nodes[i + 1] for i in range(compact.num_nodes - 1)
    )


@settings(max_examples=120, deadline=None)
@given(chips)
def test_edge_ids_and_capacities_round_trip(chip):
    graph = RoutingGraph(chip)
    compact = CompactRoutingGraph(graph)
    assert list(compact.edge_keys) == sorted(graph.edges)
    for eid, key in enumerate(compact.edge_keys):
        assert compact.edge_id[key] == eid
        a, b = key
        ia, ib = compact.node_id[a], compact.node_id[b]
        assert compact.pair_edge_key[(ia, ib)] == compact.pair_edge_key[(ib, ia)] == key
    assert len(compact.pair_edge_key) == 2 * len(compact.edge_keys)


@settings(max_examples=120, deadline=None)
@given(chips)
def test_node_capacities_and_tile_mask_round_trip(chip):
    graph = RoutingGraph(chip)
    compact = CompactRoutingGraph(graph)
    assert len(compact.node_capacity) == compact.num_nodes
    passable = True
    for node_id, node in enumerate(compact.nodes):
        if graph.is_tile(node):
            assert compact.node_capacity[node_id] == TILE_NODE_CAPACITY
        else:
            assert compact.node_capacity[node_id] == graph.node_capacity(node)
            passable = passable and graph.node_capacity(node) >= 1
    assert compact.junctions_passable == passable
    # The tile-corner list names every tile once, with all its neighbors.
    assert [compact.nodes[tile] for tile, _ in compact.tile_corner_ids] == list(graph.tile_nodes())
    for tile, corners in compact.tile_corner_ids:
        expected = sorted(compact.node_id[n] for n in graph.neighbors(compact.nodes[tile]))
        assert list(corners) == expected


@settings(max_examples=120, deadline=None)
@given(chips)
def test_adjacency_rows_match_graph_neighbors(chip):
    graph = RoutingGraph(chip)
    compact = CompactRoutingGraph(graph)
    for node_id, node in enumerate(compact.nodes):
        neighbors = sorted(compact.node_id[n] for n in graph.neighbors(node))
        junction_row = compact.junction_adjacency[node_id]
        access = compact.tile_access[node_id]
        # The two rows split the neighbors: junctions ascending, tiles keyed.
        assert [entry[0] for entry in junction_row] == [
            n for n in neighbors if not graph.is_tile(compact.nodes[n])
        ]
        assert sorted(access) == [n for n in neighbors if graph.is_tile(compact.nodes[n])]
        entries = list(junction_row) + [(n, *access[n]) for n in access]
        for neighbor, eid, capacity in entries:
            key = compact.edge_keys[eid]
            assert set(key) == {node, compact.nodes[neighbor]}
            assert capacity == graph.capacity(*key)


@settings(max_examples=80, deadline=None)
@given(chips)
def test_hop_distances_match_bfs_oracle_for_every_target(chip):
    graph = RoutingGraph(chip)
    compact = CompactRoutingGraph(graph)
    # Every node as target: tiles (the router's queries) and junctions
    # (graph-chip slot distances seed there).
    for target_id, target in enumerate(compact.nodes):
        oracle = _oracle_hop_distances(graph, target)
        distances = compact.hop_distances_from(target_id)
        assert distances == [oracle.get(node, -1) for node in compact.nodes]


@settings(max_examples=40, deadline=None)
@given(chips)
def test_unknown_ids_raise_routing_error(chip):
    graph = RoutingGraph(chip)
    compact = CompactRoutingGraph(graph)
    with pytest.raises(RoutingError):
        compact.id_of(("t", 999, 999))
    assert (("j", 999, 999), ("t", 999, 999)) not in compact.edge_id
