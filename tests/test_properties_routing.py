"""Property-based tests for the capacity-aware routers.

Hypothesis drives the reference router of the test oracle (and the
production router) over random small chips, random residual-capacity states
and random tile pairs, checking the routing contract rather than specific
paths:

* a returned path starts at the source tile, ends at the target tile and
  traverses no tile in between;
* committing the path never exceeds any edge or junction capacity;
* with ``congestion_weight=0`` the returned path is a *shortest*
  capacity-feasible path (checked against an independent BFS oracle), and
  ``None`` is returned only when the oracle also finds no path;
* the production landmark-A* router returns the bit-identical node sequence
  for every query, including under congestion weights.
"""

from __future__ import annotations

from collections import deque

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st
from oracle import ReferenceUsage, find_path, find_routed

from repro.chip.chip import Chip
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import RoutingGraph, tile_node
from repro.routing.fast_router import FastRouter


# ----------------------------------------------------------------- strategies
@st.composite
def routing_scenarios(draw):
    """A random small chip, a random usage state and a random tile pair."""
    rows = draw(st.integers(min_value=1, max_value=4))
    cols = draw(st.integers(min_value=1, max_value=4))
    if rows * cols < 2:
        cols = 2  # need two distinct tiles
    chip = Chip(
        model=SurfaceCodeModel.DOUBLE_DEFECT,
        code_distance=3,
        tile_rows=rows,
        tile_cols=cols,
        h_bandwidths=tuple(draw(st.integers(1, 3)) for _ in range(rows + 1)),
        v_bandwidths=tuple(draw(st.integers(1, 3)) for _ in range(cols + 1)),
        side=999,
    )
    graph = RoutingGraph(chip)
    tiles = graph.tile_nodes()
    source, target = draw(
        st.lists(st.sampled_from(tiles), min_size=2, max_size=2, unique=True)
    )
    # Random pre-existing usage: route a few random pairs and commit them, so
    # the usage state is always one a scheduler could actually reach.
    usage = ReferenceUsage()
    for _ in range(draw(st.integers(0, 6))):
        a, b = draw(st.lists(st.sampled_from(tiles), min_size=2, max_size=2, unique=True))
        committed = find_path(graph, usage, a, b)
        if committed is not None:
            usage.add_path(committed)
    weight = draw(st.sampled_from([0.0, 0.25, 0.5]))
    return graph, usage, source, target, weight


def _shortest_feasible_hops(graph, usage, source, target):
    """Independent BFS oracle: fewest hops over the residual graph, or None."""
    best = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == target:
            return best[node]
        if graph.is_tile(node) and node != source:
            continue  # tiles never continue a path
        for neighbor in graph.neighbors(node):
            if neighbor in best:
                continue
            if graph.is_tile(neighbor) and neighbor != target:
                continue
            if not usage.can_use(graph, node, neighbor):
                continue
            if neighbor != target and not usage.can_pass_through(graph, neighbor):
                continue
            best[neighbor] = best[node] + 1
            queue.append(neighbor)
    return best.get(target)


# ------------------------------------------------------------------ properties
@settings(max_examples=120, deadline=None)
@given(routing_scenarios())
def test_path_endpoints_and_interior(scenario):
    graph, usage, source, target, weight = scenario
    path = find_path(graph, usage, source, target, weight)
    if path is None:
        return
    assert path.source == source
    assert path.target == target
    assert all(not graph.is_tile(node) for node in path.nodes[1:-1])
    assert len(set(path.nodes)) == len(path.nodes), "path revisits a node"


@settings(max_examples=120, deadline=None)
@given(routing_scenarios())
def test_committing_path_never_exceeds_capacity(scenario):
    graph, usage, source, target, weight = scenario
    path = find_path(graph, usage, source, target, weight)
    if path is None:
        return
    usage.add_path(path)
    assert usage.violates(graph) == []
    for node in path.nodes[1:-1]:
        assert usage.node_used[node] <= graph.node_capacity(node)


@settings(max_examples=120, deadline=None)
@given(routing_scenarios())
def test_path_is_shortest_among_feasible(scenario):
    graph, usage, source, target, _weight = scenario
    path = find_path(graph, usage, source, target, congestion_weight=0.0)
    oracle = _shortest_feasible_hops(graph, usage, source, target)
    if path is None:
        assert oracle is None, "router failed although a feasible path exists"
    else:
        assert oracle is not None
        assert path.length == oracle, "router returned a non-shortest path"


@settings(max_examples=150, deadline=None)
@given(routing_scenarios())
def test_fast_router_matches_reference_exactly(scenario):
    graph, usage, source, target, weight = scenario
    reference = find_path(graph, usage, source, target, weight)
    fast = find_routed(FastRouter(graph), usage, source, target, weight)
    if reference is None:
        assert fast is None
    else:
        assert fast is not None
        assert fast.nodes == reference.nodes
        assert fast.edges == reference.edges
