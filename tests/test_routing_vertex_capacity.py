"""Tests for the non-intersection (junction capacity) routing constraint.

The paper requires CNOT paths executed in the same cycle to be
non-intersecting; with bandwidth-1 corridors this means two paths may not
cross at a junction.  These tests pin down that behaviour and its relaxation
at higher bandwidths.
"""

from oracle import ReferenceUsage, find_routed

from repro.chip import Chip, RoutingGraph, SurfaceCodeModel, junction, tile_node
from repro.routing import FastRouter

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _graph(rows=3, cols=3, bandwidth=1):
    return RoutingGraph(Chip.with_tile_array(DD, 3, rows, cols, bandwidth=bandwidth))


def _route(graph, usage, source, target):
    return find_routed(FastRouter(graph), usage, source, target)


def test_node_capacity_values():
    graph = _graph(bandwidth=1)
    assert graph.node_capacity(junction(1, 1)) == 1
    assert graph.node_capacity(tile_node(0, 0)) > 1_000
    wide = _graph(bandwidth=3)
    assert wide.node_capacity(junction(1, 1)) == 3


def test_crossing_paths_conflict_at_bandwidth_one():
    # A horizontal path through the central junction blocks a vertical path
    # through the same junction when every corridor has a single lane.
    graph = _graph(3, 3, bandwidth=1)
    usage = ReferenceUsage()
    horizontal = _route(graph, usage, tile_node(0, 1), tile_node(2, 1))
    assert horizontal is not None
    usage.add_path(horizontal)
    vertical = _route(graph, usage, tile_node(1, 0), tile_node(1, 2))
    if vertical is not None:
        # If a path was found it must avoid every junction the first one used.
        assert not (set(vertical.nodes[1:-1]) & set(horizontal.nodes[1:-1]))


def test_crossing_allowed_with_higher_bandwidth():
    graph = _graph(3, 3, bandwidth=2)
    usage = ReferenceUsage()
    first = _route(graph, usage, tile_node(0, 1), tile_node(2, 1))
    usage.add_path(first)
    second = _route(graph, usage, tile_node(1, 0), tile_node(1, 2))
    assert second is not None


def test_node_usage_released_on_remove():
    graph = _graph()
    usage = ReferenceUsage()
    path = _route(graph, usage, tile_node(0, 0), tile_node(2, 2))
    usage.add_path(path)
    assert usage.node_used
    usage.remove_path(path)
    assert not usage.node_used


def test_endpoints_do_not_consume_node_capacity():
    graph = _graph()
    usage = ReferenceUsage()
    path = _route(graph, usage, tile_node(0, 0), tile_node(0, 1))
    usage.add_path(path)
    # Tile endpoints never appear in the node usage table.
    assert all(not graph.is_tile(node) for node in usage.node_used)
