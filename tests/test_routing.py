"""Tests for capacity-aware path search, capacity bookkeeping and EDP routing.

``find_path`` is the reference router of the test oracle; the production
router is held to it by ``tests/test_properties_routing.py``.
"""

import random

import pytest
from oracle import ReferenceUsage, find_path, reference_engine, route_edge_disjoint

from repro.chip import Chip, RoutingGraph, SurfaceCodeModel, tile_node
from repro.errors import RoutingError
from repro.routing import RoutedPath

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _graph(rows=3, cols=3, bandwidth=1):
    return RoutingGraph(Chip.with_tile_array(DD, 3, rows, cols, bandwidth=bandwidth))


class TestFindPath:
    def test_adjacent_tiles_short_path(self):
        graph = _graph()
        path = find_path(graph, ReferenceUsage(), tile_node(0, 0), tile_node(0, 1))
        assert path is not None
        assert path.source == tile_node(0, 0)
        assert path.target == tile_node(0, 1)
        assert path.length <= 4

    def test_path_never_crosses_other_tiles(self):
        graph = _graph(4, 4)
        path = find_path(graph, ReferenceUsage(), tile_node(0, 0), tile_node(3, 3))
        for node in path.nodes[1:-1]:
            assert not graph.is_tile(node)

    def test_same_tile_raises(self):
        graph = _graph()
        with pytest.raises(RoutingError):
            find_path(graph, ReferenceUsage(), tile_node(0, 0), tile_node(0, 0))

    def test_non_tile_endpoint_raises(self):
        graph = _graph()
        with pytest.raises(RoutingError):
            find_path(graph, ReferenceUsage(), ("j", 0, 0), tile_node(0, 0))

    def test_saturated_graph_returns_none(self):
        graph = _graph(2, 2, bandwidth=1)
        usage = ReferenceUsage()
        # Saturate every edge.
        for key in graph.edges:
            usage.used[key] = graph.capacity(*key)
        assert find_path(graph, usage, tile_node(0, 0), tile_node(1, 1)) is None

    def test_congestion_weight_prefers_empty_edges(self):
        graph = _graph(3, 3, bandwidth=2)
        usage = ReferenceUsage()
        direct = find_path(graph, usage, tile_node(0, 0), tile_node(0, 2))
        usage.add_path(direct)
        second = find_path(graph, usage, tile_node(0, 0), tile_node(0, 2), congestion_weight=2.0)
        assert second is not None
        # With a strong congestion penalty, the second path should avoid at
        # least part of the first one.
        assert set(second.edges) != set(direct.edges)


class TestCapacityUsage:
    def test_add_and_remove_path(self):
        graph = _graph()
        path = find_path(graph, ReferenceUsage(), tile_node(0, 0), tile_node(2, 2))
        usage = ReferenceUsage()
        usage.add_path(path)
        assert usage.total_edge_load() == path.length
        assert not usage.violates(graph)
        usage.remove_path(path)
        assert usage.total_edge_load() == 0

    def test_remove_unreserved_raises(self):
        graph = _graph()
        path = find_path(graph, ReferenceUsage(), tile_node(0, 0), tile_node(1, 1))
        with pytest.raises(RoutingError):
            ReferenceUsage().remove_path(path)

    def test_copy_is_independent(self):
        usage = ReferenceUsage({("a", "b"): 1})
        clone = usage.copy()
        clone.used[("a", "b")] = 5
        assert usage.used[("a", "b")] == 1


class TestRoutedPath:
    def test_from_nodes_validates(self):
        graph = _graph()
        nodes = [tile_node(0, 0), ("j", 0, 0), ("j", 1, 0), tile_node(1, 0)]
        path = RoutedPath.from_nodes(graph, nodes)
        assert path.length == 3
        with pytest.raises(RoutingError):
            RoutedPath.from_nodes(graph, [tile_node(0, 0)])


class TestCycleRouter:
    """One cycle's batch of gates through :func:`route_edge_disjoint`."""

    def test_routes_independent_gates(self):
        graph = _graph(3, 3, bandwidth=1)
        pairs = [
            (tile_node(0, 0), tile_node(0, 1)),
            (tile_node(2, 0), tile_node(2, 1)),
            (tile_node(0, 2), tile_node(1, 2)),
        ]
        routed, failed = route_edge_disjoint(graph, pairs)
        assert len(routed) == 3
        assert failed == []

    def test_respects_existing_usage(self):
        graph = _graph(2, 2, bandwidth=1)
        usage = ReferenceUsage()
        for key in graph.edges:
            usage.used[key] = graph.capacity(*key)
        routed, failed = route_edge_disjoint(
            graph, [(tile_node(0, 0), tile_node(1, 1))], usage=usage
        )
        assert routed == {}
        assert failed == [0]


class TestEdgeDisjointRouting:
    def test_three_gates_always_routable_bandwidth_one(self):
        # Theorem 2 base case: any three independent CNOTs can run together.
        graph = _graph(3, 3, bandwidth=1)
        pairs = [
            (tile_node(0, 0), tile_node(2, 2)),
            (tile_node(0, 2), tile_node(2, 0)),
            (tile_node(1, 0), tile_node(1, 2)),
        ]
        routed, failed = route_edge_disjoint(graph, pairs)
        assert failed == [] and len(routed) == len(pairs)

    def test_route_edge_disjoint_returns_indices(self):
        graph = _graph(3, 3, bandwidth=1)
        pairs = [
            (tile_node(0, 0), tile_node(0, 1)),
            (tile_node(2, 1), tile_node(2, 2)),
        ]
        routed, failed = route_edge_disjoint(graph, pairs)
        assert set(routed) == {0, 1}
        assert failed == []

    def test_max_simultaneous_counts(self):
        graph = _graph(3, 3, bandwidth=1)
        pairs = [
            (tile_node(0, 0), tile_node(0, 1)),
            (tile_node(1, 0), tile_node(1, 1)),
            (tile_node(2, 0), tile_node(2, 1)),
        ]
        routed, _ = route_edge_disjoint(graph, pairs)
        assert len(routed) == 3

    def test_matches_the_reference_router(self):
        # Over-subscribed cycles exercise failures and rip-up-and-reroute;
        # the production router must reproduce the reference Dijkstra's
        # outcome exactly.
        rng = random.Random(7)
        for bandwidth in (1, 2):
            graph = _graph(5, 5, bandwidth=bandwidth)
            tiles = graph.tile_nodes()
            for _ in range(10):
                picked = rng.sample(tiles, 12)
                pairs = list(zip(picked[::2], picked[1::2]))
                production = route_edge_disjoint(graph, pairs)
                with reference_engine():
                    reference = route_edge_disjoint(graph, pairs)
                assert production == reference
