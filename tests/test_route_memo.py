"""Routing state that is derived once: the topology-keyed route memo and the
fail-fast for boxed-in endpoints.

* A search whose target or source tile cannot be entered or left under the
  current load — every access edge full, or leading to a corner junction
  with no free through-lane — returns ``None`` with one failure and no
  expansion, in either endpoint order, as the reference Dijkstra does.
* Hop tables and unloaded paths depend only on a graph's topology: a
  :class:`~repro.routing.fast_router.RouteMemo` binds to one topology and
  refuses another; chips that differ only in lanes share one memo in the
  daemon's warm state, and compiles through a shared memo equal cold ones.
* A bandwidth-adjusted compile builds each landmark table once: the
  scheduler reuses what the pre-routing of bandwidth adjusting built.
"""

from __future__ import annotations

from collections import Counter

import pytest
from oracle import OracleRouter

from repro import compile_circuit
from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import RoutingGraph, tile_node
from repro.circuits.generators import get_benchmark
from repro.errors import RoutingError
from repro.pipeline import passes
from repro.pipeline.registry import run_pipeline_method
from repro.profiling import EngineCounters
from repro.routing.fast_router import FastRouter, RouteMemo
from repro.routing.paths import CapacityUsage
from repro.service import WarmStateCache, schedule_payload

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _square(rows: int, cols: int, bandwidth: int = 1) -> Chip:
    return Chip.with_tile_array(DD, 3, rows, cols, bandwidth=bandwidth)


# ------------------------------------------------------------- boxed-in ends
def _box_in_by_edges(graph: RoutingGraph, tile: int, usage: CapacityUsage) -> None:
    """Fill every access edge of ``tile``."""
    for _corner, eid, capacity in graph.junction_adjacency[tile]:
        usage.used[eid] = capacity


def _box_in_by_corners(graph: RoutingGraph, tile: int, usage: CapacityUsage) -> None:
    """Fill the through-lanes of every corner junction of ``tile``."""
    for corner, _eid, _capacity in graph.junction_adjacency[tile]:
        usage.node_used[corner] = graph.through_capacity[corner]


@pytest.mark.parametrize("box_in", [_box_in_by_edges, _box_in_by_corners])
@pytest.mark.parametrize("boxed_end", ["target", "source"])
def test_boxed_in_endpoint_fails_without_expanding(box_in, boxed_end):
    graph = RoutingGraph(_square(3, 3, bandwidth=2))
    boxed = graph.tile_id(tile_node(2, 2))
    other = graph.tile_id(tile_node(0, 0))
    source, target = (other, boxed) if boxed_end == "target" else (boxed, other)
    usage = CapacityUsage()
    box_in(graph, boxed, usage)
    router = FastRouter(graph)
    router.find(CapacityUsage(), source, target)  # cache the unloaded path first
    counters = EngineCounters()
    assert router.find(usage, source, target, 0.25, counters) is None
    assert (counters.route_failures, counters.nodes_expanded) == (1, 0)
    # The reference Dijkstra agrees that no path exists.
    assert OracleRouter(graph).find(usage, source, target, 0.25) is None


def test_an_endpoint_with_one_free_exit_still_routes():
    graph = RoutingGraph(_square(3, 3, bandwidth=2))
    target = graph.tile_id(tile_node(2, 2))
    source = graph.tile_id(tile_node(0, 0))
    usage = CapacityUsage()
    _box_in_by_edges(graph, target, usage)
    corner, eid, _capacity = graph.junction_adjacency[target][-1]
    del usage.used[eid]  # reopen the access edge to the last corner
    counters = EngineCounters()
    path = FastRouter(graph).find(usage, source, target, 0.25, counters)
    assert path is not None and path.nodes[-2] == corner
    assert counters.route_failures == 0 and counters.nodes_expanded > 0


# ----------------------------------------------------------- topology memo
def test_topology_ignores_lanes_and_sees_disabled_segments():
    narrow, wide = RoutingGraph(_square(3, 3)), RoutingGraph(_square(3, 3, bandwidth=3))
    assert narrow.topology == wide.topology
    assert narrow.edge_capacities != wide.edge_capacities
    cut = RoutingGraph(_square(3, 3).with_defects(DefectSpec(disabled_segments=(("h", 1, 1),))))
    assert cut.topology != narrow.topology


def test_a_memo_refuses_a_graph_of_another_topology():
    memo = RouteMemo()
    FastRouter(RoutingGraph(_square(3, 3)), memo)
    FastRouter(RoutingGraph(_square(3, 3, bandwidth=2)), memo)  # same topology
    with pytest.raises(RoutingError, match="another topology"):
        FastRouter(RoutingGraph(_square(3, 4)), memo)


def test_warm_chips_of_one_topology_share_one_memo():
    cache = WarmStateCache(capacity=4)
    narrow = cache.acquire(_square(3, 3))
    wide = cache.acquire(_square(3, 3, bandwidth=2))
    other = cache.acquire(_square(3, 4))
    assert narrow is not wide and narrow.graph is not wide.graph
    assert wide.memo is narrow.memo
    assert other.memo is not narrow.memo
    stats = cache.stats()
    assert (stats["misses"], stats["hits"], stats["memo_shares"]) == (3, 0, 1)


def test_a_memo_lives_only_while_a_warm_chip_holds_it():
    cache = WarmStateCache(capacity=1)
    first = cache.acquire(_square(3, 3))
    cache.acquire(_square(3, 4))  # evicts the only 3x3 chip
    again = cache.acquire(_square(3, 3, bandwidth=2))
    assert again.memo is not first.memo
    assert cache.memo_shares == 0


def test_compiles_through_a_shared_memo_equal_cold_compiles():
    circuit = get_benchmark("qft_n10").build()
    chips = [Chip.for_bandwidth(DD, circuit.num_qubits, 3, b) for b in (1, 2, 3)]
    assert len({RoutingGraph(chip).topology for chip in chips}) == 1
    cold = [
        schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited"))
        for chip in chips
    ]
    cache = WarmStateCache(capacity=len(chips))
    cache.install()
    try:
        warm = [
            schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited"))
            for chip in chips
        ]
    finally:
        cache.uninstall()
    assert warm == cold
    assert cache.memo_shares >= len(chips) - 1
    assert len({id(router.memo) for router in map(cache.acquire, chips)}) == 1


# ------------------------------------------------------ one compile, one memo
@pytest.mark.parametrize("method", ["ecmas_dd_4x", "ecmas_ls_4x", "ecmas_dd_resu"])
def test_an_adjusted_compile_builds_each_table_once(method, monkeypatch):
    builds: Counter[int] = Counter()
    hop_distances_from = RoutingGraph.hop_distances_from

    def counting(graph, target_id):
        builds[target_id] += 1
        return hop_distances_from(graph, target_id)

    adjusted = []
    adjust_bandwidth = passes.adjust_bandwidth

    def recording(chip, *args):
        new_chip = adjust_bandwidth(chip, *args)
        adjusted.append(new_chip != chip)
        return new_chip

    monkeypatch.setattr(RoutingGraph, "hop_distances_from", counting)
    monkeypatch.setattr(passes, "adjust_bandwidth", recording)
    result = run_pipeline_method(get_benchmark("multiplier_n15").build(), method)
    assert adjusted == [True]
    assert builds and max(builds.values()) == 1
    assert result.counters["landmark_tables"] == len(builds)
    assert result.context.route_memo is None  # the memo ends with the compile
