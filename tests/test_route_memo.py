"""Routing state that is derived once: the topology-keyed route memo and the
fail-fast for boxed-in endpoints.

* A search whose target or source tile cannot be entered or left under the
  current load — every access edge full, or leading to a corner junction
  with no free through-lane — returns ``None`` with one failure and no
  expansion, in either endpoint order, as the reference Dijkstra does.
* Hop tables and unloaded paths depend only on a graph's topology: a
  :class:`~repro.routing.fast_router.RouteMemo` binds to one topology and
  refuses another; the process's store
  (:data:`~repro.routing.fast_router.ROUTE_MEMOS`) keeps one memo per
  topology, which outlives the daemon's warm chips, and compiles through a
  shared memo equal cold ones.
* The store stays within its cell budget by dropping the least recently
  used topology, and forked batch workers inherit it harmlessly.
* A bandwidth-adjusted compile builds each landmark table once: the
  scheduler reuses what the pre-routing of bandwidth adjusting built, and a
  repeat compile builds none.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter
from dataclasses import asdict

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
from repro.pipeline.batch import BatchJob, run_batch
from repro.pipeline.registry import run_pipeline_method
from repro.profiling import EngineCounters
from repro.routing.fast_router import ROUTE_MEMOS, FastRouter, RouteMemo, RouteMemoStore
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


@pytest.fixture
def hop_table_builds(monkeypatch) -> Counter:
    """Count hop-table builds per (topology, target id)."""
    builds: Counter = Counter()
    hop_distances_from = RoutingGraph.hop_distances_from

    def counting(graph, target_id):
        builds[graph.topology, target_id] += 1
        return hop_distances_from(graph, target_id)

    monkeypatch.setattr(RoutingGraph, "hop_distances_from", counting)
    return builds


def _all_pairs(router: FastRouter) -> None:
    """Ask ``router`` for the unloaded path of every ordered tile pair."""
    graph = router.graph
    tiles = [graph.tile_id(node) for node in graph.nodes if node[0] == "t"]
    for source in tiles:
        for target in tiles:
            if source != target:
                router.find(CapacityUsage(), source, target)


def test_warm_chips_of_one_topology_share_one_memo():
    cache = WarmStateCache(capacity=4)
    narrow = cache.acquire(_square(3, 3))
    wide = cache.acquire(_square(3, 3, bandwidth=2))
    other = cache.acquire(_square(3, 4))
    assert narrow is not wide and narrow.graph is not wide.graph
    assert wide.memo is narrow.memo
    assert other.memo is not narrow.memo
    stats = cache.stats()
    assert (stats["misses"], stats["hits"]) == (3, 0)


def test_a_memo_outlives_every_warm_chip_of_its_topology(hop_table_builds):
    ROUTE_MEMOS.clear()
    cache = WarmStateCache(capacity=1)
    chips = [_square(3, 3), _square(3, 3, bandwidth=2)]
    memos = set()
    for chip in chips * 3:  # each acquire evicts the other chip
        router = cache.acquire(chip)
        memos.add(id(router.memo))
        _all_pairs(router)
    assert (cache.misses, cache.evictions) == (6, 5)
    assert len(memos) == 1
    assert hop_table_builds and max(hop_table_builds.values()) == 1
    assert len(hop_table_builds) == 9  # one per tile of the 3x3 array


def test_the_store_keeps_its_budget_by_dropping_the_least_recent_topology():
    graphs = [RoutingGraph(_square(rows, cols)) for rows, cols in ((3, 3), (3, 4), (4, 3))]
    sizes = []
    for graph in graphs:
        private = RouteMemo()
        _all_pairs(FastRouter(graph, private))
        sizes.append(private.cells)
    store = RouteMemoStore()
    store.budget = sum(sizes) - 1  # room for any two filled memos, not three
    held = []
    for graph in graphs:
        router = FastRouter(graph, store.memo_for(graph))
        tiles = [graph.tile_id(node) for node in graph.nodes if node[0] == "t"]
        for source in tiles:
            for target in tiles:
                if source != target:
                    router.find(CapacityUsage(), source, target)
                    held.append(store.held_cells)
    assert max(held) <= store.budget
    assert store.evictions == 1
    # The 3x3 memo, handed out first, went first.
    assert store.topologies() == [graphs[1].topology, graphs[2].topology]
    assert store.held_cells == sizes[1] + sizes[2]
    stats = store.stats()
    assert (stats["topologies"], stats["misses"], stats["hits"]) == (2, 3, 0)
    # The next router of a dropped topology starts an empty memo.
    assert store.memo_for(graphs[0]).cells == 0


def test_the_store_keeps_its_count_under_concurrent_routers():
    """Threads filling memos of three topologies lose no cell of the count."""
    graphs = [RoutingGraph(_square(rows, cols)) for rows, cols in ((3, 3), (3, 4), (4, 3))]
    store = RouteMemoStore()
    store.budget = 600  # small enough that the threads keep evicting
    errors = []

    def work(offset: int) -> None:
        try:
            for round_ in range(6):
                graph = graphs[(offset + round_) % len(graphs)]
                _all_pairs(FastRouter(graph, store.memo_for(graph)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert store.hits + store.misses == 36
    assert store.evictions > 0
    held = [store.peek(topology) for topology in store.topologies()]
    assert store.held_cells == sum(memo.cells for memo in held) <= store.budget


def test_compiles_through_a_shared_memo_equal_cold_compiles():
    circuit = get_benchmark("qft_n10").build()
    chips = [Chip.for_bandwidth(DD, circuit.num_qubits, 3, b) for b in (1, 2, 3)]
    assert len({RoutingGraph(chip).topology for chip in chips}) == 1
    cold = []
    for chip in chips:
        ROUTE_MEMOS.clear()
        cold.append(schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited")))
    cache = WarmStateCache(capacity=len(chips))
    cache.install()
    hits = ROUTE_MEMOS.hits
    try:
        warm = [
            schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited"))
            for chip in chips
        ]
    finally:
        cache.uninstall()
    assert warm == cold
    assert ROUTE_MEMOS.hits - hits >= len(chips) - 1
    assert len({id(router.memo) for router in map(cache.acquire, chips)}) == 1


def _record_key(record) -> str:
    payload = asdict(record)
    payload.pop("compile_seconds")
    payload["extra"].pop("stages")
    payload["extra"]["counters"].pop("landmark_build_seconds")
    return json.dumps(payload, sort_keys=True, default=str)


def test_forked_workers_after_the_parent_filled_the_store_equal_the_serial_run():
    circuit = get_benchmark("dnn_n8").build()
    jobs = [
        BatchJob(circuit=circuit, method=method)
        for method in ("autobraid", "ecmas_dd_min", "ecmas_ls_4x", "ecmas_dd_resu")
    ]
    ROUTE_MEMOS.clear()
    run_batch(jobs)  # the parent fills the store
    held = ROUTE_MEMOS.held_cells
    assert held > 0
    serial = run_batch(jobs)
    forked = run_batch(jobs, workers=2)
    assert forked.failures == [] and serial.failures == []
    assert [_record_key(r) for r in forked.records] == [_record_key(r) for r in serial.records]
    assert ROUTE_MEMOS.held_cells == held  # nothing new to learn after the first run


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
    ROUTE_MEMOS.clear()
    result = run_pipeline_method(get_benchmark("multiplier_n15").build(), method)
    assert adjusted == [True]
    assert builds and max(builds.values()) == 1
    assert result.counters["landmark_tables"] == len(builds)


@pytest.mark.parametrize("method", ["ecmas_dd_min", "ecmas_dd_4x", "ecmas_ls_4x", "ecmas_dd_resu"])
def test_a_repeat_compile_builds_no_table(method, hop_table_builds):
    circuit = get_benchmark("multiplier_n15").build()
    first = run_pipeline_method(circuit, method)
    built = sum(hop_table_builds.values())
    second = run_pipeline_method(circuit, method)
    assert sum(hop_table_builds.values()) == built
    assert schedule_payload(second.encoded) == schedule_payload(first.encoded)
