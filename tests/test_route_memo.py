"""Routing state that is derived once: the process's routing-graph store, the
topology-owned route memo and the fail-fast for boxed-in endpoints.

* A search whose target or source tile cannot be entered or left under the
  current load — every access edge full, or leading to a corner junction
  with no free through-lane — returns ``None`` with one failure and no
  expansion, in either endpoint order, as the reference Dijkstra does.
* The store (:data:`~repro.chip.routing_graph.ROUTING_GRAPHS`) keeps one
  graph per chip and one :class:`~repro.chip.routing_graph.Topology` per
  chip shape: a chip compiled N times builds its lane image once, chips
  that differ only in lanes share one topology and one memo, and a topology
  is built once (counted at construction).
* Going over the cell budget drops the least recently used topology with
  its lane images; threads and forked workers see what a serial run sees;
  the validator builds its own graph and never asks the store.
* Graph-chip slot distances and the defect sampler take their graphs and
  tables from the store.
* A bandwidth-adjusted compile builds each landmark table once: the
  scheduler reuses what the pre-routing of bandwidth adjusting built, and a
  repeat compile builds none.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from collections import Counter
from dataclasses import asdict

import pytest
from oracle import OracleRouter

from repro import compile_circuit
from repro.chip import heavy_hex
from repro.chip.chip import Chip, TileSlot
from repro.chip.defects import DefectSpec, random_defects
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import (
    ROUTING_GRAPHS,
    RoutingGraph,
    RoutingGraphStore,
    Topology,
    tile_node,
)
from repro.chip.tile_graph import TileGraph
from repro.circuits.generators import get_benchmark
from repro.pipeline import passes
from repro.pipeline.batch import BatchJob, run_batch
from repro.pipeline.registry import run_pipeline_method
from repro.profiling import EngineCounters
from repro.routing.fast_router import FastRouter, routing_for
from repro.routing.paths import CapacityUsage
from repro.service import schedule_payload
from repro.verify import validate_encoded_circuit

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _square(rows: int, cols: int, bandwidth: int = 1) -> Chip:
    return Chip.with_tile_array(DD, 3, rows, cols, bandwidth=bandwidth)


# ------------------------------------------------------------- boxed-in ends
def _box_in_by_edges(graph: RoutingGraph, tile: int, usage: CapacityUsage) -> None:
    """Fill every access edge of ``tile``."""
    for _corner, eid in graph.junction_adjacency[tile]:
        usage.used[eid] = graph.lanes[eid]


def _box_in_by_corners(graph: RoutingGraph, tile: int, usage: CapacityUsage) -> None:
    """Fill the through-lanes of every corner junction of ``tile``."""
    for corner, _eid in graph.junction_adjacency[tile]:
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
    corner, eid = graph.junction_adjacency[target][-1]
    del usage.used[eid]  # reopen the access edge to the last corner
    counters = EngineCounters()
    path = FastRouter(graph).find(usage, source, target, 0.25, counters)
    assert path is not None and path.nodes[-2] == corner
    assert counters.route_failures == 0 and counters.nodes_expanded > 0


# ------------------------------------------------------------ counted builds
@pytest.fixture
def builds(monkeypatch) -> Counter:
    """Count lane images (``RoutingGraph``) and topologies built, at construction."""
    counts: Counter = Counter()
    graph_init, topology_init = RoutingGraph.__init__, Topology.__init__

    def counting_graph(self, *args, **kwargs):
        counts["lane_images"] += 1
        graph_init(self, *args, **kwargs)

    def counting_topology(self, *args, **kwargs):
        counts["topologies"] += 1
        topology_init(self, *args, **kwargs)

    monkeypatch.setattr(RoutingGraph, "__init__", counting_graph)
    monkeypatch.setattr(Topology, "__init__", counting_topology)
    ROUTING_GRAPHS.clear()
    return counts


@pytest.fixture
def hop_table_builds(monkeypatch) -> Counter:
    """Count hop-table builds per (topology, target id)."""
    counts: Counter = Counter()
    hop_distances_from = Topology.hop_distances_from

    def counting(topology, target_id):
        counts[id(topology), target_id] += 1
        return hop_distances_from(topology, target_id)

    monkeypatch.setattr(Topology, "hop_distances_from", counting)
    return counts


def test_a_chip_compiled_n_times_builds_its_lane_image_once(builds):
    circuit = get_benchmark("qft_n10").build()
    chip = Chip.for_bandwidth(DD, circuit.num_qubits, 3, 1)
    first = schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited"))
    for _ in range(3):
        again = compile_circuit(circuit, chip=chip, scheduler="limited")
        assert schedule_payload(again) == first
    assert builds == {"lane_images": 1, "topologies": 1}


def test_a_new_chip_of_a_known_shape_builds_only_its_lane_image(builds):
    narrow = ROUTING_GRAPHS.graph_for(_square(3, 3))
    wide = ROUTING_GRAPHS.graph_for(_square(3, 3, bandwidth=2))
    assert builds == {"lane_images": 2, "topologies": 1}
    assert narrow is not wide and narrow.lanes != wide.lanes
    assert ROUTING_GRAPHS.graph_for(_square(3, 3)) is narrow  # one dict hit
    assert builds == {"lane_images": 2, "topologies": 1}


def test_warm_chips_of_one_topology_share_one_memo():
    ROUTING_GRAPHS.clear()
    narrow = routing_for(_square(3, 3))
    wide = routing_for(_square(3, 3, bandwidth=3))
    other = routing_for(_square(3, 4))
    assert narrow.graph is not wide.graph
    assert wide.graph.topology is narrow.graph.topology
    assert wide.memo is narrow.memo is narrow.graph.topology.memo
    assert other.graph.topology is not narrow.graph.topology
    assert other.memo is not narrow.memo
    stats = ROUTING_GRAPHS.stats()
    assert (stats["chips"], stats["topologies"]) == (3, 2)


def test_topology_ignores_lanes_and_sees_disabled_segments():
    narrow, wide = RoutingGraph(_square(3, 3)), RoutingGraph(_square(3, 3, bandwidth=3))
    assert narrow.topology.key == wide.topology.key
    assert narrow.topology is not wide.topology  # private graphs share nothing
    assert narrow.edge_capacities != wide.edge_capacities
    cut = RoutingGraph(_square(3, 3).with_defects(DefectSpec(disabled_segments=(("h", 1, 1),))))
    assert cut.topology.key != narrow.topology.key


def test_topologies_with_equal_edges_but_other_corridors_stay_apart():
    # Graph chip a disables edge 0 of two; graph chip b never had it.  Their
    # node and edge tuples agree, but the kept edge is corridor ("e", 1) on
    # a and ("e", 0) on b.
    coords = ((0.0, 0.0), (1.0, 0.0), (2.0, 0.0))
    a = Chip.from_tile_graph(
        DD, 3, TileGraph(name="a", coords=coords, edges=((0, 1), (1, 2)), bandwidths=(1, 1))
    ).with_defects(DefectSpec(disabled_segments=(("e", 0, 1),)))
    b = Chip.from_tile_graph(
        DD, 3, TileGraph(name="b", coords=coords, edges=((1, 2),), bandwidths=(1,))
    )
    ROUTING_GRAPHS.clear()
    graph_a, graph_b = ROUTING_GRAPHS.graph_for(a), ROUTING_GRAPHS.graph_for(b)
    assert graph_a.edges == graph_b.edges
    assert graph_a.topology is not graph_b.topology
    kept = (("j", 1, 0), ("j", 2, 0))
    assert (graph_a.corridor_of(*kept), graph_b.corridor_of(*kept)) == (("e", 1), ("e", 0))


def _all_pairs(router: FastRouter) -> dict:
    """The unloaded path of every ordered tile pair, as node tuples."""
    graph = router.graph
    tiles = [graph.tile_id(node) for node in graph.tile_nodes()]
    paths = {}
    for source in tiles:
        for target in tiles:
            if source != target:
                path = router.find(CapacityUsage(), source, target)
                paths[source, target] = None if path is None else path.nodes
    return paths


def test_the_store_keeps_its_budget_by_dropping_the_least_recent_topology():
    shapes = [(3, 3), (3, 4), (4, 3)]
    sizes = []
    for shape in shapes:
        private = RoutingGraph(_square(*shape))
        _all_pairs(FastRouter(private))
        sizes.append(private.topology.cells * 3 + private.topology.memo.cells)
    store = RoutingGraphStore()
    store.budget = sum(sizes) - 1  # room for any two filled shapes of two chips, not three
    held = []
    for shape in shapes:
        for bandwidth in (1, 2):
            graph = store.graph_for(_square(*shape, bandwidth=bandwidth))
            _all_pairs(FastRouter(graph))
            held.append(store.held_cells)
    assert max(held) <= store.budget
    # The 3x3 shape, used least recently, went with both of its chips.
    assert store.evictions == 2
    stats = store.stats()
    assert (stats["chips"], stats["topologies"], stats["misses"]) == (4, 2, 6)
    assert [t.key for t in store.topologies()] == [
        RoutingGraph(_square(*shape)).topology.key for shape in shapes[1:]
    ]
    assert store.held_cells == sizes[1] + sizes[2]
    # The next request for a dropped chip builds it again, over an empty memo.
    again = store.graph_for(_square(3, 3))
    assert store.misses == 7 and again.topology.memo.cells == 0


def test_the_store_keeps_its_count_under_concurrent_routers():
    """Six threads filling a small store keep its count and get the serial answers."""
    chips = [_square(*shape, bandwidth=b) for shape in ((3, 3), (3, 4), (4, 3)) for b in (1, 2)]
    serial = [_all_pairs(FastRouter(RoutingGraph(chip))) for chip in chips]
    store = RoutingGraphStore()
    store.budget = 900  # small enough that the threads keep evicting
    errors = []

    def work(offset: int) -> None:
        try:
            for round_ in range(len(chips)):
                index = (offset + round_) % len(chips)
                assert _all_pairs(FastRouter(store.graph_for(chips[index]))) == serial[index]
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
    topologies = sum(t.cells + t.memo.cells for t in store.topologies())
    lane_images = sum(graph.topology.cells for graph in store._graphs.values())
    assert store.held_cells == topologies + lane_images <= store.budget


def test_compiles_through_a_shared_memo_equal_cold_compiles():
    circuit = get_benchmark("qft_n10").build()
    chips = [Chip.for_bandwidth(DD, circuit.num_qubits, 3, b) for b in (1, 2, 3)]
    cold = []
    for chip in chips:
        ROUTING_GRAPHS.clear()
        cold.append(schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited")))
    ROUTING_GRAPHS.clear()
    warm = [
        schedule_payload(compile_circuit(circuit, chip=chip, scheduler="limited"))
        for chip in chips
    ]
    assert warm == cold
    assert len({id(routing_for(chip).graph.topology) for chip in chips}) == 1


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
    ROUTING_GRAPHS.clear()
    run_batch(jobs)  # the parent fills the store
    held = ROUTING_GRAPHS.held_cells
    assert held > 0
    serial = run_batch(jobs)
    forked = run_batch(jobs, workers=2)
    assert forked.failures == [] and serial.failures == []
    assert [_record_key(r) for r in forked.records] == [_record_key(r) for r in serial.records]
    assert ROUTING_GRAPHS.held_cells == held  # nothing new to learn after the first run


def test_a_forked_child_reads_the_parents_graphs():
    chip = _square(3, 4, bandwidth=2)
    ROUTING_GRAPHS.clear()
    parent = _all_pairs(routing_for(chip))
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: same answers, from the inherited graph, no miss
        misses = ROUTING_GRAPHS.misses
        same = _all_pairs(routing_for(chip)) == parent and ROUTING_GRAPHS.misses == misses
        os.write(write, b"1" if same else b"0")
        os._exit(0)
    os.close(write)
    try:
        assert os.read(read, 1) == b"1"
    finally:
        os.close(read)
        os.waitpid(pid, 0)


def test_validation_never_asks_the_store(monkeypatch):
    circuit = get_benchmark("dnn_n8").build()
    result = run_pipeline_method(circuit, "ecmas_dd_4x")

    def refuse(chip):
        raise AssertionError("the validator asked the routing-graph store")

    monkeypatch.setattr(ROUTING_GRAPHS, "graph_for", refuse)
    report = validate_encoded_circuit(circuit, result.encoded)
    assert report.valid, report.errors


# ------------------------------------------------ slot distances and defects
def test_graph_chip_slot_distances_read_the_topology_memo(hop_table_builds):
    chip = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3))
    ROUTING_GRAPHS.clear()
    assert chip.slot_distance(TileSlot(0, 0), TileSlot(1, 0)) == 2
    topology = ROUTING_GRAPHS.graph_for(chip).topology
    junctions = list(range(chip.tile_rows))  # junction ("j", i, 0) has node id i
    assert sorted(topology.memo.tables) == junctions
    # A chip of the same shape with other lanes reuses every table.
    wider = Chip.from_tile_graph(DD, 3, heavy_hex(3, 3, bandwidth=2))
    assert ROUTING_GRAPHS.graph_for(wider).topology is topology
    private = RoutingGraph(chip)
    for a in junctions:
        table = private.hop_distances_from(a)
        for b in junctions:
            expected = 0 if a == b else table[b]
            assert wider.slot_distance(TileSlot(a, 0), TileSlot(b, 0)) == expected
    shared = [n for (owner, _target), n in hop_table_builds.items() if owner == id(topology)]
    assert shared == [1] * len(junctions)


def test_the_defect_sampler_takes_its_graph_from_the_store(builds):
    chip = _square(4, 4, bandwidth=2)
    first = random_defects(chip, 0.2, seed=3, min_alive_tiles=8)
    built = dict(builds)
    assert random_defects(chip, 0.2, seed=3, min_alive_tiles=8) == first
    assert builds == built  # the sample's dead-tile chip was a store hit


# ------------------------------------------------------ one compile, one memo
@pytest.mark.parametrize("method", ["ecmas_dd_4x", "ecmas_ls_4x", "ecmas_dd_resu"])
def test_an_adjusted_compile_builds_each_table_once(method, monkeypatch, hop_table_builds):
    adjusted = []
    adjust_bandwidth = passes.adjust_bandwidth

    def recording(chip, *args):
        new_chip = adjust_bandwidth(chip, *args)
        adjusted.append(new_chip != chip)
        return new_chip

    monkeypatch.setattr(passes, "adjust_bandwidth", recording)
    ROUTING_GRAPHS.clear()
    result = run_pipeline_method(get_benchmark("multiplier_n15").build(), method)
    assert adjusted == [True]
    assert hop_table_builds and max(hop_table_builds.values()) == 1
    assert result.counters["landmark_tables"] == len(hop_table_builds)


@pytest.mark.parametrize("method", ["ecmas_dd_min", "ecmas_dd_4x", "ecmas_ls_4x", "ecmas_dd_resu"])
def test_a_repeat_compile_builds_no_table(method, hop_table_builds):
    circuit = get_benchmark("multiplier_n15").build()
    first = run_pipeline_method(circuit, method)
    built = sum(hop_table_builds.values())
    second = run_pipeline_method(circuit, method)
    assert sum(hop_table_builds.values()) == built
    assert schedule_payload(second.encoded) == schedule_payload(first.encoded)
