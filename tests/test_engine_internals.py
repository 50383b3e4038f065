"""Unit tests for the scheduler hot-path building blocks and stall diagnostics."""

from __future__ import annotations

import pytest

from repro.chip.geometry import SurfaceCodeModel
from repro.chip.routing_graph import RoutingGraph, tile_node
from repro.circuits.circuit import Circuit
from repro.core.algorithm1 import stalled_schedule_error
from repro.core.ecmas import default_chip, prepare_mapping
from repro.core.incremental import IncrementalReadyQueue
from repro.core.priorities import criticality_priority
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.core.scheduler_ls import LatticeSurgeryScheduler
from repro.errors import RoutingError, SchedulingError
from repro.profiling import EngineCounters
from repro.routing.fast_router import FastRouter, RouteMemo
from repro.routing.paths import CapacityUsage

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def _mapping(circuit, model):
    return prepare_mapping(circuit, default_chip(circuit, model), model)


# ------------------------------------------------------------ stall diagnostics
def test_dd_safety_bound_reports_in_flight_gates(chain_circuit):
    """With the budget exhausted mid-execution, the dispatched gate is not blamed."""
    scheduler = DoubleDefectScheduler(chain_circuit, _mapping(chain_circuit, DD), max_cycles=0)
    with pytest.raises(SchedulingError) as excinfo:
        scheduler.run()
    message = str(excinfo.value)
    assert "double defect scheduler exceeded 0 cycles at cycle 1" in message
    assert "4 gates remain" in message
    # Gate 0 was dispatched in cycle 0 and is executing, not blocked.
    assert "first blocked gate" not in message
    assert "1 dispatched gate(s) still in flight" in message


def test_ls_safety_bound_reports_in_flight_gates(chain_circuit):
    scheduler = LatticeSurgeryScheduler(chain_circuit, _mapping(chain_circuit, LS), max_cycles=0)
    with pytest.raises(SchedulingError) as excinfo:
        scheduler.run()
    message = str(excinfo.value)
    assert "lattice surgery scheduler exceeded 0 cycles at cycle 1" in message
    assert "1 dispatched gate(s) still in flight" in message


def test_stalled_error_names_first_blocked_gate():
    """A ready-but-undispatched gate is named with qubits and busy horizons."""
    dag = _diamond_dag()
    frontier = dag.frontier()
    frontier.complete(0)  # gates 1, 2 become ready; none dispatched
    error = stalled_schedule_error(
        "double defect", 9, 8, frontier, dag, {0: 12, 1: 0, 2: 3, 3: 0}, dispatched=set()
    )
    message = str(error)
    assert "double defect scheduler exceeded 8 cycles at cycle 9" in message
    assert "3 gates remain" in message
    assert "first blocked gate: node 1 CX(q0, q2)" in message
    assert "busy until cycles 12 and 3" in message
    # A dispatched gate is skipped in favour of the next truly blocked one.
    skipping = stalled_schedule_error(
        "double defect", 9, 8, frontier, dag, {0: 12, 1: 0, 2: 3, 3: 0}, dispatched={1}
    )
    assert "first blocked gate: node 2 CX(q1, q3)" in str(skipping)


# ------------------------------------------------------------- memo replay
def test_replay_rejects_a_modify_record_that_does_not_complete(chain_circuit):
    """Replay re-checks a recorded modification with an error ``python -O`` keeps."""
    scheduler = DoubleDefectScheduler(chain_circuit, _mapping(chain_circuit, DD))
    scheduler._start([])
    # At cycle 0 qubit 0 has been idle 0 cycles, so a modification cannot
    # finish immediately; the hand-made record claims it did.
    with pytest.raises(SchedulingError, match=r"cycle 0: .* q0 for node 0"):
        scheduler._replay([0], [("modify", 0, True, None)])


# ------------------------------------------------------- incremental ready set
def _diamond_dag():
    """Four gates: 0 -> {1, 2} -> 3 with distinct criticalities."""
    circuit = Circuit(4, name="diamond")
    circuit.cx(0, 1)
    circuit.cx(0, 2)
    circuit.cx(1, 3)
    circuit.cx(2, 3)
    return circuit.dag()


def _by_priority(dag, nodes):
    return sorted(nodes, key=lambda node: criticality_priority(dag, node))


def test_queue_orders_like_priority_function():
    dag = _diamond_dag()
    queue = IncrementalReadyQueue(dag, criticality_priority, range(len(dag)))
    busy = {q: 0 for q in range(4)}
    assert queue.available(busy, 0) == _by_priority(dag, range(len(dag)))


def test_queue_add_discard_and_busy_filter():
    dag = _diamond_dag()
    queue = IncrementalReadyQueue(dag, criticality_priority, [0])
    assert len(queue) == 1
    queue.discard(0)
    assert len(queue) == 0
    queue.discard(0)  # discarding an absent node is a no-op
    queue.add([1, 2])
    busy = {0: 5, 1: 5, 2: 0, 3: 0}
    # Gate 1 acts on busy qubit 0; only gate 2's operands (0, 2) ... both busy
    # via qubit 0, so nothing is available until the tiles free up.
    assert queue.available(busy, 0) == []
    assert queue.available(busy, 5) == _by_priority(dag, [1, 2])


# --------------------------------------------------------------- fast router
def test_fast_router_validates_endpoints(dd_chip_small):
    graph = RoutingGraph(dd_chip_small)
    router = FastRouter(graph)
    with pytest.raises(RoutingError):
        router.find(CapacityUsage(), graph.node_id[tile_node(0, 0)], graph.node_id[tile_node(0, 0)])
    with pytest.raises(RoutingError):
        router.find(CapacityUsage(), graph.node_id[("j", 0, 0)], graph.node_id[tile_node(0, 0)])


def test_fast_router_memoizes_landmark_tables(dd_chip_small):
    graph = RoutingGraph(dd_chip_small)
    router = FastRouter(graph, RouteMemo())
    compact = router.graph
    router.find(CapacityUsage(), compact.node_id[tile_node(0, 1)], compact.node_id[tile_node(0, 0)])
    assert router.landmark_table_count == 1
    target_id = compact.node_id[tile_node(0, 0)]
    table = router._table_for(target_id, None)
    assert table[target_id] == 0
    # A second query towards the same target reuses the table.
    router.find(CapacityUsage(), compact.node_id[tile_node(1, 1)], compact.node_id[tile_node(0, 0)])
    assert router.landmark_table_count == 1
    assert router._table_for(target_id, None) is table
    # Every junction is reachable on a defect-free chip.
    for node_id, node in enumerate(compact.nodes):
        if not graph.is_tile(node):
            assert table[node_id] >= 1


# ----------------------------------------------------------------- profiling
def test_engine_counters_expansions_per_route():
    counters = EngineCounters()
    assert counters.expansions_per_route == 0.0
    counters.route_calls = 4
    counters.nodes_expanded = 10
    assert counters.expansions_per_route == 2.5
    assert counters.as_dict()["route_calls"] == 4
