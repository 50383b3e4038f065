"""Micro-benchmarks of the individual substrates.

These are not paper experiments; they track the cost of the building blocks
(QASM parsing, DAG construction, Para-Finding, KL placement, per-cycle
routing, full compilation) so performance regressions are visible.
"""

from __future__ import annotations

from repro import SurfaceCodeModel, compile_circuit
from repro.chip import Chip, RoutingGraph, tile_node
from repro.circuits import qasm
from repro.circuits.generators import random_parallel_circuit, standard
from repro.core.metrics import para_finding
from repro.partition import best_placement, grid_domain
from repro.routing import CapacityUsage, FastRouter


def test_qasm_parse_qft20(benchmark):
    text = qasm.dumps(standard.qft(20))
    circuit = benchmark(lambda: qasm.loads(text))
    assert circuit.num_qubits == 20


def test_dag_construction_random_1000_gates(benchmark):
    circuit = random_parallel_circuit(49, 125, 8, seed=0)
    dag = benchmark(circuit.dag)
    assert len(dag) == 1000


def test_para_finding_random_circuit(benchmark):
    circuit = random_parallel_circuit(49, 50, 12, seed=0)
    dag = circuit.dag()
    scheme = benchmark(lambda: para_finding(dag))
    assert scheme.depth == 50


def test_kl_placement_qft30(benchmark):
    graph = standard.qft(30).communication_graph()
    placement = benchmark(lambda: best_placement(graph, grid_domain(6, 6), attempts=2, seed=0))
    assert placement.num_qubits() == 30


def test_single_path_routing_large_chip(benchmark):
    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 12, 12, bandwidth=2)
    graph = RoutingGraph(chip)
    # A fresh router per call: the cold query, landmark-table build included.
    source, target = graph.node_id[tile_node(0, 0)], graph.node_id[tile_node(11, 11)]
    path = benchmark(lambda: FastRouter(graph).find(CapacityUsage(), source, target))
    assert path is not None


def test_compile_ecmas_dd_qft16(benchmark):
    circuit = standard.qft(16)
    encoded = benchmark.pedantic(
        lambda: compile_circuit(circuit, model=SurfaceCodeModel.DOUBLE_DEFECT, scheduler="limited"),
        rounds=1,
        iterations=1,
    )
    assert encoded.num_cnots == circuit.num_cnots


def test_compile_ecmas_ls_random_p12(benchmark):
    circuit = random_parallel_circuit(49, 50, 12, seed=3)
    encoded = benchmark.pedantic(
        lambda: compile_circuit(circuit, model=SurfaceCodeModel.LATTICE_SURGERY, scheduler="limited"),
        rounds=1,
        iterations=1,
    )
    assert encoded.num_cycles >= 50
