"""Unit tests for the communication graph."""

import pytest

from repro.circuits import Circuit, CommunicationGraph
from repro.errors import CircuitError


def test_from_circuit_accumulates_weights():
    circuit = Circuit(3)
    circuit.cx(0, 1)
    circuit.cx(1, 0)
    circuit.cx(1, 2)
    graph = circuit.communication_graph()
    assert graph.weight(0, 1) == 2
    assert graph.weight(1, 2) == 1
    assert graph.weight(0, 2) == 0
    assert graph.num_edges == 2
    assert graph.total_weight() == 3


def test_neighbors_and_degree():
    graph = CommunicationGraph(4)
    graph.add_cnot(0, 1)
    graph.add_cnot(0, 2)
    assert graph.neighbors(0) == (1, 2)
    assert graph.degree(0) == 2
    assert graph.degree(3) == 0


def test_add_cnot_validates_operands():
    graph = CommunicationGraph(2)
    with pytest.raises(CircuitError):
        graph.add_cnot(0, 0)
    with pytest.raises(CircuitError):
        graph.add_cnot(0, 5)


def test_add_cnot_rejects_negative_count():
    graph = CommunicationGraph(2)
    with pytest.raises(CircuitError, match="count -1 between 0 and 1"):
        graph.add_cnot(0, 1, count=-1)
    graph.add_cnot(0, 1, count=0)
    assert graph.weight(0, 1) == 0
    # A zero count records no partner: no edge, no adjacency.
    assert graph.num_edges == 0
    assert graph.neighbors(0) == ()
    assert graph.degree(1) == 0
    assert graph.bipartition() == ({0, 1}, set())
    with pytest.raises(CircuitError, match="outside communication graph"):
        graph.add_cnot(0, 2, count=0)


def test_bipartite_chain():
    graph = CommunicationGraph(4)
    graph.add_cnot(0, 1)
    graph.add_cnot(1, 2)
    graph.add_cnot(2, 3)
    assert graph.is_bipartite()
    side_a, side_b = graph.bipartition()
    assert side_a | side_b == {0, 1, 2, 3}
    for a, b, _ in graph.edges():
        assert (a in side_a) != (b in side_a)


def test_odd_cycle_not_bipartite(triangle_circuit):
    graph = triangle_circuit.communication_graph()
    assert not graph.is_bipartite()
    assert graph.bipartition() is None


def test_even_cycle_bipartite():
    graph = CommunicationGraph(4)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        graph.add_cnot(a, b)
    assert graph.is_bipartite()


def test_isolated_vertices_are_assigned():
    graph = CommunicationGraph(5)
    graph.add_cnot(0, 1)
    side_a, side_b = graph.bipartition()
    assert side_a | side_b == set(range(5))


def test_to_networkx_weights():
    graph = CommunicationGraph(3)
    graph.add_cnot(0, 1, count=4)
    nx_graph = graph.to_networkx()
    assert nx_graph[0][1]["weight"] == 4


def test_edges_sorted_canonical():
    graph = CommunicationGraph(3)
    graph.add_cnot(2, 0)
    assert graph.edges() == ((0, 2, 1),)
