"""Tests for the Kernighan–Lin partitioner and grid placements."""

import pytest

from repro.circuits import CommunicationGraph
from repro.circuits.generators import standard
from repro.errors import MappingError, PartitionError
from repro.partition import (
    best_placement,
    communication_cost,
    cut_weight,
    grid_domain,
    kernighan_lin_bisection,
    random_placement,
    recursive_bisection_placement,
    snake_placement,
    spectral_placement,
)


def _two_cliques_weights():
    """Two 4-vertex cliques joined by a single light edge — an obvious bisection."""
    weights = {}
    for group in ([0, 1, 2, 3], [4, 5, 6, 7]):
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                weights[(a, b)] = 10.0
    weights[(3, 4)] = 1.0
    return weights


class TestKernighanLin:
    def test_separates_two_cliques(self):
        weights = _two_cliques_weights()
        side_a, side_b = kernighan_lin_bisection(range(8), weights, seed=1)
        assert {frozenset(side_a), frozenset(side_b)} == {
            frozenset({0, 1, 2, 3}),
            frozenset({4, 5, 6, 7}),
        }
        assert cut_weight(weights, side_a, side_b) == 1.0

    def test_balanced_sizes_by_default(self):
        side_a, side_b = kernighan_lin_bisection(range(7), {}, seed=0)
        assert abs(len(side_a) - len(side_b)) <= 1

    def test_explicit_size_respected(self):
        side_a, side_b = kernighan_lin_bisection(range(8), _two_cliques_weights(), seed=0, size_a=3)
        assert len(side_a) == 3
        assert len(side_b) == 5

    def test_initial_partition_must_cover(self):
        with pytest.raises(PartitionError):
            kernighan_lin_bisection(range(4), {}, initial=({0}, {1}))

    def test_initial_partition_must_match_requested_size(self):
        # Regression: size_a used to be silently ignored when an initial
        # partition was supplied — KL swaps can never fix the balance, so the
        # caller's requested size was quietly violated.
        with pytest.raises(PartitionError, match=r"2 vertices.*size_a=3"):
            kernighan_lin_bisection(range(4), {}, initial=({0, 1}, {2, 3}), size_a=3)

    def test_initial_partition_matching_size_accepted(self):
        side_a, side_b = kernighan_lin_bisection(
            range(4), {}, initial=({0, 1, 2}, {3}), size_a=3
        )
        assert len(side_a) == 3 and len(side_b) == 1

    def test_invalid_inputs(self):
        with pytest.raises(PartitionError):
            kernighan_lin_bisection([0], {})
        with pytest.raises(PartitionError):
            kernighan_lin_bisection([0, 0, 1], {})
        with pytest.raises(PartitionError):
            kernighan_lin_bisection(range(4), {}, size_a=4)

    def test_negative_weight_named(self):
        with pytest.raises(PartitionError, match=r"edge \(1, 2\) has weight -1\.0"):
            kernighan_lin_bisection(range(4), {(0, 1): 1.0, (1, 2): -1.0})

    def test_nan_weight_named(self):
        with pytest.raises(PartitionError, match=r"edge \(0, 3\) has weight nan"):
            kernighan_lin_bisection(range(4), {(0, 3): float("nan")})

    def test_infinite_weight_named(self):
        with pytest.raises(PartitionError, match=r"edge \(2, 3\) has weight inf"):
            kernighan_lin_bisection(range(4), {(2, 3): float("inf")})

    def test_huge_finite_weight_named(self):
        # 2 * 1e308 overflows to inf, and the swap gain inf - inf is nan.
        with pytest.raises(PartitionError, match=r"edge \(0, 1\) has weight 1e\+308"):
            kernighan_lin_bisection([0, 1], {(0, 1): 1e308}, seed=1)

    def test_weights_summing_past_the_bound_named(self):
        weights = {(0, 1): 2.0**999, (1, 2): 2.0**999, (2, 3): 1.0}
        with pytest.raises(PartitionError, match=r"edge \(2, 3\) has weight 1\.0"):
            kernighan_lin_bisection(range(4), weights, seed=0)

    def test_never_worse_than_initial(self):
        weights = _two_cliques_weights()
        initial = ({0, 4, 5, 6}, {1, 2, 3, 7})
        before = cut_weight(weights, *initial)
        after_sides = kernighan_lin_bisection(range(8), weights, initial=initial)
        assert cut_weight(weights, *after_sides) <= before


class TestPlacements:
    def test_recursive_bisection_places_all_qubits(self):
        graph = standard.qft(10).communication_graph()
        placement = recursive_bisection_placement(graph, grid_domain(4, 3), seed=0)
        assert placement.num_qubits() == 10
        assert len(placement.slots()) == 10

    def test_placement_too_small_grid_raises(self):
        graph = standard.qft(10).communication_graph()
        with pytest.raises(MappingError):
            recursive_bisection_placement(graph, grid_domain(3, 3))

    def test_snake_placement_layout(self):
        placement = snake_placement(6, grid_domain(2, 3))
        assert placement.slot_of(0).row == 0 and placement.slot_of(0).col == 0
        assert placement.slot_of(2).col == 2
        # Second row runs right-to-left.
        assert placement.slot_of(3).row == 1 and placement.slot_of(3).col == 2

    def test_random_placement_is_seeded(self):
        a = random_placement(8, grid_domain(3, 3), seed=4)
        b = random_placement(8, grid_domain(3, 3), seed=4)
        assert a.qubit_to_slot == b.qubit_to_slot

    def test_spectral_placement_valid(self):
        graph = standard.ising(9, layers=1).communication_graph()
        placement = spectral_placement(graph, grid_domain(3, 3))
        assert placement.num_qubits() == 9
        assert len(placement.slots()) == 9

    def test_spectral_placement_invariant_to_eigenvector_sign(self, monkeypatch):
        # Regression: LAPACK builds are free to return v or -v for the same
        # eigenpair, and spectral_placement ranks qubits by raw component
        # values — without sign canonicalization the placement flipped
        # between platforms.  Simulate the "other" LAPACK by negating every
        # eigenvector and assert the placement is unchanged.
        import numpy as np

        graph = standard.ising(9, layers=1).communication_graph()
        baseline = spectral_placement(graph, grid_domain(3, 3))
        real_eigh = np.linalg.eigh

        def negated_eigh(matrix):
            eigenvalues, eigenvectors = real_eigh(matrix)
            return eigenvalues, -eigenvectors

        monkeypatch.setattr(np.linalg, "eigh", negated_eigh)
        flipped = spectral_placement(graph, grid_domain(3, 3))
        assert flipped.qubit_to_slot == baseline.qubit_to_slot

    def test_canonicalize_eigenvector_sign(self):
        import numpy as np

        from repro.partition.placement import canonicalize_eigenvector_sign

        vector = np.array([0.0, -0.4, 0.9])
        canonical = canonicalize_eigenvector_sign(vector)
        flipped = canonicalize_eigenvector_sign(-vector)
        assert np.array_equal(canonical, flipped)
        assert canonical[1] > 0
        zero = np.zeros(3)
        assert np.array_equal(canonicalize_eigenvector_sign(zero), zero)

    def test_best_placement_beats_snake_on_clustered_graph(self):
        circuit = standard.dnn(16, layers=6)
        graph = circuit.communication_graph()
        ours = communication_cost(graph, best_placement(graph, grid_domain(4, 4), attempts=4, seed=0))
        snake = communication_cost(graph, snake_placement(16, grid_domain(4, 4)))
        assert ours <= snake

    def test_communication_cost_zero_for_adjacent(self):
        graph = CommunicationGraph(2)
        graph.add_cnot(0, 1)
        placement = snake_placement(2, grid_domain(1, 2))
        assert communication_cost(graph, placement) == 1.0

    def test_placement_validate_against_chip(self, dd_chip_small):
        graph = standard.ghz_state(8).communication_graph()
        placement = recursive_bisection_placement(graph, grid_domain(3, 3))
        placement.validate(dd_chip_small)

    def test_slot_of_unknown_qubit_raises(self):
        placement = snake_placement(2, grid_domain(1, 2))
        with pytest.raises(MappingError):
            placement.slot_of(5)
