"""Tests for the initial-mapping pipeline (shape, placement, bandwidth adjusting)."""

import pytest

from repro.chip import Chip, SurfaceCodeModel
from repro.circuits.generators import standard
from repro.core.cut_types import uniform_cut_types
from repro.core.ecmas import VALID_PLACEMENT_STRATEGIES, EcmasOptions
from repro.core.mapping import (
    PLACEMENT_STRATEGIES,
    adjust_bandwidth,
    build_initial_mapping,
    corridor_load,
    determine_shape,
    establish_placement,
)
from repro.errors import MappingError, SchedulingError

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


class TestShapeDetermining:
    def test_eight_qubits_prefers_3x3(self):
        chip = Chip.minimum_viable(DD, 8, 3)
        assert determine_shape(8, chip) == (3, 3)

    def test_exact_square(self):
        chip = Chip.minimum_viable(DD, 9, 3)
        assert determine_shape(9, chip) == (3, 3)

    def test_rectangular_when_square_impossible(self):
        chip = Chip.with_tile_array(DD, 3, 2, 4)
        assert determine_shape(7, chip) == (2, 4)

    def test_too_many_qubits_raises(self):
        chip = Chip.with_tile_array(DD, 3, 2, 2)
        with pytest.raises(MappingError):
            determine_shape(5, chip)


class TestEstablishPlacement:
    def test_all_strategies_produce_valid_placements(self):
        graph = standard.qft(8).communication_graph()
        for strategy in ("ecmas", "metis", "trivial", "spectral", "random"):
            placement = establish_placement(graph, (3, 3), strategy=strategy)
            assert placement.num_qubits() == 8
            assert len(placement.slots()) == 8

    def test_unknown_strategy_raises(self):
        graph = standard.qft(4).communication_graph()
        with pytest.raises(MappingError):
            establish_placement(graph, (2, 2), strategy="nope")

    def test_option_validator_accepts_exactly_the_dispatched_strategies(self):
        assert VALID_PLACEMENT_STRATEGIES == set(PLACEMENT_STRATEGIES)
        graph = standard.qft(4).communication_graph()
        for strategy in sorted(VALID_PLACEMENT_STRATEGIES):
            assert EcmasOptions(placement_strategy=strategy).placement_strategy == strategy
            assert establish_placement(graph, (2, 2), strategy=strategy).num_qubits() == 4
        with pytest.raises(SchedulingError):
            EcmasOptions(placement_strategy="nope")


class TestBandwidthAdjusting:
    def test_minimum_chip_unchanged(self):
        circuit = standard.qft(9)
        chip = Chip.minimum_viable(DD, 9, 3)
        graph = circuit.communication_graph()
        placement = establish_placement(graph, (3, 3))
        assert adjust_bandwidth(chip, placement, graph) == chip

    def test_larger_chip_redistributes_towards_load(self):
        circuit = standard.dnn(16, layers=4)
        chip = Chip.four_x(DD, 16, 3)
        graph = circuit.communication_graph()
        placement = establish_placement(graph, (4, 4))
        adjusted = adjust_bandwidth(chip, placement, graph)
        h_budget, v_budget = chip.lane_budget_per_axis()
        assert sum(adjusted.h_bandwidths) <= h_budget
        assert sum(adjusted.v_bandwidths) <= v_budget
        assert min(adjusted.h_bandwidths + adjusted.v_bandwidths) >= 1
        # The adjusted chip should concentrate lanes at least as much as the
        # uniform layout does on its busiest corridor.
        assert max(adjusted.h_bandwidths) >= max(chip.h_bandwidths)

    def test_corridor_load_counts_non_adjacent_traffic(self):
        # QFT is all-to-all, so many pairs sit on non-adjacent tiles and their
        # pre-routed paths must cross corridors.  (CNOTs between adjacent
        # tiles route through the shared corner and add no corridor load.)
        circuit = standard.qft(9)
        chip = Chip.minimum_viable(DD, 9, 3)
        graph = circuit.communication_graph()
        placement = establish_placement(graph, (3, 3), strategy="trivial")
        load = corridor_load(chip, placement, graph)
        assert sum(load.values()) > 0
        assert {kind for kind, _index in load} <= {"h", "v"}

    def test_corridor_load_is_engine_independent(self):
        # Pre-routing follows the canonical (lexicographically smallest
        # shortest) path, so the corridor loads must equal the reference
        # engine's bit for bit; the router just reads its path off cached
        # BFS hop tables instead of searching per edge.
        from oracle import reference_engine

        circuit = standard.qft(9)
        chip = Chip.four_x(DD, 9, 3)
        graph = circuit.communication_graph()
        placement = establish_placement(graph, (3, 3), strategy="trivial")
        production = corridor_load(chip, placement, graph)
        with reference_engine():
            reference = corridor_load(chip, placement, graph)
        assert production == reference

    def test_corridor_load_uses_the_routing_provider_seam(self):
        # Regression: corridor_load used to construct RoutingGraph(chip)
        # directly, bypassing routing_for — daemon processes rebuilt the
        # graph from cold on every /compile's mapping stage.
        from repro.chip.routing_graph import RoutingGraph
        from repro.routing.fast_router import FastRouter, set_routing_provider

        circuit = standard.qft(9)
        chip = Chip.four_x(DD, 9, 3)
        graph = circuit.communication_graph()
        placement = establish_placement(graph, (3, 3), strategy="trivial")
        calls = []
        baseline = corridor_load(chip, placement, graph)

        def provider(requested_chip):
            calls.append(requested_chip)
            built = RoutingGraph(requested_chip)
            return built, FastRouter(built)

        previous = set_routing_provider(provider)
        try:
            load = corridor_load(chip, placement, graph)
        finally:
            set_routing_provider(previous)
        assert calls == [chip]
        assert load == baseline


class TestBuildInitialMapping:
    def test_full_pipeline_double_defect(self):
        circuit = standard.qft(8)
        chip = Chip.minimum_viable(DD, 8, 3)
        mapping = build_initial_mapping(circuit, chip, uniform_cut_types(8))
        assert mapping.shape == (3, 3)
        assert mapping.placement.num_qubits() == 8
        assert mapping.cut_types is not None
        assert mapping.mapping_cost >= 0

    def test_full_pipeline_lattice_surgery_without_cuts(self):
        circuit = standard.qft(8)
        chip = Chip.minimum_viable(LS, 8, 3)
        mapping = build_initial_mapping(circuit, chip, None)
        assert mapping.cut_types is None
        mapping.placement.validate(chip)

    def test_adjust_flag_disables_bandwidth_changes(self):
        circuit = standard.dnn(16, layers=4)
        chip = Chip.four_x(DD, 16, 3)
        mapping = build_initial_mapping(circuit, chip, uniform_cut_types(16), adjust=False)
        assert mapping.chip == chip
