"""Property tests for Theorem 2 (chip communication capacity).

Theorem 2 states that on a chip of bandwidth ``b``, any ``⌊(b-1)/2⌋ + 3``
independent CNOT gates admit simultaneous non-conflicting paths, for *any*
placement of the operand tiles.  We check the claim empirically with the
greedy EDP router over many random placements and several bandwidths; the
router finding a simultaneous schedule is a constructive witness.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import route_edge_disjoint

from repro.chip import Chip, RoutingGraph, SurfaceCodeModel, communication_capacity, tile_node

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _random_pairs(rng: random.Random, rows: int, cols: int, count: int):
    slots = [(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(slots)
    picked = slots[: 2 * count]
    return [
        (tile_node(*picked[2 * i]), tile_node(*picked[2 * i + 1]))
        for i in range(count)
    ]


@pytest.mark.parametrize("bandwidth", [1, 2, 3, 5])
def test_capacity_gates_always_routable(bandwidth):
    capacity = communication_capacity(bandwidth)
    rows = cols = max(4, 2 * capacity)  # enough tiles for disjoint operands
    chip = Chip.with_tile_array(DD, 3, rows, cols, bandwidth=bandwidth)
    graph = RoutingGraph(chip)
    rng = random.Random(1234 + bandwidth)
    for _ in range(15):
        pairs = _random_pairs(rng, rows, cols, capacity)
        routed, failed = route_edge_disjoint(graph, pairs)
        assert not failed, f"bandwidth {bandwidth}: could not route {len(failed)} of {capacity} gates"
        assert len(routed) == capacity


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), bandwidth=st.integers(min_value=1, max_value=4))
def test_capacity_gates_routable_hypothesis(seed, bandwidth):
    capacity = communication_capacity(bandwidth)
    rows = cols = max(4, 2 * capacity)
    chip = Chip.with_tile_array(DD, 3, rows, cols, bandwidth=bandwidth)
    graph = RoutingGraph(chip)
    pairs = _random_pairs(random.Random(seed), rows, cols, capacity)
    routed, failed = route_edge_disjoint(graph, pairs)
    assert not failed


def test_capacity_grows_with_bandwidth():
    assert communication_capacity(1) == 3
    assert communication_capacity(3) == 4
    assert communication_capacity(5) == 5
    assert communication_capacity(7) == 6
