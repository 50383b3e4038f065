"""Hypothesis property suite for the partition layer.

Invariants under randomly generated weighted graphs (duplicate, zero and
fractional edge weights included):

* both bisection cores — classic KL and multilevel coarsen/FM — preserve
  the requested side sizes exactly and partition the vertex set,
* refinement never increases cut weight relative to the seed partition
  (KL's contract) and FM refinement never worsens a balanced assignment,
* multilevel placement on defective chips covers every qubit, reuses no
  slot, and never assigns a dead tile.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.circuits.comm_graph import CommunicationGraph
from repro.errors import PartitionError
from repro.partition.coarsen import multilevel_bisection, quantize_weights
from repro.partition.kl import (
    cut_weight,
    cut_weight_arrays,
    fm_refine,
    kernighan_lin_bisection,
)
from repro.partition.placement import grid_domain, recursive_bisection_placement


@st.composite
def weighted_graphs(draw, min_vertices=2, max_vertices=48):
    """A vertex count and an edge-weight map with awkward weights."""
    n = draw(st.integers(min_vertices, max_vertices))
    edge_count = draw(st.integers(0, min(4 * n, 80)))
    weights = {}
    for _ in range(edge_count):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a == b:
            continue
        edge = (min(a, b), max(a, b))
        # Duplicate edges accumulate; zero and fractional weights are legal.
        weights[edge] = weights.get(edge, 0.0) + draw(
            st.sampled_from([0.0, 0.0, 1.0, 1.0, 2.0, 7.0, 0.5])
        )
    return n, weights


@settings(max_examples=80, deadline=None)
@given(weighted_graphs(), st.integers(0, 2**20), st.data())
def test_bisection_cores_respect_sizes_and_cover(graph, seed, data):
    n, weights = graph
    size_a = data.draw(st.integers(1, n - 1))
    for bisect in (kernighan_lin_bisection, multilevel_bisection):
        side_a, side_b = bisect(list(range(n)), weights, seed=seed, size_a=size_a)
        assert len(side_a) == size_a
        assert side_a | side_b == set(range(n))
        assert not side_a & side_b


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(), st.integers(0, 2**20))
def test_kl_never_increases_cut_weight(graph, seed):
    n, weights = graph
    size_a = (n + 1) // 2
    import random

    rng = random.Random(seed)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    initial = (set(shuffled[:size_a]), set(shuffled[size_a:]))
    refined_a, refined_b = kernighan_lin_bisection(
        list(range(n)), weights, seed=seed, initial=(set(initial[0]), set(initial[1]))
    )
    assert cut_weight(weights, refined_a, refined_b) <= cut_weight(weights, *initial) + 1e-9


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(min_vertices=4), st.integers(0, 2**20), st.data())
def test_fm_refine_never_worsens_a_balanced_assignment(graph, seed, data):
    n, weights = graph
    from repro.partition.coarsen import _build_csr

    adj = _build_csr(n, {
        edge: w for edge, w in quantize_weights(weights).items()
    })
    target_a = data.draw(st.integers(1, n - 1))
    import random

    rng = random.Random(seed)
    shuffled = list(range(n))
    rng.shuffle(shuffled)
    side = [0] * n
    for v in shuffled[target_a:]:
        side[v] = 1
    before = cut_weight_arrays(*adj, side)
    after = fm_refine(*adj, side, [1] * n, target_a, move_tolerance=1, accept_tolerance=0)
    assert after <= before
    assert after == cut_weight_arrays(*adj, side)
    assert sum(1 for s in side if s == 0) == target_a


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 30),
    st.integers(0, 2**20),
    st.data(),
)
def test_multilevel_placement_covers_defective_chips(num_qubits, seed, data):
    rows = data.draw(st.integers(1, 7))
    cols = data.draw(st.integers(1, 7))
    spare = rows * cols - num_qubits
    if spare < 0:
        rows = cols = 7
        spare = rows * cols - num_qubits
    dead = frozenset(
        data.draw(
            st.sets(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                max_size=max(0, spare),
            )
        )
    )
    if rows * cols - len(dead) < num_qubits:
        return  # not enough alive slots; fitting errors are tested elsewhere
    edges = {}
    for _ in range(data.draw(st.integers(0, 3 * num_qubits))):
        a = data.draw(st.integers(0, num_qubits - 1))
        b = data.draw(st.integers(0, num_qubits - 1))
        if a != b:
            edges[(min(a, b), max(a, b))] = edges.get((min(a, b), max(a, b)), 0) + 1
    graph = CommunicationGraph(num_qubits)
    for (a, b), w in edges.items():
        graph.add_cnot(a, b, w)
    placement = recursive_bisection_placement(
        graph, grid_domain(rows, cols, dead), seed=seed, engine="fast"
    )
    slots = [placement.slot_of(q) for q in range(num_qubits)]
    assert len(set(slots)) == num_qubits, "two qubits share a tile slot"
    assert all((s.row, s.col) not in dead for s in slots), "a qubit landed on a dead tile"


def test_multilevel_rejects_bad_inputs():
    with pytest.raises(PartitionError):
        multilevel_bisection([0], {})
    with pytest.raises(PartitionError):
        multilevel_bisection([0, 0, 1], {})
    with pytest.raises(PartitionError):
        multilevel_bisection(list(range(40)), {}, size_a=40)


def test_multilevel_rejects_negative_weight_by_name():
    weights = {(v, v + 1): 1.0 for v in range(39)}
    weights[(5, 6)] = -2.0
    with pytest.raises(PartitionError, match=r"edge \(5, 6\) has weight -2\.0"):
        multilevel_bisection(list(range(40)), weights)


def test_multilevel_rejects_nan_weight_by_name():
    weights = {(v, v + 1): 1.0 for v in range(39)}
    weights[(7, 8)] = float("nan")
    with pytest.raises(PartitionError, match=r"edge \(7, 8\) has weight nan"):
        multilevel_bisection(list(range(40)), weights)


def test_multilevel_rejects_huge_finite_weight_by_name():
    # Quantizing 1e306 scales it by 1024, past the float range.
    weights = {(v, v + 1): 0.5 for v in range(29)}
    weights[(3, 4)] = 1e306
    with pytest.raises(PartitionError, match=r"edge \(3, 4\) has weight 1e\+306"):
        multilevel_bisection(list(range(30)), weights, seed=1)


def test_quantize_weights_handles_integral_and_fractional():
    assert quantize_weights({(0, 1): 3.0, (1, 2): 0.0}) == {(0, 1): 3, (1, 2): 0}
    scaled = quantize_weights({(0, 1): 0.5, (1, 2): 2.0})
    assert scaled[(0, 1)] == 512 and scaled[(1, 2)] == 2048
