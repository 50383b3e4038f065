"""Differential harness: production Kernighan–Lin equals the reference core.

The production KL core prunes its pair search, updates only the swapped
pair's neighbours, shortcuts 2-vertex and 2/2 four-vertex regions, and the
placement recursions hand every region a vertex list into one set of rows
shared by the whole compile.  None of that may change a single swap.  This
module holds production to the all-pairs reference in
``tests/oracle/kl.py``:

* on Hypothesis-generated graphs whose weights include zeros, dyadic
  fractions and non-dyadic ones (0.1, 0.3, 3.3, where float rounding is
  most likely to expose a reordered sum), with and without ``size_a`` and
  ``initial=``;
* on 2- and 4-vertex regions of a larger graph's shared rows, with
  self-loops, every ``size_a`` and large fractional weights, where KL's
  exact shortcuts run;
* through the placement recursion over both slot domains (grid windows and
  graph chips) with fractional weights, for both placement engines — the
  multilevel engine delegates to KL at or below ``COARSEST_SIZE`` and
  reads the shared rows too;
* end to end: ``best_placement`` for every Table I circuit that fits on a
  square chip, ``heavy_hex(3, 3)``, ``degree3_sparse(24, seed=7)`` and a
  defective square chip.
"""

from __future__ import annotations

import math
import random

import pytest
from oracle import reference_kl, reference_placement

from repro.chip import Chip, SurfaceCodeModel, degree3_sparse, heavy_hex
from repro.circuits import CommunicationGraph
from repro.circuits.generators import default_suite
from repro.partition.kl import kernighan_lin_bisection, kl_bisect, weight_rows
from repro.partition.placement import (
    PLACEMENT_ENGINES,
    _BISECTION_CORES,
    _place_region,
    best_placement,
    graph_domain,
    grid_domain,
)
from repro.profiling import PlacementCounters

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

#: Edge weights: zero, integral, dyadic and non-dyadic fractions.
WEIGHTS = (0.0, 0.0, 1.0, 2.0, 0.5, 0.1, 0.3, 3.3)

#: Large non-dyadic weights, whose gain sums round by more than KL's
#: ``1e-12`` keep threshold.
LARGE_WEIGHTS = (1e5 + 0.1, 3e7 + 0.3, 1e9 / 3)


@st.composite
def weighted_graphs(draw, min_vertices=2, max_vertices=40):
    """A vertex count and an edge-weight map drawn from :data:`WEIGHTS`."""
    n = draw(st.integers(min_vertices, max_vertices))
    weights: dict[tuple[int, int], float] = {}
    for _ in range(draw(st.integers(0, min(4 * n, 120)))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            edge = (min(a, b), max(a, b))
            weights[edge] = weights.get(edge, 0.0) + draw(st.sampled_from(WEIGHTS))
    return n, weights


@settings(max_examples=300, deadline=None)
@given(weighted_graphs(), st.integers(0, 2**20), st.data())
def test_kl_matches_reference(graph, seed, data):
    n, weights = graph
    size_a = data.draw(st.one_of(st.none(), st.integers(1, n - 1)))
    expected = reference_kl(range(n), weights, seed=seed, size_a=size_a)
    assert kernighan_lin_bisection(range(n), weights, seed=seed, size_a=size_a) == expected


@settings(max_examples=150, deadline=None)
@given(weighted_graphs(), st.integers(0, 2**20), st.booleans())
def test_kl_matches_reference_from_initial_partition(graph, seed, pin_size):
    n, weights = graph
    vertices = list(range(n))
    random.Random(seed).shuffle(vertices)
    half = (n + 1) // 2
    first, second = vertices[:half], vertices[half:]
    size_a = half if pin_size else None
    expected = reference_kl(range(n), weights, initial=(set(first), set(second)), size_a=size_a)
    actual = kernighan_lin_bisection(
        range(n), weights, initial=(set(first), set(second)), size_a=size_a
    )
    assert actual == expected


@st.composite
def small_regions(draw):
    """A weight map over up to 8 vertices and a 2- or 4-vertex region of it.

    Every pair, and each vertex with itself, may carry a weight, so the
    region's rows also name vertices outside it.  Weights come from a
    palette of one to three :data:`WEIGHTS` or :data:`LARGE_WEIGHTS`, so
    equal-gain ties, where the tie-break decides the swap, are common, and
    so are 2/2 passes whose second swap is kept only through float rounding
    (its exact gain cancels the first swap's).
    """
    n = draw(st.integers(4, 8))
    palette = draw(st.lists(st.sampled_from(WEIGHTS + LARGE_WEIGHTS), min_size=1, max_size=3))
    weights = {
        (a, b): draw(st.sampled_from(palette))
        for a in range(n)
        for b in range(a, n)
        if draw(st.booleans())
    }
    region = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)))
    if len(region) == 3:
        region = region[:2]
    return weights, region


@settings(max_examples=400, deadline=None)
@given(small_regions(), st.integers(0, 2**20), st.data())
def test_small_region_fast_paths_match_reference(graph, seed, data):
    weights, region = graph
    size_a = data.draw(st.integers(1, len(region) - 1))
    rows = weight_rows(range(8), [(a, b, w) for (a, b), w in weights.items()])
    counters = PlacementCounters()
    side_a, side_b = kl_bisect(rows, region, size_a, seed, counters)
    expected = reference_kl(region, weights, seed=seed, size_a=size_a)
    assert (set(side_a), set(side_b)) == expected
    assert side_a == sorted(side_a) and side_b == sorted(side_b)
    assert counters.fast_path_regions == (len(region) == 2 or size_a * 2 == len(region))
    assert kernighan_lin_bisection(region, weights, seed=seed, size_a=size_a) == expected


def _recursion_placement(weights, n, domain, seed, engine):
    assignment = {}
    _place_region(
        weight_rows(range(n), [(a, b, w) for (a, b), w in weights.items()]),
        list(range(n)), domain.root, domain, assignment, random.Random(seed),
        _BISECTION_CORES[engine], PlacementCounters(),
    )
    return assignment


@settings(max_examples=60, deadline=None)
@given(weighted_graphs(max_vertices=60), st.integers(0, 2**20), st.sampled_from(PLACEMENT_ENGINES))
def test_grid_recursion_matches_reference(graph, seed, engine):
    n, weights = graph
    side = math.isqrt(n - 1) + 1
    dead = frozenset({(0, 0)}) if side * side > n else frozenset()
    domain = grid_domain(side, side, dead)
    actual = _recursion_placement(weights, n, domain, seed, engine)
    with reference_placement(weights):
        assert _recursion_placement(weights, n, domain, seed, engine) == actual


@settings(max_examples=40, deadline=None)
@given(weighted_graphs(max_vertices=24), st.integers(0, 2**20), st.sampled_from(PLACEMENT_ENGINES))
def test_graph_recursion_matches_reference(graph, seed, engine):
    n, weights = graph
    chip = Chip.from_tile_graph(SurfaceCodeModel.DOUBLE_DEFECT, 3, degree3_sparse(24, seed=7))
    domain = graph_domain(chip)
    actual = _recursion_placement(weights, n, domain, seed, engine)
    with reference_placement(weights):
        assert _recursion_placement(weights, n, domain, seed, engine) == actual


# ------------------------------------------------------------------ end to end
_TABLE1 = {spec.name: spec for spec in default_suite(include_large=False)}

#: Graph chips of the geometry suite: heavy-hex (18 tiles) and sparse (24).
_GRAPH_CHIPS = {
    "heavy_hex_3x3": heavy_hex(3, 3),
    "sparse3_n24": degree3_sparse(24, seed=7),
}


def _graph(name: str) -> CommunicationGraph:
    return CommunicationGraph.from_circuit(_TABLE1[name].build())


def _weights_from_graph(graph: CommunicationGraph) -> dict[tuple[int, int], float]:
    return {(a, b): float(w) for a, b, w in graph.edges()}


def _square_windows(num_qubits: int):
    """A pristine square window and a defective one with spare slots."""
    side = math.isqrt(num_qubits - 1) + 1
    rng = random.Random(num_qubits)
    window = [(r, c) for r in range(side + 1) for c in range(side + 1)]
    spare = (side + 1) ** 2 - num_qubits
    dead = frozenset(rng.sample(window, min(spare, max(1, spare // 2))))
    return {"square": (side, side, frozenset()), "defective": (side + 1, side + 1, dead)}


@pytest.mark.parametrize("engine", PLACEMENT_ENGINES)
@pytest.mark.parametrize("name", sorted(_TABLE1))
def test_best_placement_matches_reference(name, engine):
    graph = _graph(name)
    for rows, cols, dead in _square_windows(graph.num_qubits).values():
        domain = grid_domain(rows, cols, dead)
        actual = best_placement(graph, domain, seed=3, engine=engine)
        with reference_placement(_weights_from_graph(graph)):
            expected = best_placement(graph, domain, seed=3, engine=engine)
        assert actual == expected, (name, engine, rows, cols, sorted(dead))


@pytest.mark.parametrize("engine", PLACEMENT_ENGINES)
@pytest.mark.parametrize("geometry", sorted(_GRAPH_CHIPS))
def test_graph_best_placement_matches_reference(geometry, engine):
    tile_graph = _GRAPH_CHIPS[geometry]
    chip = Chip.from_tile_graph(SurfaceCodeModel.DOUBLE_DEFECT, 3, tile_graph)
    domain = graph_domain(chip)
    fitting = [name for name in sorted(_TABLE1) if _TABLE1[name].paper_n <= chip.num_tile_slots]
    assert fitting
    for name in fitting:
        graph = _graph(name)
        actual = best_placement(graph, domain, seed=3, engine=engine)
        with reference_placement(_weights_from_graph(graph)):
            expected = best_placement(graph, domain, seed=3, engine=engine)
        assert actual == expected, (name, geometry, engine)
