"""The reference Kernighan–Lin bisection core.

This is the classic KL formulation the production core
(:func:`repro.partition.kl.kernighan_lin_bisection`) is held to, kept in its
obviously-correct form:

* the pair search scans every unlocked ``(a, b)`` pair in row-major vertex
  order each swap, so one swap costs O(n² log n);
* the gain update after a swap visits every vertex of the graph;
* ``_neighbor_weights`` filters the caller's whole weight map on every call.

Production prunes the pair search, updates only the swapped pair's free
neighbours, shortcuts 2-vertex and 2/2 four-vertex regions, and reads one
set of per-vertex rows shared by every region; every one of those must
leave the chosen swaps — and therefore the placements — bit-identical to
this module.  :func:`reference_placement` runs the production placement
recursions with every bisection on the whole graph's weight map, and KL is
this module's core.
"""

from __future__ import annotations

import random
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from unittest import mock

from repro.errors import PartitionError
from repro.partition import coarsen, placement
from repro.partition.kl import WeightMap


@contextmanager
def reference_placement(weights: WeightMap) -> Iterator[None]:
    """Run both placement engines on the reference KL core and the full map.

    Inside the block every bisection the recursions ask for receives
    ``weights`` (the whole graph's map) instead of the shared rows, and
    KL — the ``reference`` engine, and the multilevel ``fast`` engine's
    core at or below ``COARSEST_SIZE`` — is :func:`kernighan_lin_bisection`.
    """

    def reference_kl(_rows, vertices, size_a, seed, _counters):
        side_a, side_b = kernighan_lin_bisection(vertices, weights, seed=seed, size_a=size_a)
        return sorted(side_a), sorted(side_b)

    def reference_multilevel(_rows, vertices, size_a, seed, _counters):
        side_a, side_b = coarsen.multilevel_bisection(vertices, weights, seed=seed, size_a=size_a)
        return sorted(side_a), sorted(side_b)

    cores = {"reference": reference_kl, "fast": reference_multilevel}
    with mock.patch.dict(placement._BISECTION_CORES, cores), mock.patch.object(
        coarsen, "kernighan_lin_bisection", kernighan_lin_bisection
    ):
        yield


def _neighbor_weights(weights: WeightMap, vertices: Sequence[int]) -> dict[int, dict[int, float]]:
    adjacency: dict[int, dict[int, float]] = {v: {} for v in vertices}
    for (a, b), w in weights.items():
        if a in adjacency and b in adjacency:
            adjacency[a][b] = adjacency[a].get(b, 0.0) + w
            adjacency[b][a] = adjacency[b].get(a, 0.0) + w
    return adjacency


def kernighan_lin_bisection(
    vertices: Sequence[int],
    weights: WeightMap,
    max_passes: int = 10,
    seed: int | None = None,
    initial: tuple[set[int], set[int]] | None = None,
    size_a: int | None = None,
) -> tuple[set[int], set[int]]:
    """Bisect ``vertices`` into two halves with small cut weight.

    Same contract as the production core: balanced by default, ``size_a``
    pins the first side's size, ``initial`` seeds the refinement.
    """
    vertex_list = list(vertices)
    if len(vertex_list) < 2:
        raise PartitionError("bisection needs at least two vertices")
    if len(set(vertex_list)) != len(vertex_list):
        raise PartitionError("duplicate vertices in bisection input")
    if size_a is not None and not 0 < size_a < len(vertex_list):
        raise PartitionError(f"size_a={size_a} must be strictly between 0 and {len(vertex_list)}")
    rng = random.Random(seed)
    if initial is None:
        shuffled = vertex_list[:]
        rng.shuffle(shuffled)
        half = size_a if size_a is not None else (len(shuffled) + 1) // 2
        side_a, side_b = set(shuffled[:half]), set(shuffled[half:])
    else:
        side_a, side_b = set(initial[0]), set(initial[1])
        if side_a | side_b != set(vertex_list) or side_a & side_b:
            raise PartitionError("initial partition does not cover the vertex set")
        if size_a is not None and len(side_a) != size_a:
            raise PartitionError(
                f"initial partition has {len(side_a)} vertices on the first side "
                f"but size_a={size_a} was requested; KL swaps preserve sizes, so "
                f"the initial split must already match"
            )
    adjacency = _neighbor_weights(weights, vertex_list)

    for _ in range(max_passes):
        improved = _kl_pass(side_a, side_b, adjacency)
        if not improved:
            break
    return side_a, side_b


def _gains(side_a: set[int], side_b: set[int], adjacency: dict[int, dict[int, float]]) -> dict[int, float]:
    gains: dict[int, float] = {}
    for vertex, neighbors in adjacency.items():
        own = side_a if vertex in side_a else side_b
        external = sum(w for n, w in neighbors.items() if n not in own)
        internal = sum(w for n, w in neighbors.items() if n in own)
        gains[vertex] = external - internal
    return gains


def _kl_pass(side_a: set[int], side_b: set[int], adjacency: dict[int, dict[int, float]]) -> bool:
    """One KL pass; returns True when the partition was improved."""
    gains = _gains(side_a, side_b, adjacency)
    locked: set[int] = set()
    swap_sequence: list[tuple[int, int, float]] = []
    work_a, work_b = set(side_a), set(side_b)

    for _ in range(min(len(work_a), len(work_b))):
        best: tuple[float, int, int] | None = None
        # Sorted scans pin the gain tie-break to vertex order: set iteration
        # order is hash-history-dependent, and the winning pair of an
        # equal-gain tie must not vary between two runs that feed the
        # golden-parity harness.
        for a in sorted(work_a):
            if a in locked:
                continue
            for b in sorted(work_b):
                if b in locked:
                    continue
                cross = adjacency[a].get(b, 0.0)
                gain = gains[a] + gains[b] - 2.0 * cross
                if best is None or gain > best[0]:
                    best = (gain, a, b)
        if best is None:
            break
        gain, a, b = best
        swap_sequence.append((a, b, gain))
        locked.add(a)
        locked.add(b)
        # Update gains as if a and b were swapped.
        for vertex, neighbors in adjacency.items():
            if vertex in locked:
                continue
            delta = 0.0
            in_a = vertex in work_a
            if a in neighbors:
                delta += (2.0 if in_a else -2.0) * neighbors[a]
            if b in neighbors:
                delta += (-2.0 if in_a else 2.0) * neighbors[b]
            gains[vertex] += delta
        work_a.remove(a)
        work_b.remove(b)
        work_a.add(b)
        work_b.add(a)

    # Keep the best prefix of swaps.
    best_total = 0.0
    best_prefix = 0
    running = 0.0
    for index, (_, _, gain) in enumerate(swap_sequence, start=1):
        running += gain
        if running > best_total + 1e-12:
            best_total = running
            best_prefix = index
    if best_prefix == 0:
        return False
    for a, b, _ in swap_sequence[:best_prefix]:
        side_a.remove(a)
        side_b.remove(b)
        side_a.add(b)
        side_b.add(a)
    return True
