"""Multilevel graph coarsening for the fast placement engine.

METIS-style scheme: repeatedly contract a heavy-edge matching (accumulating
vertex and edge weights) until the graph is small, bisect the coarsest graph,
then uncoarsen — projecting the partition one level finer and running
Fiduccia–Mattheyses refinement (:func:`repro.partition.kl.fm_refine`) at each
level.  Because a coarse vertex carries the count of fine vertices it
contracts, balance targets project exactly, and the finest level refines at
unit vertex weights where the requested side sizes are restored exactly.

The placement core :func:`multilevel_bisect` reads the same shared
:data:`~repro.partition.kl.WeightRows` as the KL core
(:func:`repro.partition.kl.kl_bisect`), with the same region-list contract,
and delegates small regions to it.  The public :func:`multilevel_bisection`
is a thin adapter over it that takes a weight map, like
:func:`repro.partition.kl.kernighan_lin_bisection`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.errors import PartitionError
from repro.partition.kl import (
    WeightMap,
    WeightRows,
    check_weights,
    fm_refine,
    kernighan_lin_bisection,
    kl_bisect,
    weight_rows,
)
from repro.profiling import PlacementCounters

#: Below this size the classic KL core is both fast enough and higher quality.
COARSEST_SIZE = 24

#: Non-integral edge weights are scaled by this factor before rounding to int.
WEIGHT_SCALE = 1024


def quantize_weights(weights: WeightMap) -> dict[tuple[int, int], int]:
    """Map float edge weights to the integers FM gain buckets require.

    Integral weights (the common case — communication weights are CNOT
    counts) pass through exactly; otherwise everything is scaled by
    :data:`WEIGHT_SCALE` and rounded, preserving relative magnitudes to
    about three decimal digits.
    """
    return dict(zip(weights, _quantized(list(weights.values()))))


def _quantized(weights: list[float]) -> list[int]:
    if all(float(w).is_integer() for w in weights):
        return [int(w) for w in weights]
    return [round(w * WEIGHT_SCALE) for w in weights]


def _build_csr(
    n: int, edges: dict[tuple[int, int], int]
) -> tuple[list[int], list[int], list[int]]:
    """CSR adjacency over contiguous ids from an ``(a, b) -> weight`` map."""
    degree = [0] * n
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    adj_index = [0] * (n + 1)
    for v in range(n):
        adj_index[v + 1] = adj_index[v] + degree[v]
    adj_vertex = [0] * adj_index[n]
    adj_weight = [0] * adj_index[n]
    cursor = adj_index[:n]
    for (a, b), w in edges.items():
        adj_vertex[cursor[a]] = b
        adj_weight[cursor[a]] = w
        cursor[a] += 1
        adj_vertex[cursor[b]] = a
        adj_weight[cursor[b]] = w
        cursor[b] += 1
    return adj_index, adj_vertex, adj_weight


def heavy_edge_matching(
    adj_index: Sequence[int],
    adj_vertex: Sequence[int],
    adj_weight: Sequence[int],
    vertex_weight: Sequence[int],
    weight_cap: int,
    rng: random.Random,
) -> list[int]:
    """Match each vertex with its heaviest-edge unmatched neighbor.

    Vertices are visited in a seeded random order (the stochastic step that
    gives ``best_placement`` attempt diversity); ties between equally heavy
    edges break toward the smaller neighbor id.  Pairs whose combined vertex
    weight would exceed ``weight_cap`` are skipped so no coarse vertex grows
    large enough to make balanced bisection impossible.  Returns
    ``match[v]`` with ``match[v] == v`` for unmatched singletons.
    """
    n = len(vertex_weight)
    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        best_u = -1
        best_w = -1
        for k in range(adj_index[v], adj_index[v + 1]):
            u = adj_vertex[k]
            w = adj_weight[k]
            if match[u] != -1 or u == v:
                continue
            if vertex_weight[v] + vertex_weight[u] > weight_cap:
                continue
            if w > best_w or (w == best_w and u < best_u):
                best_u, best_w = u, w
        if best_u != -1:
            match[v] = best_u
            match[best_u] = v
        else:
            match[v] = v
    return match


def contract(
    adj_index: Sequence[int],
    adj_vertex: Sequence[int],
    adj_weight: Sequence[int],
    vertex_weight: Sequence[int],
    match: Sequence[int],
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Contract matched pairs into coarse vertices, accumulating weights.

    Coarse ids are assigned in fine-id order (deterministic).  Parallel
    edges between coarse vertices merge by weight summation; edges internal
    to a pair disappear (they can never be cut at this level or above).
    Returns ``(adj_index, adj_vertex, adj_weight, vertex_weight, coarse_of)``
    where ``coarse_of[fine] -> coarse`` is the projection map.
    """
    n = len(vertex_weight)
    coarse_of = [-1] * n
    coarse_weight: list[int] = []
    for v in range(n):
        if coarse_of[v] != -1:
            continue
        partner = match[v]
        cid = len(coarse_weight)
        coarse_of[v] = cid
        weight = vertex_weight[v]
        if partner != v:
            coarse_of[partner] = cid
            weight += vertex_weight[partner]
        coarse_weight.append(weight)
    coarse_edges: dict[tuple[int, int], int] = {}
    for v in range(n):
        cv = coarse_of[v]
        for k in range(adj_index[v], adj_index[v + 1]):
            u = adj_vertex[k]
            if u <= v:
                continue
            cu = coarse_of[u]
            if cv == cu:
                continue
            edge = (cv, cu) if cv < cu else (cu, cv)
            coarse_edges[edge] = coarse_edges.get(edge, 0) + adj_weight[k]
    c_index, c_vertex, c_weight = _build_csr(len(coarse_weight), coarse_edges)
    return c_index, c_vertex, c_weight, coarse_weight, coarse_of


def _greedy_initial(vertex_weight: Sequence[int], target_a: int) -> list[int]:
    """Seed the coarsest bisection: heavy vertices first, to the emptier side."""
    order = sorted(range(len(vertex_weight)), key=lambda v: (-vertex_weight[v], v))
    side = [0] * len(vertex_weight)
    total = sum(vertex_weight)
    weight_a = 0
    weight_b = 0
    target_b = total - target_a
    for v in order:
        if target_a - weight_a >= target_b - weight_b:
            side[v] = 0
            weight_a += vertex_weight[v]
        else:
            side[v] = 1
            weight_b += vertex_weight[v]
    return side


def _force_exact(
    adj_index: Sequence[int],
    adj_vertex: Sequence[int],
    adj_weight: Sequence[int],
    side: list[int],
    target_a: int,
) -> None:
    """Restore exact unit-weight balance by moving best-gain heavy-side vertices.

    Refinement at the finest level converges to the exact target in practice
    (projection deviations are at most one matching pair); this is the
    deterministic backstop that makes exactness a guarantee rather than an
    expectation, since the recursive placement requires side sizes to equal
    region capacities.
    """
    count_a = sum(1 for s in side if s == 0)
    while count_a != target_a:
        heavy = 0 if count_a > target_a else 1
        best_vertex = -1
        best_gain = None
        for v in range(len(side)):
            if side[v] != heavy:
                continue
            gain = 0
            for k in range(adj_index[v], adj_index[v + 1]):
                w = adj_weight[k]
                gain += w if side[adj_vertex[k]] != heavy else -w
            if best_gain is None or gain > best_gain:
                best_vertex, best_gain = v, gain
        side[best_vertex] = 1 - heavy
        count_a += 1 if heavy == 1 else -1


def multilevel_bisection(
    vertices: Sequence[int],
    weights: WeightMap,
    max_passes: int = 8,
    seed: int | None = None,
    size_a: int | None = None,
) -> tuple[set[int], set[int]]:
    """Bisect ``vertices`` via coarsen → bisect → uncoarsen+refine.

    Drop-in alternative to :func:`kernighan_lin_bisection` (same vertex /
    weight-map / ``size_a`` contract, sizes honored exactly) with
    near-linear cost in the number of edges: each FM pass is O(V + E) and
    the level hierarchy shrinks geometrically.  Small inputs delegate to
    the classic KL core, which is higher quality when the all-pairs scan
    is affordable.  Larger ones quantize ``weights`` and run
    :func:`multilevel_bisect` on their rows.
    """
    vertex_list = list(vertices)
    if len(vertex_list) < 2:
        raise PartitionError("bisection needs at least two vertices")
    if len(set(vertex_list)) != len(vertex_list):
        raise PartitionError("duplicate vertices in bisection input")
    n = len(vertex_list)
    if size_a is not None and not 0 < size_a < n:
        raise PartitionError(f"size_a={size_a} must be strictly between 0 and {n}")
    check_weights((a, b, w) for (a, b), w in weights.items())
    if n <= COARSEST_SIZE:
        return kernighan_lin_bisection(
            vertex_list, weights, max_passes=max_passes, seed=seed, size_a=size_a
        )
    rows = weight_rows(vertex_list, ((a, b, w) for (a, b), w in quantize_weights(weights).items()))
    target_a = size_a if size_a is not None else (n + 1) // 2
    side_a, side_b = multilevel_bisect(rows, vertex_list, target_a, seed, max_passes=max_passes)
    return set(side_a), set(side_b)


def multilevel_bisect(
    rows: WeightRows,
    vertices: list[int],
    size_a: int,
    seed: int | None = None,
    counters: PlacementCounters | None = None,
    max_passes: int = 8,
) -> tuple[list[int], list[int]]:
    """Multilevel-bisect the region ``vertices`` of ``rows``, ``size_a`` of them first.

    The fast placement engine's core; sides come back in ``vertices`` order.
    Regions of at most :data:`COARSEST_SIZE` vertices go to
    :func:`~repro.partition.kl.kl_bisect`.  Larger ones number the region's
    vertices in list order, read each row in edge order into a CSR
    (non-integral weights quantized as by :func:`quantize_weights`), and
    coarsen it.
    """
    n = len(vertices)
    if n <= COARSEST_SIZE:
        return kl_bisect(rows, vertices, size_a, seed, counters, max_passes=max_passes)
    local_of = {vertex: index for index, vertex in enumerate(vertices)}
    adj_index = [0]
    adj_vertex: list[int] = []
    region_weights: list[float] = []
    for vertex in vertices:
        for neighbor, w in rows[vertex].items():
            local = local_of.get(neighbor)
            if local is not None and neighbor != vertex:
                adj_vertex.append(local)
                region_weights.append(w)
        adj_index.append(len(adj_vertex))
    rng = random.Random(seed)
    weight_cap = max(4, n // 8)

    # Coarsening: stack of (csr..., vertex_weight, projection to this level).
    adj = (adj_index, adj_vertex, _quantized(region_weights))
    vertex_weight = [1] * n
    levels: list[tuple[tuple[list[int], list[int], list[int]], list[int], list[int]]] = []
    while len(vertex_weight) > COARSEST_SIZE:
        match = heavy_edge_matching(*adj, vertex_weight, weight_cap, rng)
        c_index, c_vertex, c_weight, c_vw, coarse_of = contract(*adj, vertex_weight, match)
        if len(c_vw) > 0.9 * len(vertex_weight):
            break  # matching stalled (weight cap / disconnection); stop coarsening
        levels.append((adj, vertex_weight, coarse_of))
        adj = (c_index, c_vertex, c_weight)
        vertex_weight = c_vw
    if counters is not None:
        counters.coarsening_levels += len(levels)

    side = _greedy_initial(vertex_weight, size_a)
    max_vw = max(vertex_weight)
    fm_refine(
        *adj,
        side,
        vertex_weight,
        size_a,
        move_tolerance=max_vw,
        accept_tolerance=max_vw - 1,
        max_passes=max_passes,
        counters=counters,
    )
    while levels:
        (adj, vertex_weight, coarse_of) = levels.pop()
        side = [side[coarse_of[v]] for v in range(len(vertex_weight))]
        max_vw = max(vertex_weight)
        fm_refine(
            *adj,
            side,
            vertex_weight,
            size_a,
            move_tolerance=max_vw,
            accept_tolerance=max_vw - 1,
            max_passes=max_passes,
            counters=counters,
        )
    _force_exact(*adj, side, size_a)
    return (
        [vertices[v] for v in range(n) if side[v] == 0],
        [vertices[v] for v in range(n) if side[v] == 1],
    )
