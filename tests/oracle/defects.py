"""The reference defect sampler: one routing-graph build per trial.

:func:`reference_random_defects` is the connectivity-preserving sampler as it
stood before production learned to re-check a trial on one graph per sample
(:func:`repro.chip.defects.random_defects`): every trial disable builds the
trial chip and a whole :class:`~repro.chip.routing_graph.RoutingGraph` for
:func:`reference_chip_is_routable`.  ``tests/test_defects.py`` holds the
production sampler to it over a seeded grid.
"""

from __future__ import annotations

import random

from repro.chip.defects import DefectSpec, SegmentKey
from repro.errors import ChipError


def reference_chip_is_routable(chip) -> bool:
    """True when every alive tile of ``chip`` can route to every other (one graph build per call).

    A path's interior consists solely of junctions, each needing at least one
    enabled incident segment (zero-through-capacity junctions cannot be
    crossed), and tiles are endpoints only — so tile-to-tile routability is
    *not* transitive: one tile's access junctions may touch two mutually
    disconnected junction components.  The check therefore computes the
    connected components of the usable-junction subgraph (corridor edges
    between junctions of capacity >= 1) and requires every pair of alive
    tiles to share at least one component among their access junctions
    (:meth:`~repro.chip.chip.Chip.tile_access`), which is
    exactly the feasibility condition of
    :meth:`repro.routing.fast_router.FastRouter.find` on an empty usage state.
    """
    from repro.chip.routing_graph import RoutingGraph

    graph = RoutingGraph(chip)
    tiles = graph.tile_nodes()
    if len(tiles) <= 1:
        return True
    # Connected components of the usable-junction subgraph, over node ids:
    # junctions come first, and a junction's row holds only junctions.
    rows = graph.junction_adjacency
    capacity = graph.through_capacity
    num_junctions = len(graph.nodes) - len(tiles)
    component = [-1] * num_junctions
    for start in range(num_junctions):
        if capacity[start] < 1 or component[start] >= 0:
            continue
        component[start] = start
        stack = [start]
        while stack:
            for neighbor, _eid, _lanes in rows[stack.pop()]:
                if component[neighbor] < 0 and capacity[neighbor] >= 1:
                    component[neighbor] = start
                    stack.append(neighbor)
    # Each tile can start a path into any component its access junctions touch.
    reach = [
        {component[j] for j, _eid, _lanes in rows[tile] if component[j] >= 0}
        for tile in range(num_junctions, len(graph.nodes))
    ]
    if any(not r for r in reach):
        return False  # a tile with no usable access junction routes nowhere
    return all(a & b for i, a in enumerate(reach) for b in reach[i + 1 :])


def reference_random_defects(
    chip,
    rate: float,
    seed: int = 0,
    min_alive_tiles: int = 1,
) -> DefectSpec:
    """Sample a random, connectivity-preserving defect spec for ``chip`` (one graph per trial).

    ``rate`` is the fraction of tile slots killed and of corridor segments
    degraded (half of the degraded segments are disabled outright, the other
    half drop to one lane).  Defects already declared on ``chip`` are kept:
    the returned spec is a superset of ``chip.defects``, so a chip loaded
    from a measured spec file composes with further random degradation.

    At least ``min_alive_tiles`` tile slots stay alive, and any disabled
    segment that would disconnect the alive tiles (including via a junction
    left with no enabled segment) is demoted to a one-lane override instead,
    so a routable input chip always yields a routable result.
    """
    if not 0.0 <= rate <= 1.0:
        raise ChipError(f"defect rate must be in [0, 1], got {rate}")
    base: DefectSpec = chip.defects
    alive = [(slot.row, slot.col) for slot in chip.alive_tile_slots()]
    if min_alive_tiles > len(alive):
        raise ChipError(
            f"chip has only {len(alive)} alive tile slots, cannot keep {min_alive_tiles} alive"
        )
    rng = random.Random(seed)
    num_dead = min(int(rate * chip.num_tile_slots), len(alive) - min_alive_tiles)
    dead = tuple(base.dead_tiles) + (tuple(rng.sample(alive, num_dead)) if num_dead else ())

    segments: list[SegmentKey] = [key for key, _ in chip.corridor_segments()]
    num_degraded = int(rate * len(segments))
    degraded = rng.sample(segments, num_degraded) if num_degraded else []

    disabled: list[SegmentKey] = list(base.disabled_segments)
    overrides: dict[SegmentKey, int] = base.override_map()
    for index, segment in enumerate(degraded):
        if index % 2 == 0:
            # Try to disable the segment; keep only if the chip stays routable.
            trial = DefectSpec(
                dead_tiles=dead,
                disabled_segments=tuple(disabled) + (segment,),
                bandwidth_overrides=tuple(overrides.items()),
            )
            if reference_chip_is_routable(chip.with_defects(trial)):
                disabled.append(segment)
            else:
                overrides[segment] = min(overrides.get(segment, 1), 1)
        else:
            overrides[segment] = min(overrides.get(segment, 1), 1)
    spec = DefectSpec(
        dead_tiles=dead,
        disabled_segments=tuple(disabled),
        bandwidth_overrides=tuple(overrides.items()),
    )
    if not reference_chip_is_routable(chip.with_defects(spec)):  # pragma: no cover - defensive
        spec = DefectSpec(
            dead_tiles=dead,
            disabled_segments=tuple(base.disabled_segments),
            bandwidth_overrides=tuple(overrides.items()),
        )
    return spec
