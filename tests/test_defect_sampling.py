"""The defect sampler checks every trial on one routing graph per sample.

:func:`repro.chip.defects.random_defects` used to build the trial chip and a
whole routing graph for every segment it tried to disable.  It now builds one
graph per sample and re-runs the component check with the trial's edges
removed.  The spec it returns must not change: this file holds it to the
per-trial sampler kept in ``tests/oracle/defects.py`` over a seeded grid of
every chip kind it accepts (pristine and already-defective square chips,
graph chips with and without defects), rates 0–0.5 and several seeds.
"""

from __future__ import annotations

import pytest
from oracle import reference_chip_is_routable, reference_random_defects

from repro.chip import Chip, DefectSpec, RoutingGraph, SurfaceCodeModel, chip_is_routable
from repro.chip.defects import random_defects
from repro.chip.routing_graph import ROUTING_GRAPHS
from repro.chip.tile_graph import heavy_hex, degree3_sparse

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY

_BASE = DefectSpec(
    dead_tiles=((1, 1),),
    disabled_segments=(("h", 2, 0), ("v", 0, 3)),
    bandwidth_overrides=((("h", 0, 1), 1), (("v", 2, 2), 0)),
)
_GRAPH_BASE = DefectSpec(dead_tiles=((4, 0),), disabled_segments=(("e", 0, 1),))

CHIPS = {
    "square": Chip.with_tile_array(DD, 3, 4, 4, bandwidth=2),
    "square-ls-wide": Chip.with_tile_array(LS, 3, 3, 5, bandwidth=3),
    "square-defective": Chip.with_tile_array(DD, 3, 4, 4, bandwidth=2).with_defects(_BASE),
    "heavy-hex": Chip.from_tile_graph(DD, 3, heavy_hex(3, 3)),
    "sparse": Chip.from_tile_graph(DD, 3, degree3_sparse(16, seed=3)),
    "sparse-defective": Chip.from_tile_graph(DD, 3, degree3_sparse(16, seed=3)).with_defects(
        _GRAPH_BASE
    ),
}
RATES = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5)
SEEDS = range(6)


@pytest.mark.parametrize("name", sorted(CHIPS))
def test_sampler_returns_the_per_trial_spec(name):
    chip = CHIPS[name]
    keep = max(1, chip.num_alive_tile_slots // 2)
    for rate in RATES:
        for seed in SEEDS:
            expected = reference_random_defects(chip, rate, seed=seed, min_alive_tiles=keep)
            assert random_defects(chip, rate, seed=seed, min_alive_tiles=keep) == expected, (
                name,
                rate,
                seed,
            )


@pytest.mark.parametrize("name", sorted(CHIPS))
def test_routability_check_matches_the_reference(name):
    chip = CHIPS[name]
    for seed in SEEDS:
        degraded = chip.with_defects(random_defects(chip, 0.5, seed=seed))
        assert chip_is_routable(degraded) is reference_chip_is_routable(degraded) is True
        # Cutting every corridor segment of one junction's row strands it.
        blocked = chip.with_defects(
            DefectSpec(
                dead_tiles=degraded.defects.dead_tiles,
                disabled_segments=tuple(key for key, _ in chip.corridor_segments()),
            )
        )
        assert chip_is_routable(blocked) is reference_chip_is_routable(blocked)


def test_one_graph_is_built_per_sample(monkeypatch):
    builds = []
    init = RoutingGraph.__init__

    def counting(self, chip, *args):
        builds.append(chip)
        init(self, chip, *args)

    monkeypatch.setattr(RoutingGraph, "__init__", counting)
    ROUTING_GRAPHS.clear()
    spec = random_defects(CHIPS["square"], 0.5, seed=1, min_alive_tiles=4)
    assert len(spec.disabled_segments) > 1
    assert len(builds) == 1
