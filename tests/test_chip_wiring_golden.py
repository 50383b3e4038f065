"""Chip wiring golden: pins every chip's routing graph and corridor view bit for bit.

For each chip in :data:`CHIPS` the record holds the
:class:`~repro.chip.routing_graph.RoutingGraph` nodes (in insertion order),
its edge capacities and junction capacities, ``corridor_of`` for every edge,
``Chip.corridor_segments()``, ``Chip.bandwidth`` and ``Chip.slot_distance``
between every pair of the first six tile slots.  The record is hashed into
one sha256 per chip and compared with ``tests/fixtures/chip_wiring_golden.json``.

The chips cover the paper's square chips (minimum viable and 4x, double
defect and lattice surgery, 4 to 100 qubits), a rectangular tile array with
two-lane corridors, the four tile-graph families, and each of those again
with random defects.  A refactor of the chip wiring (which junctions a
segment joins, which corridor it belongs to, which junctions a tile reaches)
that changes any of it, on any chip, fails here.

Regenerate the fixture (only when a wiring change is intended and explained)
with::

    PYTHONPATH=src python tests/test_chip_wiring_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.chip import (
    Chip,
    SurfaceCodeModel,
    degree3_sparse,
    heavy_hex,
    hex_lattice,
    square_lattice,
)
from repro.chip.defects import random_defects
from repro.chip.routing_graph import RoutingGraph

FIXTURE = Path(__file__).parent / "fixtures" / "chip_wiring_golden.json"

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY
QUBITS = (4, 9, 16, 25, 50, 100)
DEFECT_RATE = 0.15
DEFECT_SEEDS = (1, 2)


def _base_chips() -> dict[str, Chip]:
    chips: dict[str, Chip] = {}
    for model in (DD, LS):
        for n in QUBITS:
            chips[f"{model.name}/min/{n}"] = Chip.minimum_viable(model, n, 3)
            chips[f"{model.name}/4x/{n}"] = Chip.four_x(model, n, 3)
    chips["DOUBLE_DEFECT/tile_array/2x5/b2"] = Chip.with_tile_array(DD, 3, 2, 5, bandwidth=2)
    for name, graph in (
        ("heavy_hex/3x3", heavy_hex(3, 3)),
        ("hex/3x4", hex_lattice(3, 4)),
        ("square_lattice/4x4", square_lattice(4, 4)),
        ("sparse3/24/3", degree3_sparse(24, 3)),
    ):
        chips[name] = Chip.from_tile_graph(DD, 3, graph)
    return chips


def _chips() -> dict[str, Chip]:
    base = _base_chips()
    chips = dict(base)
    for name, chip in base.items():
        for seed in DEFECT_SEEDS:
            chips[f"{name}/defects{seed}"] = chip.with_defects(
                random_defects(chip, DEFECT_RATE, seed=seed)
            )
    return chips


CHIPS = _chips()


def _record(chip: Chip) -> list:
    graph = RoutingGraph(chip)
    slots = chip.tile_slots()[:6]
    return [
        [list(node) for node in graph.nodes],
        [[list(a), list(b), capacity] for (a, b), capacity in graph.edge_capacities.items()],
        [[list(node), capacity] for node, capacity in graph.junction_capacities.items()],
        [
            [list(a), list(b), list(corridor) if corridor is not None else None]
            for a, b in graph.edges
            for corridor in (graph.corridor_of(a, b),)
        ],
        [[list(key), capacity] for key, capacity in chip.corridor_segments()],
        chip.bandwidth,
        [[chip.slot_distance(a, b) for b in slots] for a in slots],
    ]


def chip_digest(name: str) -> str:
    """sha256 over one chip's wiring record."""
    payload = json.dumps(_record(CHIPS[name]), separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_chip(golden):
    assert len(CHIPS) == 87
    assert sorted(golden) == sorted(CHIPS)


@pytest.mark.parametrize("name", sorted(CHIPS))
def test_wiring_matches_golden(golden, name):
    assert chip_digest(name) == golden[name], f"chip wiring changed for {name}"


if __name__ == "__main__":
    digests = {name: chip_digest(name) for name in CHIPS}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} chip digests to {FIXTURE}")
