"""Placement golden: pins every placement and bandwidth adjustment bit for bit.

For each (chip kind, strategy, placement engine) group, every circuit in
:data:`CIRCUITS` is mapped with :func:`~repro.core.mapping.build_initial_mapping`
under each seed in :data:`SEEDS`.  The group's records — shape, qubit → slot
assignment, mapping cost and the adjusted chip's lane counts — are hashed
into one sha256 and compared with ``tests/fixtures/placement_golden.json``.

The chip kinds cover the paper's square chips (minimum viable, 4x with spare
lanes, defective) and the graph chips (heavy-hex, degree-3 sparse, hex, the
square lattice as a tile graph, heavy-hex with dead tiles, and a sparse chip
whose node budgets leave spare lanes to hand out).  A refactor of the
placement layer that changes any placement, on any chip, fails here.

Regenerate the fixture (only when a placement change is intended and
explained) with::

    PYTHONPATH=src python tests/test_placement_golden.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.chip import (
    Chip,
    DefectSpec,
    SurfaceCodeModel,
    degree3_sparse,
    heavy_hex,
    hex_lattice,
    square_lattice,
)
from repro.chip.defects import random_defects
from repro.circuits.generators import get_benchmark
from repro.circuits.generators.random_parallel import random_parallel_circuit
from repro.core.mapping import build_initial_mapping
from repro.partition.placement import PLACEMENT_ENGINES

FIXTURE = Path(__file__).parent / "fixtures" / "placement_golden.json"

DD = SurfaceCodeModel.DOUBLE_DEFECT
STRATEGIES = ("ecmas", "metis", "trivial", "spectral", "random")
SEEDS = (0, 5)

#: Table I circuits plus two QUEKO-style ones; all fit every chip.  Those
#: above ``coarsen.COARSEST_SIZE`` (24) qubits run the fast engine's
#: multilevel path rather than its plain-KL fallback.
CIRCUITS = {
    **{name: get_benchmark(name).build() for name in (
        "dnn_n8", "qpe_n9", "bv_n10", "qft_n10", "ising_n10", "multiplier_n15",
        "swap_test_n25", "wstate_n27",
    )},
    "queko_n12": random_parallel_circuit(12, 12, 4, seed=3),
    "queko_n30": random_parallel_circuit(30, 12, 6, seed=3),
}


def _sparse_with_spare_budgets():
    graph = degree3_sparse(32, seed=3)
    return replace(graph, node_budgets=tuple(b + 2 for b in graph.effective_node_budgets()))


def _graph_chip(graph, dead=()):
    return Chip.from_tile_graph(DD, 3, graph, defects=DefectSpec(dead_tiles=dead))


def _square_defective(num_qubits: int) -> Chip:
    chip = Chip.four_x(DD, num_qubits, 3)
    return chip.with_defects(random_defects(chip, 0.1, seed=num_qubits, min_alive_tiles=num_qubits))


#: Chip kind → factory from the circuit's qubit count.
CHIP_KINDS = {
    "square_min": lambda n: Chip.minimum_viable(DD, n, 3),
    "square_4x": lambda n: Chip.four_x(DD, n, 3),
    "square_defective": _square_defective,
    "heavy_hex": lambda n: _graph_chip(heavy_hex(4, 4)),
    "sparse3": lambda n: _graph_chip(degree3_sparse(32, seed=7)),
    "hex": lambda n: _graph_chip(hex_lattice(6, 6)),
    "square_lattice": lambda n: _graph_chip(square_lattice(6, 6)),
    "heavy_hex_dead": lambda n: _graph_chip(heavy_hex(4, 4), dead=((5, 0), (20, 0))),
    "sparse3_spare_budgets": lambda n: _graph_chip(_sparse_with_spare_budgets()),
}


def _record(circuit, chip, strategy, engine, seed) -> list:
    mapping = build_initial_mapping(
        circuit, chip, None, placement_strategy=strategy, seed=seed, placement_engine=engine
    )
    adjusted = mapping.chip
    lanes = adjusted.tile_graph.bandwidths if adjusted.tile_graph is not None else ()
    return [
        list(mapping.shape),
        sorted((q, s.row, s.col) for q, s in mapping.placement.qubit_to_slot.items()),
        repr(mapping.mapping_cost),
        list(adjusted.h_bandwidths),
        list(adjusted.v_bandwidths),
        list(lanes),
    ]


def group_digest(kind: str, strategy: str, engine: str) -> str:
    """sha256 over every circuit × seed record of one group."""
    records = []
    for name, circuit in CIRCUITS.items():
        chip = CHIP_KINDS[kind](circuit.num_qubits)
        for seed in SEEDS:
            records.append([name, seed, _record(circuit, chip, strategy, engine, seed)])
    payload = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def _group_key(kind: str, strategy: str, engine: str) -> str:
    return f"{kind}/{strategy}/{engine}"


GROUPS = [
    (kind, strategy, engine)
    for kind in CHIP_KINDS
    for strategy in STRATEGIES
    for engine in PLACEMENT_ENGINES
]


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_group(golden):
    assert sorted(golden) == sorted(_group_key(*group) for group in GROUPS)


@pytest.mark.parametrize("kind", sorted(CHIP_KINDS))
def test_placements_match_golden(golden, kind):
    mismatched = [
        _group_key(kind, strategy, engine)
        for strategy in STRATEGIES
        for engine in PLACEMENT_ENGINES
        if group_digest(kind, strategy, engine) != golden[_group_key(kind, strategy, engine)]
    ]
    assert not mismatched, f"placements changed in groups: {mismatched}"


if __name__ == "__main__":
    digests = {_group_key(*group): group_digest(*group) for group in GROUPS}
    FIXTURE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} group digests to {FIXTURE}")
