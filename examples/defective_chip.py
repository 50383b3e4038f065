#!/usr/bin/env python3
"""Defective chips: compile onto hardware with dead tiles and broken couplers.

Loads the checked-in chip spec ``examples/chips/defective_4x4.json`` (a 4x4
double-defect chip with one dead tile, one disabled corridor segment and one
degraded segment), compiles a QFT onto it, and shows that

* placement avoids the dead tile,
* routing detours around the disabled segment,
* the validator certifies the schedule against the defect constraints.

Also demonstrates the random-defect generator and chip-spec save/load.

Run with::

    python examples/defective_chip.py

The same compile is available from the CLI::

    python -m repro compile qft_n10 --chip-spec examples/chips/defective_4x4.json
    python -m repro compile qft_n10 --defect-rate 0.15 --defect-seed 7
"""

from __future__ import annotations

from pathlib import Path

from repro.chip import DefectSpec, load_chip_spec, random_defects, save_chip_spec
from repro.circuits.generators import standard
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

SPEC_PATH = Path(__file__).parent / "chips" / "defective_4x4.json"


def main() -> None:
    chip = load_chip_spec(SPEC_PATH)
    print(f"Loaded chip spec: {SPEC_PATH.name}")
    print(f"  {chip.describe()}")
    print(f"  alive tile slots: {chip.num_alive_tile_slots} / {chip.num_tile_slots}")
    print()

    circuit = standard.qft(10, with_swaps=True)
    result = run_pipeline_method(circuit, "ecmas_dd_min", chip=chip)
    encoded = result.encoded
    report = validate_encoded_circuit(circuit, encoded)

    dead = chip.defects.dead_set()
    occupied = {(slot.row, slot.col) for slot in encoded.placement.slots()}
    print(f"Compiled {circuit.name}: {encoded.num_cycles} cycles, valid={report.valid}")
    print(f"  dead tiles {sorted(dead)} occupied by qubits: {bool(occupied & dead)}")
    print(
        f"  path queries: {result.counters['route_calls']}, "
        f"blocked (gate waited a cycle): {result.counters['route_failures']}"
    )
    print()

    # Degrade a pristine copy further with the random generator and persist it.
    degraded = chip.with_defects(DefectSpec()).with_defects(
        random_defects(chip, rate=0.15, seed=7, min_alive_tiles=circuit.num_qubits)
    )
    out = Path(__file__).parent / "chips" / "generated_defects.json"
    save_chip_spec(degraded, out)
    print(f"Generated {degraded.defects.describe()} -> {out.name}")
    encoded2 = run_pipeline_method(circuit, "ecmas_dd_min", chip=degraded).encoded
    report2 = validate_encoded_circuit(circuit, encoded2)
    print(f"Compiled on generated chip: {encoded2.num_cycles} cycles, valid={report2.valid}")
    out.unlink(missing_ok=True)


if __name__ == "__main__":
    main()
