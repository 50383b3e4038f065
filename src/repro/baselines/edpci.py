"""EDPCI baseline (Beverland, Kliuchnikov, Schoute — PRX Quantum 2022).

EDPCI compiles lattice-surgery circuits by routing edge-disjoint paths through
ancilla tiles, completing every CNOT in one clock cycle, but it uses a trivial
(snake) initial mapping and does not adapt channel resources to the circuit —
which is why, in the paper's evaluation, it matches Ecmas on low-parallelism
circuits yet fails to capitalise on larger chips.

We model it as the standard pass pipeline with trivial snake placement, no
bandwidth adjusting, and per-cycle routing that attempts the ready gates
shortest-separation-first (the usual greedy EDP packing order) — the
``"edpci"`` entry of :mod:`repro.pipeline.registry`.
"""

from __future__ import annotations

from repro.chip.chip import Chip
from repro.circuits.circuit import Circuit
from repro.core.schedule import EncodedCircuit
from repro.pipeline.registry import run_pipeline_method


def compile_edpci(circuit: Circuit, chip: Chip | None = None, code_distance: int = 3) -> EncodedCircuit:
    """Compile ``circuit`` with the EDPCI baseline on a lattice surgery chip."""
    return run_pipeline_method(circuit, "edpci", chip=chip, code_distance=code_distance).encoded
