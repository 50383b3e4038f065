"""Benchmark: schedule quality under increasing chip defect rates.

For every (non-large) Table I circuit this builds the minimum viable chip,
degrades it with random, connectivity-preserving defects at a sweep of rates
(killing tile slots and degrading/disabling corridor segments), compiles
``ecmas_dd_min`` and ``ecmas_ls_min`` on the degraded chip, asserts the
schedule is bit-identical to the test oracle's reference engine plus a clean
validator replay, and records the cycle counts into
``benchmarks/results/defect_sweep.txt``.

The table answers the scenario question of the defect-aware milestone: how
gracefully do the Ecmas schedules degrade as the hardware loses tiles and
lanes?  Cycle counts at rate 0.0 match the pristine Table I columns by
construction; the measured overheads stay small because the congestion-aware
router detours around disabled segments and the placement stage keeps
communicating qubits adjacent even with dead tiles in the window.
"""

from __future__ import annotations

from conftest import full_benchmarks_enabled
from oracle import reference_compile

from repro.chip import SurfaceCodeModel, random_defects
from repro.circuits.generators import default_suite
from repro.core.ecmas import default_chip
from repro.eval import format_table
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

#: Defect rates swept per circuit (fraction of tiles killed / segments degraded).
RATES = (0.0, 0.05, 0.1, 0.2)

_METHODS = {
    "ecmas_dd_min": SurfaceCodeModel.DOUBLE_DEFECT,
    "ecmas_ls_min": SurfaceCodeModel.LATTICE_SURGERY,
}


def _compile_cell(circuit, method, chip):
    """Compile one cell, checked against the reference engine; returns its cycles."""
    production = run_pipeline_method(circuit, method, chip=chip)
    reference = reference_compile(circuit, method, chip=chip)
    assert production.encoded.operations == reference.encoded.operations, (
        f"{method} on {circuit.name}: diverged from the reference engine on a defective chip"
    )
    report = validate_encoded_circuit(circuit, production.encoded)
    assert report.valid, f"{method} on {circuit.name}: {report.errors[:3]}"
    return production.encoded.num_cycles


def test_defect_sweep(save_result):
    suite = default_suite(include_large=full_benchmarks_enabled())
    rows = []
    for spec in suite:
        circuit = spec.build()
        row = {"circuit": spec.name, "n": circuit.num_qubits, "g": circuit.num_cnots}
        for method, model in _METHODS.items():
            prefix = "dd" if "dd" in method else "ls"
            chip = default_chip(circuit, model, resources="minimum")
            baseline = None
            for rate in RATES:
                defects = random_defects(
                    chip, rate, seed=int(rate * 100), min_alive_tiles=circuit.num_qubits
                )
                cycles = _compile_cell(circuit, method, chip.with_defects(defects))
                row[f"{prefix}_r{rate}"] = cycles
                if rate == 0.0:
                    baseline = cycles
            row[f"{prefix}_overhead"] = (
                round(row[f"{prefix}_r{RATES[-1]}"] / baseline, 2) if baseline else 0.0
            )
        rows.append(row)

    text = format_table(
        rows,
        title=(
            "Defect sweep — cycles on minimum chips with random defects "
            f"(rates {', '.join(str(r) for r in RATES)}; overhead = worst rate / pristine)"
        ),
    )
    print("\n" + text)
    save_result("defect_sweep.txt", text)

    # Sanity on the aggregate: defective chips may cost cycles but must not
    # change the answer — every cell above already passed the validator and
    # the reference-engine parity assertion.
    assert all(row[f"{p}_r0.0"] > 0 for row in rows for p in ("dd", "ls"))
