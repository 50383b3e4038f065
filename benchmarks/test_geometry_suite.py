"""Benchmark: Table-1/Figure-11 machinery on non-square chip geometries.

The topology-agnostic chip milestone's acceptance run.  Two graph
geometries — a heavy-hex lattice (IBM-style degree <= 3 with mid-edge flag
tiles) and a seeded degree-3 sparse graph — host every Table I circuit that
fits their tile count, compiled as ``ecmas_dd_min`` and ``ecmas_ls_min``.
Every cell asserts a schedule bit-identical to the test oracle's reference
engine and a clean validator replay; cycle counts land in
``benchmarks/results/geometry_suite.txt``.

A Figure-11-style parallelism sweep (QUEKO circuits pinned to the heavy-hex
chip with in-job validation) rides along, demonstrating the figure machinery
is geometry-agnostic too.

The headline: the whole Ecmas pipeline — placement, per-edge bandwidth
adjusting, routing, scheduling — runs validator-clean on geometries the
paper never modelled, at cycle counts in the same band as the square-lattice
columns (sparser corridors cost cycles; the congestion-aware router absorbs
most of it).
"""

from __future__ import annotations

from conftest import full_benchmarks_enabled
from oracle import reference_compile

from repro.chip import Chip, SurfaceCodeModel, degree3_sparse, heavy_hex
from repro.circuits.generators import default_suite
from repro.eval import format_table
from repro.eval.figures import figure11_parallelism
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

#: The two non-square acceptance geometries (name -> tile graph).
GEOMETRIES = {
    "hhex": heavy_hex(3, 3),  # 18 tiles, 24 edges, degree <= 3
    "sp3": degree3_sparse(24, seed=7),  # 24 tiles, 35 edges, degree <= 3
}

_METHODS = {
    "ecmas_dd_min": SurfaceCodeModel.DOUBLE_DEFECT,
    "ecmas_ls_min": SurfaceCodeModel.LATTICE_SURGERY,
}


def _compile_cell(circuit, method, chip):
    """Compile one cell, checked against the reference engine; returns its cycles."""
    production = run_pipeline_method(circuit, method, chip=chip)
    reference = reference_compile(circuit, method, chip=chip)
    assert production.encoded.operations == reference.encoded.operations, (
        f"{method} on {circuit.name}: diverged from the reference engine on a graph chip"
    )
    report = validate_encoded_circuit(circuit, production.encoded)
    assert report.valid, f"{method} on {circuit.name}: {report.errors[:3]}"
    return production.encoded.num_cycles


def test_geometry_suite(save_result):
    suite = default_suite(include_large=full_benchmarks_enabled())
    chips = {
        (geo_name, method): Chip.from_tile_graph(model, 3, graph)
        for geo_name, graph in GEOMETRIES.items()
        for method, model in _METHODS.items()
    }
    rows = []
    for spec in suite:
        circuit = spec.build()
        row = {"circuit": spec.name, "n": circuit.num_qubits, "g": circuit.num_cnots}
        fits_any = False
        for geo_name, graph in GEOMETRIES.items():
            for method in _METHODS:
                column = f"{geo_name}_{'dd' if 'dd' in method else 'ls'}"
                if circuit.num_qubits > graph.num_nodes:
                    row[column] = "-"  # circuit does not fit this geometry
                    continue
                row[column] = _compile_cell(circuit, method, chips[(geo_name, method)])
                fits_any = True
        if fits_any:
            rows.append(row)

    lines = [
        format_table(
            rows,
            title=(
                "Geometry suite — cycles on non-square graph chips "
                "(hhex = heavy_hex 3x3, 18 tiles; sp3 = degree-3 sparse n=24 seed=7; "
                "reference-engine parity, validator-clean; '-' = does not fit)"
            ),
        )
    ]

    # Figure-11-style parallelism sweep pinned to the heavy-hex chip.
    points = figure11_parallelism(
        SurfaceCodeModel.DOUBLE_DEFECT,
        parallelisms=(1, 3, 5) if not full_benchmarks_enabled() else tuple(range(1, 22, 4)),
        group_size=1 if not full_benchmarks_enabled() else 3,
        num_qubits=18,
        depth=10,
        chip=chips[("hhex", "ecmas_dd_min")],
        validate=True,
    )
    sweep_rows = [
        {
            "parallelism": int(point.x),
            "series": point.series,
            "method": point.extra["method"],
            "cycles": round(point.cycles, 1),
        }
        for point in points
    ]
    lines.append(
        format_table(
            sweep_rows,
            title=(
                "Figure-11-style sweep on heavy_hex 3x3 — QUEKO n=18 d=10, "
                "validated in-job (baseline = autobraid)"
            ),
        )
    )

    text = "\n".join(lines)
    print("\n" + text)
    save_result("geometry_suite.txt", text)

    # Sanity on the aggregates: every fitting cell compiled, and Ecmas beats
    # the braiding baseline at every swept parallelism on the graph chip too.
    assert all(isinstance(row["hhex_dd"], int) for row in rows if row["n"] <= 18)
    by_parallelism: dict[int, dict[str, float]] = {}
    for row in sweep_rows:
        by_parallelism.setdefault(row["parallelism"], {})[row["series"]] = row["cycles"]
    assert all(cell["ecmas"] <= cell["baseline"] for cell in by_parallelism.values())
