"""Benchmark: the large-circuit tier — n=100..1000 Ising sweep circuits.

The Table I suite tops out at n=50 / 858 gates; this tier exercises the
scaling path the flat-array routing core, windowed scheduling and the
multilevel placement engine exist for.  Each row compiles an
``ising(n, layers)`` Trotter circuit with ``ecmas_dd_min``, records the
schedule length and memo hits into ``benchmarks/results/large_circuits.txt``
(wall-clock, mapping time and peak RSS change from run to run, so they are
printed but not tracked), and checks:

* **parity** against the test oracle's reference engine for every size it
  can reach (n <= 200, full frontier): bit-identical schedules;
* **validity** for the windowed sizes (n >= 500): the sliding-window
  frontier produces a different schedule than the full frontier would, so
  the check is the validator, not the differential harness;
* the acceptance row — an n=500 circuit with >= 10k CNOTs compiles to a
  validator-clean schedule in windowed mode with the initial mapping
  (placement + bandwidth adjust) finishing inside the ``mapping_s``
  budget.

The windowed rows opt in to ``placement="fast"`` — the multilevel
coarsen/FM core whose quality parity is proven by
``tests/test_placement_parity.py``.  That is what un-gates the n=1000
row: its *scheduling* was always cheap (the windowed working set is
bounded) but the classic KL placement is quadratic-ish in n and used to
dominate wall-clock at that size, so the row hid behind
``ECMAS_BENCH_FULL=1``.  Multilevel placement takes ~0.1s at n=1000.

Peak RSS is read from ``ru_maxrss`` — a process-lifetime high-water mark —
so rows run in ascending n and each printed value is an upper bound for
its row (exact for the row that set the mark).
"""

from __future__ import annotations

import os
import resource
import time

from oracle import reference_compile

from repro.circuits.generators.standard import ising
from repro.eval import format_table
from repro.pipeline.registry import run_pipeline_method

#: (num_qubits, trotter layers, scheduler window).  ``window=None`` rows use
#: the full frontier, reference placement, and are cross-checked against the
#: reference engine; windowed rows use fast (multilevel) placement and are
#: validator-checked.
_SWEEP: tuple[tuple[int, int, int | None], ...] = (
    (100, 5, None),
    (200, 5, None),
    (500, 11, 64),
    (1000, 6, 64),
)

#: Differential parity is asserted up to this size (reference-engine cost).
_PARITY_MAX_N = 200

#: The acceptance row: n=500 must carry at least this many CNOTs.
_MIN_LARGE_GATES = 10_000

#: Mapping-stage budget (seconds) for the n=500 acceptance row.  Overridable
#: for slow CI runners.
_MAX_MAPPING_S = float(os.environ.get("ECMAS_BENCH_MAPPING_MAX_S", "5.0"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_large_circuits(save_result):
    rows = []
    for num_qubits, layers, window in _SWEEP:
        placement = "fast" if window is not None else "reference"
        circuit = ising(num_qubits, layers)
        start = time.perf_counter()
        result = run_pipeline_method(
            circuit,
            "ecmas_dd_min",
            window=window,
            placement=placement,
            validate=True,
        )
        wall = time.perf_counter() - start
        mapping_s = result.stage_seconds("initial_mapping") + result.stage_seconds(
            "bandwidth_adjust"
        )
        report = result.context.artifacts["validation"]
        assert report.valid, (
            f"n={num_qubits} window={window}: schedule failed validation: "
            f"{report.errors[:3]}"
        )
        if window is None and num_qubits <= _PARITY_MAX_N:
            reference = reference_compile(circuit, "ecmas_dd_min")
            assert reference.encoded.operations == result.encoded.operations, (
                f"n={num_qubits}: diverged from the reference engine"
            )
        if num_qubits == 500:
            assert circuit.num_cnots >= _MIN_LARGE_GATES, (
                f"acceptance row must carry >= {_MIN_LARGE_GATES} CNOTs, "
                f"got {circuit.num_cnots}"
            )
            assert mapping_s <= _MAX_MAPPING_S, (
                f"n=500 initial mapping took {mapping_s:.2f}s, budget is "
                f"{_MAX_MAPPING_S}s (override with ECMAS_BENCH_MAPPING_MAX_S)"
            )
        counters = result.counters or {}
        # Bandwidth adjusting's pre-routing and the scheduler share one route
        # memo, so this is every hop table the compile built.
        print(
            f"n={num_qubits}: wall {wall:.2f}s, mapping {mapping_s:.2f}s "
            f"(placement + bandwidth adjust), schedule "
            f"{result.stage_seconds('schedule'):.2f}s, "
            f"{counters.get('landmark_tables', 0)} landmark tables, "
            f"peak RSS {_peak_rss_mb():.1f} MB"
        )
        rows.append(
            {
                "n": num_qubits,
                "gates": circuit.num_cnots,
                "window": window if window is not None else "full",
                "placement": placement,
                "cycles": result.encoded.num_cycles,
                "memo_hits": counters.get("layer_memo_hits", 0),
                "valid": report.valid,
            }
        )

    text = format_table(
        rows,
        title="Large-circuit tier — ising(n) sweep, ecmas_dd_min "
        "(windowed rows use fast multilevel placement)",
    )
    print("\n" + text)
    save_result("large_circuits.txt", text)
