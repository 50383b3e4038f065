"""Benchmark: regenerate Figure 11 (effect of circuit parallelism).

QUEKO-style random circuits (49 qubits, depth 50) with parallelism swept from
1 to 21 are compiled on the minimum viable chip by Ecmas and the model's
baseline (AutoBraid for double defect, EDPCI for lattice surgery), averaging
the cycle count over a group of circuits per parallelism value.

The paper uses groups of 50 circuits; the default here uses small groups and
a coarser parallelism grid to keep wall-clock time reasonable — set
``ECMAS_BENCH_FULL=1`` for the full sweep.
"""

from __future__ import annotations

from conftest import full_benchmarks_enabled

from repro.chip import SurfaceCodeModel
from repro.eval import figure11_parallelism, format_sweep

#: The deterministic columns of the tracked table (no wall-clock times).
COLUMNS = ("series", "x", "cycles", "method", "group_size")


def _parameters():
    if full_benchmarks_enabled():
        return tuple(range(1, 22)), 10
    return (1, 3, 5, 9, 13, 17, 21), 2


def _series(points, name):
    return {p.x: p.cycles for p in points if p.series == name}


def test_figure11a_lattice_surgery(benchmark, save_result):
    parallelisms, group_size = _parameters()
    points = benchmark.pedantic(
        lambda: figure11_parallelism(
            SurfaceCodeModel.LATTICE_SURGERY, parallelisms=parallelisms, group_size=group_size
        ),
        rounds=1,
        iterations=1,
    )
    text = format_sweep(
        points, title="Figure 11a — Effect of circuit parallelism (lattice surgery)", columns=COLUMNS
    )
    print("\n" + text)
    save_result("fig11a_lattice_surgery.txt", text)

    baseline = _series(points, "baseline")
    ecmas = _series(points, "ecmas")
    # Paper: Ecmas generally matches or beats EDPCI, particularly for medium
    # parallelism; cycles grow with parallelism for both.
    assert sum(ecmas.values()) <= sum(baseline.values()) * 1.02
    assert ecmas[max(ecmas)] >= ecmas[min(ecmas)]


def test_figure11b_double_defect(benchmark, save_result):
    parallelisms, group_size = _parameters()
    points = benchmark.pedantic(
        lambda: figure11_parallelism(
            SurfaceCodeModel.DOUBLE_DEFECT, parallelisms=parallelisms, group_size=group_size
        ),
        rounds=1,
        iterations=1,
    )
    text = format_sweep(
        points, title="Figure 11b — Effect of circuit parallelism (double defect)", columns=COLUMNS
    )
    print("\n" + text)
    save_result("fig11b_double_defect.txt", text)

    baseline = _series(points, "baseline")
    ecmas = _series(points, "ecmas")
    # Paper: Ecmas reduces AutoBraid's cycles by 43%-63% across the range.
    for parallelism, cycles in ecmas.items():
        assert cycles <= 0.75 * baseline[parallelism]
