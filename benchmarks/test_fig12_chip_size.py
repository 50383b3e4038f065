"""Benchmark: regenerate Figure 12 (effect of chip size).

For circuits of parallelism 11 and 21 (49 qubits, depth 50) the chip size is
swept so the corridor bandwidth rises from 1 to 5, reporting the averaged
cycle count for both surface-code models.  The tracked table leaves out the
compile-time columns (``compile_s`` and the compile-time ratio relative to
the smallest chip), which change from run to run.
"""

from __future__ import annotations

from conftest import full_benchmarks_enabled

from repro.chip import SurfaceCodeModel
from repro.eval import figure12_chip_size, format_sweep

#: The deterministic columns of the tracked table.
COLUMNS = ("series", "x", "cycles", "bandwidth", "parallelism")


def _parameters():
    if full_benchmarks_enabled():
        return (11, 21), (1, 2, 3, 4, 5), 5
    return (11, 21), (1, 2, 3), 1


def _run(model):
    parallelisms, bandwidths, group_size = _parameters()
    return figure12_chip_size(
        model, parallelisms=parallelisms, bandwidths=bandwidths, group_size=group_size
    )


def _check_trend(points, series_prefix):
    """Cycles must not increase as the chip grows, for every Ecmas series."""
    by_series: dict[str, list] = {}
    for point in points:
        by_series.setdefault(point.series, []).append(point)
    for series, series_points in by_series.items():
        if not series.startswith(series_prefix):
            continue
        ordered = sorted(series_points, key=lambda p: p.x)
        assert ordered[-1].cycles <= ordered[0].cycles * 1.05, f"{series} got worse on a larger chip"


def test_figure12_double_defect(benchmark, save_result):
    points = benchmark.pedantic(lambda: _run(SurfaceCodeModel.DOUBLE_DEFECT), rounds=1, iterations=1)
    title = "Figure 12 — Effect of chip size (double defect)"
    text = format_sweep(points, title=title, columns=COLUMNS)
    print("\n" + text)
    save_result("fig12_double_defect.txt", text)
    _check_trend(points, "ecmas")


def test_figure12_lattice_surgery(benchmark, save_result):
    points = benchmark.pedantic(lambda: _run(SurfaceCodeModel.LATTICE_SURGERY), rounds=1, iterations=1)
    title = "Figure 12 — Effect of chip size (lattice surgery)"
    text = format_sweep(points, title=title, columns=COLUMNS)
    print("\n" + text)
    save_result("fig12_lattice_surgery.txt", text)
    _check_trend(points, "ecmas")
