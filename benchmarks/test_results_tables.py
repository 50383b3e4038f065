"""The tracked result tables stay deterministic: no timing columns.

Every table under ``benchmarks/results/`` is written through the
``save_result`` fixture and committed, so a column whose value changes from
run to run (wall-clock seconds, peak RSS, a ratio of times) would rewrite a
tracked file on every test run.
"""

from __future__ import annotations

import pytest
from conftest import RESULTS_DIR, table_columns, timing_columns

from repro.eval import format_table


def test_tracked_tables_have_no_timing_columns():
    tables = sorted(RESULTS_DIR.glob("*.txt"))
    assert tables
    for path in tables:
        text = path.read_text(encoding="utf-8")
        assert table_columns(text), f"{path.name}: no table found"
        assert timing_columns(text) == [], f"{path.name} carries timing columns"


def test_save_result_refuses_timing_columns(save_result):
    text = format_table([{"circuit": "x", "cycles": 3, "compile_s": 0.1}], title="t")
    with pytest.raises(AssertionError, match="compile_s"):
        save_result("never_written.txt", text)
    assert not (RESULTS_DIR / "never_written.txt").exists()


def test_timing_column_detector():
    text = format_table(
        [{"time_first": 1, "dd_overhead": 1.0, "wall_s": 2.0, "peak_rss_mb": 3.0,
          "compile_time_ratio": 1.0, "dd_speedup": 4.0}]
    )
    assert timing_columns(text) == ["wall_s", "peak_rss_mb", "compile_time_ratio", "dd_speedup"]
