"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Results
are printed to stdout (run with ``-s`` to see them) and written as text files
under ``benchmarks/results/`` so EXPERIMENTS.md can reference concrete runs.

Environment knobs:

* ``ECMAS_BENCH_FULL=1`` — include the very large Table I circuits
  (``qft_n50``, ``quantum_walk``, ``shor``) and use paper-sized figure groups.
* ``ECMAS_BENCH_JOBS=N`` — fan table regeneration across ``N`` worker
  processes through the batch engine (``0`` = one per CPU; default serial).
* ``ECMAS_BENCH_CACHE=DIR`` — reuse compile results from an on-disk cache
  (off by default: benchmarks measure compilation, so caching would lie).

The tables under ``benchmarks/results/`` are tracked, so they carry only
deterministic columns (cycles, sizes, validity): :func:`save_result` refuses
a table with a wall-clock, memory or timing-ratio column, which would
rewrite a tracked file on every run.  Compile speed is measured by
``perfbench/``.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

import pytest

from repro.pipeline.batch import ResultCache

# The reference-engine oracle lives under tests/ (see tests/oracle).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

RESULTS_DIR = Path(__file__).parent / "results"

#: Column names that hold a wall-clock time, a memory high-water mark or a
#: ratio of times: ``compile_s``, ``wall_ms``, ``peak_rss_mb``,
#: ``compile_time_ratio``, ``dd_speedup`` ...
TIMING_COLUMN = re.compile(r"(_s|_ms|_mb|seconds|_time_ratio|speedup)$|rss|wall")


def table_columns(text: str) -> list[str]:
    """The column names of every table in ``text`` (rendered by ``format_table``)."""
    lines = text.splitlines()
    columns: list[str] = []
    for header, rule in zip(lines, lines[1:]):
        if rule and set(rule) <= {"-", "+"}:
            columns += [name.strip() for name in header.split("|")]
    return columns


def timing_columns(text: str) -> list[str]:
    """The columns of ``text`` whose values change from run to run."""
    return [name for name in table_columns(text) if TIMING_COLUMN.search(name)]


def full_benchmarks_enabled() -> bool:
    """True when the slow, paper-scale configuration was requested."""
    return os.environ.get("ECMAS_BENCH_FULL", "0") == "1"


def bench_jobs() -> int:
    """Worker-process count for batch-engine table regeneration."""
    return int(os.environ.get("ECMAS_BENCH_JOBS", "1"))


def bench_cache() -> ResultCache | None:
    """Result cache for table regeneration, when explicitly requested."""
    directory = os.environ.get("ECMAS_BENCH_CACHE", "")
    return ResultCache(directory) if directory else None


@pytest.fixture(scope="session")
def batch_options() -> dict:
    """``jobs=`` / ``cache=`` keyword arguments for the table builders."""
    return {"jobs": bench_jobs(), "cache": bench_cache()}


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where regenerated tables/figures are written."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write a named text artefact under benchmarks/results/."""

    def _save(name: str, text: str) -> Path:
        timed = timing_columns(text)
        assert not timed, f"{name}: tracked tables must not carry timing columns {timed}"
        path = results_dir / name
        path.write_text(text, encoding="utf-8")
        return path

    return _save
