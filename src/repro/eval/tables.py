"""Builders for the paper's evaluation tables (Table I–V).

Every function returns a list of row dictionaries (one per benchmark circuit)
containing the measured cycle counts for each method column, alongside the
paper-reported values where available.  :mod:`repro.eval.report` renders them
as text tables, and the benchmark harness under ``benchmarks/`` regenerates
them under pytest-benchmark.

All tables run through the batch engine (:mod:`repro.pipeline.batch`): pass
``jobs=N`` to fan the per-cell compilations across ``N`` worker processes and
``cache=`` a directory / :class:`~repro.pipeline.batch.ResultCache` to make
warm reruns free.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from pathlib import Path

from repro.circuits.generators import BenchmarkSpec, default_suite, sensitivity_suite
from repro.pipeline.batch import BatchJob, BatchProgress, ResultCache, run_batch

#: The method columns of Table I, in the paper's order.
TABLE1_METHODS: tuple[str, ...] = (
    "autobraid",
    "ecmas_dd_min",
    "ecmas_dd_resu",
    "edpci_min",
    "edpci_4x",
    "ecmas_ls_min",
    "ecmas_ls_4x",
)

#: Ablation method names backing each column of Tables II–V.
TABLE2_COLUMNS: dict[str, str] = {
    "trivial": "location:trivial",
    "metis": "location:metis",
    "ours": "location:ecmas",
}
TABLE3_COLUMNS: dict[str, str] = {
    "random": "cut_init:random",
    "maxcut": "cut_init:maxcut",
    "ours": "cut_init:bipartite_prefix",
}
TABLE4_COLUMNS: dict[str, str] = {
    "circuit_order": "gate_order:circuit_order",
    "ours": "gate_order:criticality",
}
TABLE5_COLUMNS: dict[str, str] = {
    "channel_first": "cut_sched:channel_first",
    "time_first": "cut_sched:time_first",
    "ours": "cut_sched:adaptive",
}


def _run_grid(
    specs: Sequence[BenchmarkSpec],
    columns: dict[str, str],
    code_distance: int,
    validate: bool,
    jobs: int | None,
    cache: ResultCache | Path | str | None,
    paper_lookup: bool = False,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    """Compile every (circuit, column) cell through the batch engine.

    A cell whose compile failed (see :class:`~repro.pipeline.batch.BatchFailure`)
    renders as ``None`` instead of discarding the rest of the table.
    """
    circuits = [spec.build() for spec in specs]
    batch_jobs: list[BatchJob] = []
    for spec, circuit in zip(specs, circuits):
        for method in columns.values():
            batch_jobs.append(
                BatchJob(
                    circuit=circuit,
                    method=method,
                    circuit_name=spec.name,
                    code_distance=code_distance,
                    paper_cycles=(spec.paper_cycles or {}).get(method) if paper_lookup else None,
                    validate=validate,
                )
            )
    batch = run_batch(batch_jobs, workers=jobs, cache=cache, progress=progress)

    rows: list[dict] = []
    cursor = 0
    for spec, circuit in zip(specs, circuits):
        row: dict = {
            "circuit": spec.name,
            "n": circuit.num_qubits,
            "alpha": circuit.depth(),
            "g": circuit.num_cnots,
        }
        if paper_lookup:
            row["paper_alpha"] = spec.paper_alpha
            row["paper_g"] = spec.paper_g
        for column in columns:
            record = batch.records[cursor]
            cursor += 1
            row[column] = record.cycles if record is not None else None
            if record is not None and record.paper_cycles is not None:
                row[f"paper_{column}"] = record.paper_cycles
        rows.append(row)
    return rows


def table1_overview(
    suite: Sequence[BenchmarkSpec] | None = None,
    methods: Iterable[str] = TABLE1_METHODS,
    include_large: bool = False,
    validate: bool = False,
    code_distance: int = 3,
    jobs: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    """Table I: cycle counts of every method over the benchmark suite."""
    specs = list(suite) if suite is not None else default_suite(include_large=include_large)
    return _run_grid(
        specs,
        {method: method for method in methods},
        code_distance,
        validate,
        jobs,
        cache,
        paper_lookup=True,
        progress=progress,
    )


def _sensitivity_rows(
    columns: dict[str, str],
    suite: Sequence[BenchmarkSpec] | None,
    code_distance: int,
    jobs: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    specs = list(suite) if suite is not None else sensitivity_suite()
    return _run_grid(
        specs, columns, code_distance, False, jobs, cache, progress=progress
    )


def table2_location(
    suite: Sequence[BenchmarkSpec] | None = None,
    code_distance: int = 3,
    jobs: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    """Table II: location-initialisation ablation (Trivial / Metis / Ours)."""
    return _sensitivity_rows(
        TABLE2_COLUMNS, suite, code_distance, jobs, cache, progress=progress
    )


def table3_cut_initialisation(
    suite: Sequence[BenchmarkSpec] | None = None,
    code_distance: int = 3,
    jobs: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    """Table III: cut-type initialisation ablation (Random / Max-cut / Ours)."""
    return _sensitivity_rows(
        TABLE3_COLUMNS, suite, code_distance, jobs, cache, progress=progress
    )


def table4_gate_scheduling(
    suite: Sequence[BenchmarkSpec] | None = None,
    code_distance: int = 3,
    jobs: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    """Table IV: gate-scheduling ablation in the lattice surgery model."""
    return _sensitivity_rows(
        TABLE4_COLUMNS, suite, code_distance, jobs, cache, progress=progress
    )


def table5_cut_scheduling(
    suite: Sequence[BenchmarkSpec] | None = None,
    code_distance: int = 3,
    jobs: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> list[dict]:
    """Table V: cut-type scheduling ablation (Channel-first / Time-first / Ours)."""
    return _sensitivity_rows(
        TABLE5_COLUMNS, suite, code_distance, jobs, cache, progress=progress
    )


def summarise_reduction(rows: list[dict], baseline: str, ours: str) -> dict:
    """Average / maximum relative cycle reduction of ``ours`` vs ``baseline``.

    This is the statistic the paper headlines (e.g. "51.5% on average, 67.3%
    at most" for Ecmas-dd vs AutoBraid).
    """
    reductions = []
    for row in rows:
        base = row.get(baseline)
        new = row.get(ours)
        if not base or new is None:
            continue
        reductions.append(1.0 - new / base)
    if not reductions:
        return {"average": 0.0, "maximum": 0.0, "count": 0}
    return {
        "average": sum(reductions) / len(reductions),
        "maximum": max(reductions),
        "count": len(reductions),
    }
