"""Experiment runner: one (circuit, chip, method) → one record.

The evaluation tables and figures are built from :class:`ExperimentRecord`
rows produced by :func:`run_method`.  Method names follow the columns of the
paper's tables and are resolved by :mod:`repro.pipeline.registry`:

``autobraid``, ``braidflash``
    Double defect baselines on the minimum viable chip.
``ecmas_dd_min``, ``ecmas_dd_4x``, ``ecmas_dd_resu``
    Ecmas for double defect on the minimum viable chip, the 4x chip, and the
    sufficient-resources configuration (Ecmas-ReSu).
``edpci_min``, ``edpci_4x``
    EDPCI baseline for lattice surgery on the minimum viable / 4x chip.
``ecmas_ls_min``, ``ecmas_ls_4x``, ``ecmas_ls_resu``
    Ecmas for lattice surgery.
``location:<s>``, ``cut_init:<s>``, ``gate_order:<s>``, ``cut_sched:<s>``
    The ablation columns of Tables II–V.

``compile_seconds`` has a single source of truth: the per-stage timings of
the :class:`~repro.pipeline.framework.PipelineResult` (validation time is
excluded).  The per-stage breakdown is kept in ``record.extra["stages"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.circuits.circuit import Circuit
from repro.core.ecmas import EcmasOptions
from repro.core.schedule import EncodedCircuit
from repro.pipeline.registry import run_pipeline_method


@dataclass
class ExperimentRecord:
    """One measured data point of the evaluation."""

    circuit: str
    method: str
    num_qubits: int
    alpha: int
    num_cnots: int
    cycles: int
    compile_seconds: float
    chip: str
    paper_cycles: int | None = None
    extra: dict = field(default_factory=dict)

    @property
    def relative_to_paper(self) -> float | None:
        """Measured cycles divided by the paper-reported cycles (``None`` if unknown)."""
        if not self.paper_cycles:
            return None
        return self.cycles / self.paper_cycles

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Per-stage compile-time breakdown (empty for legacy records)."""
        return self.extra.get("stages", {})

    def to_dict(self) -> dict:
        """JSON-able representation — the cache's and the HTTP API's wire format.

        The inverse of :meth:`from_dict`; both the batch :class:`ResultCache
        <repro.pipeline.batch.ResultCache>` and the compile service serialise
        records through this single pair, so an entry written by one layer is
        always readable by the other.
        """
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentRecord":
        """Rebuild a record from :meth:`to_dict` output (raises on bad shapes)."""
        if not isinstance(payload, dict):
            raise TypeError(f"record payload must be an object, got {type(payload).__name__}")
        return cls(**payload)


def compile_with_method(
    circuit: Circuit,
    method: str,
    code_distance: int = 3,
    chip: Chip | None = None,
    options: EcmasOptions | None = None,
) -> EncodedCircuit:
    """Compile ``circuit`` with a named method (see module docstring)."""
    return run_pipeline_method(
        circuit, method, chip=chip, code_distance=code_distance, options=options
    ).encoded


def record_from_result(
    result,
    circuit: Circuit,
    method: str,
    circuit_name: str | None = None,
    paper_cycles: int | None = None,
) -> ExperimentRecord:
    """Measure a finished :class:`~repro.pipeline.framework.PipelineResult`.

    The single place a pipeline outcome becomes an :class:`ExperimentRecord`
    — :func:`run_method` (tables, figures, batch engine) and the compile
    service's schedule-inlining path both build their records here, so the
    two layers can never disagree about the record shape.
    """
    encoded = result.encoded
    extra = {"stages": result.timings_dict()}
    if result.counters is not None:
        extra["counters"] = result.counters
    return ExperimentRecord(
        circuit=circuit_name or circuit.name,
        method=method,
        num_qubits=circuit.num_qubits,
        alpha=circuit.depth(),
        num_cnots=circuit.num_cnots,
        cycles=encoded.num_cycles,
        compile_seconds=result.compile_seconds,
        chip=encoded.chip.describe(),
        paper_cycles=paper_cycles,
        extra=extra,
    )


def run_method(
    circuit: Circuit,
    method: str,
    circuit_name: str | None = None,
    code_distance: int = 3,
    chip: Chip | None = None,
    paper_cycles: int | None = None,
    validate: bool = False,
    options: EcmasOptions | None = None,
    placement: str = "reference",
    defects: DefectSpec | None = None,
) -> ExperimentRecord:
    """Compile and measure one data point; optionally validate the schedule."""
    result = run_pipeline_method(
        circuit,
        method,
        chip=chip,
        code_distance=code_distance,
        options=options,
        validate=validate,
        placement=placement,
        defects=defects,
    )
    return record_from_result(
        result, circuit, method, circuit_name=circuit_name, paper_cycles=paper_cycles
    )
