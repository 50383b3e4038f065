"""Top-level Ecmas API.

:func:`compile_circuit` is the one-call entry point: give it a circuit, a
surface-code model and (optionally) a chip, and it runs the full Ecmas
pipeline — pre-processing (profiling, chip analysis), initial mapping (shape,
placement, bandwidth adjusting, cut-type initialisation) and scheduling
(Algorithm 1 for limited resources or Algorithm 2 / Ecmas-ReSu for sufficient
resources) — returning an :class:`~repro.core.schedule.EncodedCircuit`.

Since the pass-based refactor this function is a thin compatibility wrapper
over :mod:`repro.pipeline`: the stages run as named passes
(``profile → build_chip → init_cut_types → initial_mapping →
bandwidth_adjust → select_scheduler → schedule → validate``) and callers who
want per-stage timings or artifacts should use
:func:`repro.pipeline.run_pipeline_method` directly.

Example
-------
>>> from repro import compile_circuit, SurfaceCodeModel
>>> from repro.circuits.generators import standard
>>> circuit = standard.qft(8)
>>> encoded = compile_circuit(circuit, model=SurfaceCodeModel.DOUBLE_DEFECT)
>>> encoded.num_cycles > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.core.cut_decisions import STRATEGIES as _CUT_STRATEGIES
from repro.core.mapping import PLACEMENT_STRATEGIES, InitialMapping
from repro.core.metrics import circuit_parallelism_degree
from repro.core.schedule import EncodedCircuit
from repro.errors import SchedulingError

#: Default code distance used throughout the evaluation (the cycle counts the
#: paper reports are independent of d, which only scales the wall-clock time).
DEFAULT_CODE_DISTANCE = 3

#: Valid values for each validated :class:`EcmasOptions` field.
VALID_PLACEMENT_STRATEGIES = frozenset(PLACEMENT_STRATEGIES)
VALID_CUT_INITIALISATIONS = frozenset({"bipartite_prefix", "random", "maxcut", "uniform"})
VALID_PRIORITIES = frozenset({"criticality", "circuit_order", "descendants"})
VALID_CUT_STRATEGIES = frozenset(_CUT_STRATEGIES)


@dataclass(frozen=True)
class EcmasOptions:
    """Tuning knobs of the Ecmas pipeline (all default to the paper's choices).

    Every value is validated eagerly: an unknown ``priority`` or
    ``cut_strategy``, or a value of the wrong type, fails at construction
    rather than mid-compile.  The options are frozen, so no assignment can
    skip those checks; derive changed options with :func:`dataclasses.replace`.
    """

    placement_strategy: str = "ecmas"
    placement_attempts: int = 4
    adjust_bandwidth: bool = True
    cut_initialisation: str = "bipartite_prefix"
    cut_strategy: str = "adaptive"
    priority: str = "criticality"
    seed: int = 0

    def __post_init__(self) -> None:
        _check_choice("placement_strategy", self.placement_strategy, VALID_PLACEMENT_STRATEGIES)
        _check_choice("cut_initialisation", self.cut_initialisation, VALID_CUT_INITIALISATIONS)
        _check_choice("cut_strategy", self.cut_strategy, VALID_CUT_STRATEGIES)
        _check_choice("priority", self.priority, VALID_PRIORITIES)
        # bool is an int subclass, but ``True`` is no seed or attempt count.
        for name in ("seed", "placement_attempts"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchedulingError(f"{name} must be an integer, got {value!r}")
        if self.placement_attempts < 1:
            raise SchedulingError(
                f"placement_attempts must be a positive integer, got {self.placement_attempts!r}"
            )
        if not isinstance(self.adjust_bandwidth, bool):
            raise SchedulingError(
                f"adjust_bandwidth must be a boolean, got {self.adjust_bandwidth!r}"
            )
        if self.placement_strategy == "spectral":
            # Spectral placement runs on numpy.  Importing it with the options,
            # before any compile starts, keeps its first import (~150 ms) out
            # of the initial_mapping stage clock, as the spectral passes do.
            import numpy  # noqa: F401

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """The option names, e.g. for CLI flag generation."""
        return tuple(f.name for f in fields(cls))


def _check_choice(field_name: str, value: str, valid: frozenset) -> None:
    if not isinstance(value, str) or value not in valid:
        raise SchedulingError(
            f"unknown {field_name} {value!r}; valid choices: {', '.join(sorted(valid))}"
        )


def default_chip(
    circuit: Circuit,
    model: SurfaceCodeModel,
    resources: str = "minimum",
    code_distance: int = DEFAULT_CODE_DISTANCE,
    parallelism: int | None = None,
) -> Chip:
    """Build the chip for one of the paper's resource configurations.

    ``resources`` is one of ``"minimum"`` (minimum viable chip), ``"4x"``
    (four times the physical qubits) or ``"sufficient"`` (capacity covers the
    circuit parallelism degree, the Ecmas-ReSu setting).  For
    ``"sufficient"``, a precomputed ``parallelism`` skips re-running
    Para-Finding.
    """
    if resources == "minimum":
        return Chip.minimum_viable(model, circuit.num_qubits, code_distance)
    if resources == "4x":
        return Chip.four_x(model, circuit.num_qubits, code_distance)
    if resources == "sufficient":
        if parallelism is None:
            parallelism = circuit_parallelism_degree(circuit)
        return Chip.sufficient(model, circuit.num_qubits, code_distance, max(1, parallelism))
    raise SchedulingError(f"unknown resource configuration {resources!r}")


def prepare_mapping(
    circuit: Circuit,
    chip: Chip,
    model: SurfaceCodeModel,
    options: EcmasOptions | None = None,
) -> InitialMapping:
    """Run only the pre-processing / initial-mapping stage.

    These are the pipeline's profile, cut-type, placement and bandwidth passes.
    """
    from repro.pipeline.framework import PassContext, Pipeline
    from repro.pipeline.passes import (
        BandwidthAdjustPass,
        InitCutTypesPass,
        InitialMappingPass,
        ProfileCircuitPass,
    )

    ctx = PassContext(circuit=circuit, model=model, options=options or EcmasOptions(), chip=chip)
    passes = [ProfileCircuitPass(), InitCutTypesPass(), InitialMappingPass(), BandwidthAdjustPass()]
    Pipeline(passes).run(ctx)
    return ctx.require_mapping()


def compile_circuit(
    circuit: Circuit,
    model: SurfaceCodeModel = SurfaceCodeModel.DOUBLE_DEFECT,
    chip: Chip | None = None,
    resources: str = "minimum",
    scheduler: str = "auto",
    code_distance: int = DEFAULT_CODE_DISTANCE,
    options: EcmasOptions | None = None,
    placement: str = "reference",
    defects: DefectSpec | None = None,
) -> EncodedCircuit:
    """Compile ``circuit`` into a surface-code encoded circuit with Ecmas.

    Parameters
    ----------
    circuit:
        The logical circuit; only its CNOT gates constrain the schedule.
    model:
        Double defect or lattice surgery.
    chip:
        Target chip.  When omitted, the chip for ``resources`` is built.
    resources:
        ``"minimum"``, ``"4x"`` or ``"sufficient"`` — ignored when ``chip`` is
        given explicitly.
    scheduler:
        ``"auto"`` picks Ecmas-ReSu when the chip capacity covers the circuit
        parallelism degree and Algorithm 1 otherwise; ``"limited"`` forces
        Algorithm 1 and ``"resu"`` forces Algorithm 2.
    options:
        Pipeline tuning knobs; defaults reproduce the paper's configuration.
    placement:
        Placement bisection core: ``"reference"`` (classic KL) or ``"fast"``
        (multilevel coarsen/FM — may place differently, quality bounded by
        the parity harness; use for n >= 500 circuits).
    defects:
        Optional :class:`~repro.chip.defects.DefectSpec` applied to the
        target chip (dead tiles, disabled / degraded corridor segments).
    """
    from repro.pipeline.registry import run_pipeline_method

    return run_pipeline_method(
        circuit,
        "ecmas",
        model=model,
        chip=chip,
        resources=resources,
        scheduler=scheduler,
        code_distance=code_distance,
        options=options,
        placement=placement,
        defects=defects,
    ).encoded
