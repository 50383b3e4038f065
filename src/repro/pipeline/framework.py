"""The pass framework: contexts, passes, pipelines and their results.

A :class:`Pipeline` is an ordered list of :class:`Pass` instances that each
transform a shared mutable :class:`PassContext`.  The standard Ecmas flow is
expressed as the pass sequence

``ProfileCircuit → BuildChip → InitCutTypes → InitialMapping →
BandwidthAdjust → SelectScheduler → Schedule → Validate``

and every baseline / ablation is the same sequence with one or two passes
substituted by a differently configured instance (see
:mod:`repro.pipeline.registry`).  Running a pipeline produces a
:class:`PipelineResult` carrying the encoded circuit together with per-stage
wall-clock timings, which is the single source of truth for compile times in
the evaluation harness.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.circuits.comm_graph import CommunicationGraph
from repro.circuits.dag import GateDAG
from repro.core.cut_types import CutAssignment
from repro.core.mapping import InitialMapping
from repro.core.metrics import ExecutionScheme
from repro.core.schedule import EncodedCircuit
from repro.errors import ReproError


class PipelineError(ReproError):
    """A pass was run on a context missing one of its prerequisites."""


@dataclass
class PassContext:
    """Mutable state threaded through the passes of one compilation.

    The first block holds the compilation *request*; the remaining fields are
    artifacts filled in by passes.  Passes read the artifacts of their
    predecessors via the ``require_*`` accessors, which raise
    :class:`PipelineError` with the missing prerequisite's name instead of an
    ``AttributeError`` deep inside a scheduler.
    """

    circuit: Circuit
    model: SurfaceCodeModel
    options: "EcmasOptions"  # noqa: F821 - forward reference, see repro.core.ecmas
    code_distance: int = 3
    chip: Chip | None = None
    resources: str = "minimum"
    scheduler: str = "auto"
    #: Placement bisection core: ``"reference"`` (classic KL, the golden
    #: baseline) or ``"fast"`` (multilevel coarsen/FM gain buckets,
    #: near-linear — for n >= 500 circuits).  The fast core produces
    #: *different* (quality-parity-checked) placements, so the reference core
    #: stays the default everywhere.
    placement_engine: str = "reference"
    #: When set, the Algorithm 1 schedulers bound their working set to a
    #: sliding window of this many ready gates
    #: (:class:`repro.core.incremental.WindowedDagFrontier`).  Windowed
    #: schedules may differ from full-frontier ones but stay validator-clean;
    #: intended for n >= 500 / 10k+ gate circuits.  Ecmas-ReSu ignores it.
    window: int | None = None
    #: Defects applied to the target chip by BuildChip (whether the chip was
    #: supplied by the caller or built for ``resources``).  ``None`` keeps
    #: whatever defects the supplied chip already carries.
    defects: DefectSpec | None = None
    #: When positive, BuildChip additionally degrades the target chip with
    #: random, connectivity-preserving defects at this rate (seeded by
    #: ``defect_seed``), on top of ``defects`` / the chip's own spec.  Living
    #: here rather than in the CLI keeps the degraded chip exactly the one
    #: the pipeline would compile pristine.
    defect_rate: float = 0.0
    defect_seed: int = 0
    validate: bool = False

    # -- artifacts (produced by passes) -----------------------------------
    dag: GateDAG | None = None
    comm_graph: CommunicationGraph | None = None
    scheme: ExecutionScheme | None = None
    cut_types: CutAssignment | None = None
    shape: tuple[int, int] | None = None
    placement: object | None = None
    mapping_cost: float | None = None
    mapping: InitialMapping | None = None
    use_resu: bool | None = None
    priority_fn: Callable | None = None
    cut_strategy_fn: Callable | None = None
    congestion_weight: float | None = None
    method_label: str | None = None
    encoded: EncodedCircuit | None = None
    artifacts: dict = field(default_factory=dict)

    def require_chip(self) -> Chip:
        """The target chip (raises :class:`PipelineError` before BuildChip)."""
        if self.chip is None:
            raise PipelineError("no chip in context — run BuildChip first")
        return self.chip

    def require_dag(self) -> GateDAG:
        """The CNOT DAG (raises :class:`PipelineError` before ProfileCircuit)."""
        if self.dag is None:
            raise PipelineError("no gate DAG in context — run ProfileCircuit first")
        return self.dag

    def ensure_scheme(self) -> ExecutionScheme:
        """The Para-Finding execution scheme, computed lazily and at most once.

        Para-Finding is only needed by the ``"auto"`` scheduler choice, the
        ``"sufficient"`` resource configuration and Ecmas-ReSu (which routes
        the scheme's layers); methods pinned to ``"limited"`` never pay for it.
        """
        if self.scheme is None:
            from repro.core.metrics import para_finding

            self.scheme = para_finding(self.require_dag())
        return self.scheme

    def ensure_parallelism(self) -> int:
        """Circuit parallelism degree ``gPM`` (the scheme's widest layer)."""
        return self.ensure_scheme().parallelism

    def require_comm_graph(self) -> CommunicationGraph:
        """The communication graph (raises :class:`PipelineError` before ProfileCircuit)."""
        if self.comm_graph is None:
            raise PipelineError("no communication graph in context — run ProfileCircuit first")
        return self.comm_graph

    def require_mapping(self) -> InitialMapping:
        """The assembled mapping (raises :class:`PipelineError` before BandwidthAdjust)."""
        if self.mapping is None:
            raise PipelineError("no initial mapping in context — run BandwidthAdjust first")
        return self.mapping

    def require_encoded(self) -> EncodedCircuit:
        """The scheduled circuit (raises :class:`PipelineError` before Schedule)."""
        if self.encoded is None:
            raise PipelineError("no encoded circuit in context — run Schedule first")
        return self.encoded


class Pass:
    """One named stage of a compilation pipeline.

    Subclasses set :attr:`name` and implement :meth:`run`.  Stages whose time
    should not count towards the reported compile time (validation,
    diagnostics) set ``counts_as_compile = False``.
    """

    name: str = "pass"
    counts_as_compile: bool = True

    def run(self, ctx: PassContext) -> None:
        """Transform ``ctx`` in place (implemented by each concrete pass)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock seconds spent in one pass."""

    name: str
    seconds: float
    counts_as_compile: bool = True


@dataclass
class PipelineResult:
    """The outcome of running a pipeline: encoded circuit plus instrumentation."""

    context: PassContext
    timings: tuple[StageTiming, ...]

    @property
    def encoded(self) -> EncodedCircuit:
        """The scheduled circuit (raises if the pipeline had no Schedule pass)."""
        return self.context.require_encoded()

    @property
    def compile_seconds(self) -> float:
        """Total seconds across compile-counted stages — the one true compile time."""
        return sum(t.seconds for t in self.timings if t.counts_as_compile)

    @property
    def total_seconds(self) -> float:
        """Total seconds across all stages, including validation."""
        return sum(t.seconds for t in self.timings)

    def stage_seconds(self, name: str) -> float:
        """Seconds spent in the stage called ``name`` (0.0 when absent)."""
        return sum(t.seconds for t in self.timings if t.name == name)

    @property
    def counters(self) -> dict | None:
        """Scheduler work counters (``None`` before the schedule pass).

        Filled by :class:`~repro.pipeline.passes.SchedulePass` from the
        scheduler's :class:`~repro.profiling.EngineCounters`: route calls,
        search-node expansions, memoized landmark tables, cycles simulated…
        """
        return self.context.artifacts.get("engine_counters")

    @property
    def placement_counters(self) -> dict | None:
        """Placement work counters (``None`` before the initial-mapping pass).

        Filled by :class:`~repro.pipeline.passes.InitialMappingPass` from
        :class:`~repro.profiling.PlacementCounters`: attempts, regions,
        bisections, KL swaps and passes, fast-path regions, FM passes and
        coarsening levels.  Strategies that do not bisect leave them at 0.
        """
        return self.context.artifacts.get("placement_counters")

    def timings_dict(self) -> dict[str, float]:
        """Stage name → seconds, in execution order."""
        out: dict[str, float] = {}
        for t in self.timings:
            out[t.name] = out.get(t.name, 0.0) + t.seconds
        return out


class Pipeline:
    """An ordered, immutable sequence of passes."""

    def __init__(self, passes: Iterable[Pass], name: str = "pipeline"):
        self._passes: tuple[Pass, ...] = tuple(passes)
        self.name = name

    @property
    def passes(self) -> tuple[Pass, ...]:
        """The pass instances, in execution order."""
        return self._passes

    def pass_names(self) -> tuple[str, ...]:
        """The pass names, in execution order."""
        return tuple(p.name for p in self._passes)

    def replace(self, name: str, replacement: Pass) -> "Pipeline":
        """Return a new pipeline with the pass called ``name`` substituted."""
        if name not in self.pass_names():
            raise PipelineError(f"pipeline {self.name!r} has no pass named {name!r}")
        return Pipeline(
            (replacement if p.name == name else p for p in self._passes),
            name=self.name,
        )

    def without(self, *names: str) -> "Pipeline":
        """Return a new pipeline with the named passes removed."""
        return Pipeline((p for p in self._passes if p.name not in names), name=self.name)

    def run(self, ctx: PassContext) -> PipelineResult:
        """Run every pass in order, timing each stage."""
        timings: list[StageTiming] = []
        for stage in self._passes:
            started = time.perf_counter()
            stage.run(ctx)
            timings.append(
                StageTiming(stage.name, time.perf_counter() - started, stage.counts_as_compile)
            )
        result = PipelineResult(context=ctx, timings=tuple(timings))
        if ctx.encoded is not None:
            ctx.encoded.compile_seconds = result.compile_seconds
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Pipeline({self.name!r}, passes={list(self.pass_names())})"
