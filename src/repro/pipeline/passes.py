"""The concrete passes of the Ecmas compilation pipeline.

Each pass mirrors one stage of the paper's toolflow (Section IV):

* :class:`ProfileCircuitPass` — derive the CNOT DAG and communication graph
  once, from one flat CNOT operand list, so later stages (and the scheduler
  auto-selection) never recompute them.
* :class:`BuildChipPass` — materialise the target chip for the requested
  resource configuration when the caller did not supply one.
* :class:`InitCutTypesPass` — cut-type initialisation (double defect only).
* :class:`InitialMappingPass` — tile-array shape + qubit placement.
* :class:`BandwidthAdjustPass` — corridor bandwidth adjusting; always
  assembles the final :class:`~repro.core.mapping.InitialMapping`.
* :class:`SelectSchedulerPass` — resolve Algorithm 1 vs Ecmas-ReSu, the gate
  priority and the cut-decision strategy.
* :class:`SchedulePass` — run the selected scheduler.
* :class:`ValidatePass` — optionally replay the schedule through the
  validator (not counted as compile time).

Baselines and ablations are these same passes with different constructor
arguments — see :mod:`repro.pipeline.registry`.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.comm_graph import CommunicationGraph
from repro.circuits.dag import GateDAG
from repro.core.cut_decisions import STRATEGIES as CUT_STRATEGIES
from repro.core.cut_types import (
    bipartite_prefix_cut_types,
    maxcut_cut_types,
    random_cut_types,
    uniform_cut_types,
)
from repro.core.ecmas import default_chip
from repro.core.mapping import (
    InitialMapping,
    adjust_bandwidth,
    determine_shape,
    establish_placement,
)
from repro.core.metrics import chip_communication_capacity
from repro.core.priorities import circuit_order_priority, criticality_priority, descendant_priority
from repro.core.resu import schedule_resu_double_defect, schedule_resu_lattice_surgery
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.core.scheduler_ls import LatticeSurgeryScheduler
from repro.errors import SchedulingError
from repro.partition.placement import check_placement_engine, communication_cost
from repro.pipeline.framework import Pass, PassContext
from repro.profiling import EngineCounters, PlacementCounters
from repro.routing.fast_router import DEFAULT_CONGESTION_WEIGHT

PRIORITIES: dict[str, Callable] = {
    "criticality": criticality_priority,
    "circuit_order": circuit_order_priority,
    "descendants": descendant_priority,
}


class ProfileCircuitPass(Pass):
    """Derive the CNOT DAG and communication graph shared by later stages.

    One scan of the circuit yields the CNOTs and their flat
    ``(control, target)`` operand list; the DAG and the communication graph
    are both built from that list, and every later stage reads ``ctx.dag``.
    The Para-Finding scheme is *not* computed here: it is only needed by
    ``scheduler="auto"`` / ``resources="sufficient"`` / Ecmas-ReSu, so it is
    derived lazily via :meth:`PassContext.ensure_scheme`.
    """

    name = "profile"

    def run(self, ctx: PassContext) -> None:
        """Derive the DAG and communication graph into ``ctx``."""
        circuit = ctx.circuit
        cnots = circuit.cnot_gates()
        operands = [gate.qubits for gate in cnots]
        ctx.dag = GateDAG.from_operands(circuit.num_qubits, operands, cnots)
        ctx.comm_graph = CommunicationGraph.from_operands(circuit.num_qubits, operands)
        ctx.artifacts["profile"] = {
            "num_qubits": circuit.num_qubits,
            "num_cnots": len(operands),
        }


class BuildChipPass(Pass):
    """Build the chip for the requested resource configuration.

    A chip supplied by the caller (``ctx.chip``) always wins; ``model`` pins
    the surface-code model a baseline targets and rejects mismatched chips.
    """

    name = "build_chip"

    def __init__(self, model: SurfaceCodeModel | None = None, error: str | None = None):
        self._model = model
        self._error = error

    def run(self, ctx: PassContext) -> None:
        """Materialise (or degrade) the target chip on ``ctx``."""
        if self._model is not None:
            ctx.model = self._model
            if ctx.chip is not None and ctx.chip.model is not self._model:
                raise SchedulingError(self._error or f"chip model must be {self._model.name}")
        if ctx.chip is None:
            parallelism = ctx.ensure_parallelism() if ctx.resources == "sufficient" else None
            ctx.chip = default_chip(
                ctx.circuit,
                ctx.model,
                resources=ctx.resources,
                code_distance=ctx.code_distance,
                parallelism=parallelism,
            )
        if ctx.defects is not None:
            ctx.chip = ctx.chip.with_defects(ctx.defects)
        if ctx.defect_rate:
            from repro.chip.defects import random_defects

            ctx.chip = ctx.chip.with_defects(
                random_defects(
                    ctx.chip,
                    ctx.defect_rate,
                    seed=ctx.defect_seed,
                    min_alive_tiles=ctx.circuit.num_qubits,
                )
            )


class InitCutTypesPass(Pass):
    """Cut-type initialisation for the double defect model.

    ``initialisation`` overrides ``ctx.options.cut_initialisation`` (used by
    the AutoBraid/Braidflash baselines, which are pinned to ``"uniform"``).
    Lattice surgery has no cut types; the pass is a no-op there.
    """

    name = "init_cut_types"

    def __init__(self, initialisation: str | None = None):
        self._initialisation = initialisation

    def run(self, ctx: PassContext) -> None:
        """Assign initial cut types for the double defect model."""
        if ctx.model is not SurfaceCodeModel.DOUBLE_DEFECT:
            ctx.cut_types = None
            return
        name = self._initialisation or ctx.options.cut_initialisation
        circuit, seed = ctx.circuit, ctx.options.seed
        if name == "bipartite_prefix":
            ctx.cut_types = bipartite_prefix_cut_types(ctx.require_dag(), circuit.num_qubits)
        elif name == "random":
            ctx.cut_types = random_cut_types(circuit.num_qubits, seed=seed)
        elif name == "maxcut":
            ctx.cut_types = maxcut_cut_types(ctx.require_comm_graph(), seed=seed)
        elif name == "uniform":
            ctx.cut_types = uniform_cut_types(circuit.num_qubits)
        else:
            raise SchedulingError(f"unknown cut initialisation {name!r}")


class InitialMappingPass(Pass):
    """Shape determining + qubit placement (pre-processing steps 1 and 2).

    Stores the placement's :class:`~repro.profiling.PlacementCounters` in
    ``ctx.artifacts["placement_counters"]``.
    """

    name = "initial_mapping"

    def __init__(self, strategy: str | None = None, attempts: int | None = None):
        self._strategy = strategy
        self._attempts = attempts

    def run(self, ctx: PassContext) -> None:
        """Determine the tile-array shape and place the qubits."""
        chip = ctx.require_chip()
        graph = ctx.require_comm_graph()
        strategy = self._strategy or ctx.options.placement_strategy
        attempts = self._attempts if self._attempts is not None else ctx.options.placement_attempts
        ctx.shape = determine_shape(ctx.circuit.num_qubits, chip)
        counters = PlacementCounters()
        ctx.placement = establish_placement(
            graph,
            ctx.shape,
            strategy=strategy,
            attempts=attempts,
            seed=ctx.options.seed,
            dead=chip.defects.dead_set(),
            placement_engine=check_placement_engine(ctx.placement_engine),
            chip=chip,
            counters=counters,
        )
        ctx.artifacts["placement_counters"] = counters.as_dict()
        ctx.placement.validate(chip)
        # slot_distance is Manhattan on square chips (bit-identical costs)
        # and BFS hop distance on graph chips.
        ctx.mapping_cost = communication_cost(graph, ctx.placement, distance=chip.slot_distance)


class BandwidthAdjustPass(Pass):
    """Bandwidth adjusting (pre-processing step 3) + mapping assembly.

    ``enabled`` overrides ``ctx.options.adjust_bandwidth`` (baselines pin it
    to ``False``).  The final :class:`InitialMapping` is always assembled
    here, so this pass must run even when adjusting is disabled.
    """

    name = "bandwidth_adjust"

    def __init__(self, enabled: bool | None = None):
        self._enabled = enabled

    def run(self, ctx: PassContext) -> None:
        """Redistribute corridor lanes and assemble the mapping."""
        chip = ctx.require_chip()
        if ctx.placement is None or ctx.shape is None or ctx.mapping_cost is None:
            raise SchedulingError("no placement in context — run InitialMapping first")
        enabled = self._enabled if self._enabled is not None else ctx.options.adjust_bandwidth
        if enabled:
            chip = adjust_bandwidth(chip, ctx.placement, ctx.require_comm_graph())
            ctx.chip = chip
        ctx.mapping = InitialMapping(
            chip=chip,
            placement=ctx.placement,
            cut_types=ctx.cut_types,
            shape=ctx.shape,
            mapping_cost=ctx.mapping_cost,
        )


class SelectSchedulerPass(Pass):
    """Resolve the scheduler and its strategy functions.

    Parameters
    ----------
    scheduler:
        Overrides ``ctx.scheduler`` (``"auto"`` / ``"limited"`` / ``"resu"``).
    priority:
        A priority name (looked up in :data:`PRIORITIES`) or a priority
        function; defaults to ``ctx.options.priority``.
    priority_factory:
        A callable ``(ctx) -> priority_fn`` for priorities that depend on
        earlier artifacts (EDPCI orders gates by placed tile separation).
    cut_strategy:
        A cut-decision strategy name or function; defaults to
        ``ctx.options.cut_strategy``.
    congestion_weight:
        Router congestion weight; baselines with plain routers pass ``0.0``.
    method_label:
        Method string stamped on the encoded circuit (``None`` keeps the
        scheduler's default, e.g. ``"ecmas-dd"``).
    """

    name = "select_scheduler"

    def __init__(
        self,
        scheduler: str | None = None,
        priority: str | Callable | None = None,
        priority_factory: Callable[[PassContext], Callable] | None = None,
        cut_strategy: str | Callable | None = None,
        congestion_weight: float | None = None,
        method_label: str | None = None,
    ):
        self._scheduler = scheduler
        self._priority = priority
        self._priority_factory = priority_factory
        self._cut_strategy = cut_strategy
        self._congestion_weight = congestion_weight
        self._method_label = method_label

    def run(self, ctx: PassContext) -> None:
        """Resolve the scheduler choice and strategy functions onto ``ctx``."""
        scheduler = self._scheduler or ctx.scheduler
        if scheduler == "auto":
            parallelism = ctx.ensure_parallelism()
            ctx.use_resu = chip_communication_capacity(ctx.require_mapping().chip) >= parallelism
        elif scheduler == "resu":
            ctx.use_resu = True
        elif scheduler == "limited":
            ctx.use_resu = False
        else:
            raise SchedulingError(f"unknown scheduler {scheduler!r}")

        if self._priority_factory is not None:
            ctx.priority_fn = self._priority_factory(ctx)
        else:
            priority = self._priority or ctx.options.priority
            if callable(priority):
                ctx.priority_fn = priority
            else:
                try:
                    ctx.priority_fn = PRIORITIES[priority]
                except KeyError:
                    raise SchedulingError(f"unknown priority {priority!r}") from None

        cut_strategy = self._cut_strategy or ctx.options.cut_strategy
        if callable(cut_strategy):
            ctx.cut_strategy_fn = cut_strategy
        else:
            try:
                ctx.cut_strategy_fn = CUT_STRATEGIES[cut_strategy]
            except KeyError:
                raise SchedulingError(f"unknown cut decision strategy {cut_strategy!r}") from None

        ctx.congestion_weight = (
            self._congestion_weight
            if self._congestion_weight is not None
            else DEFAULT_CONGESTION_WEIGHT
        )
        ctx.method_label = self._method_label


class SchedulePass(Pass):
    """Run the selected scheduler and store the encoded circuit."""

    name = "schedule"

    def run(self, ctx: PassContext) -> None:
        """Run the selected scheduler; stores ``ctx.encoded`` (and counters)."""
        mapping = ctx.require_mapping()
        if ctx.use_resu is None or ctx.priority_fn is None or ctx.cut_strategy_fn is None:
            raise SchedulingError("scheduler not selected — run SelectScheduler first")
        circuit, label = ctx.circuit, ctx.method_label
        labelled = {"method": label} if label else {}
        double_defect = ctx.model is SurfaceCodeModel.DOUBLE_DEFECT
        if ctx.use_resu:
            # Ecmas-ReSu routes the pipeline's own DAG and Para-Finding scheme.
            counters = EngineCounters()
            resu = schedule_resu_double_defect if double_defect else schedule_resu_lattice_surgery
            ctx.encoded = resu(
                circuit,
                mapping,
                dag=ctx.require_dag(),
                scheme=ctx.ensure_scheme(),
                counters=counters,
                **labelled,
            )
        else:
            common = dict(
                priority=ctx.priority_fn,
                congestion_weight=ctx.congestion_weight,
                dag=ctx.dag,
                window=ctx.window,
                **labelled,
            )
            scheduler: DoubleDefectScheduler | LatticeSurgeryScheduler
            if double_defect:
                scheduler = DoubleDefectScheduler(
                    circuit, mapping, cut_strategy=ctx.cut_strategy_fn, **common
                )
            else:
                scheduler = LatticeSurgeryScheduler(circuit, mapping, **common)
            ctx.encoded = scheduler.run()
            counters = scheduler.counters
        ctx.artifacts["engine_counters"] = counters.as_dict()


class ValidatePass(Pass):
    """Replay the schedule through the validator when ``ctx.validate`` is set.

    Validation is instrumentation, not compilation, so its time never counts
    towards ``compile_seconds``.
    """

    name = "validate"
    counts_as_compile = False

    def run(self, ctx: PassContext) -> None:
        """Replay the schedule through the validator when requested."""
        if not ctx.validate:
            return
        from repro.verify import validate_encoded_circuit

        report = validate_encoded_circuit(ctx.circuit, ctx.require_encoded())
        ctx.artifacts["validation"] = report
        report.raise_if_invalid()
