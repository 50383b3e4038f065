"""Method registry: evaluation method names → configured pipelines.

Every compile entry point of the repository — the Ecmas configurations of
Table I, the AutoBraid / Braidflash / EDPCI baselines and the ablations of
Tables II–V — is a *pass substitution* over the same standard pipeline, not a
separate code path.  :func:`resolve_method` maps a method name to a
:class:`MethodSpec`; :func:`run_pipeline_method` builds the context, runs the
pipeline and returns a :class:`~repro.pipeline.framework.PipelineResult`.

Method name grammar
-------------------
Plain names (the Table I columns and CLI methods)::

    ecmas  autobraid  braidflash  edpci  edpci_min  edpci_4x
    ecmas_dd_min  ecmas_dd_4x  ecmas_dd_resu
    ecmas_ls_min  ecmas_ls_4x  ecmas_ls_resu

Parameterised ablation names (the Tables II–V columns)::

    location:<trivial|metis|ecmas|spectral|random>
    cut_init:<random|maxcut|bipartite_prefix|uniform>
    gate_order:<circuit_order|criticality|descendants>
    cut_sched:<channel_first|time_first|adaptive>
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.circuits.dag import GateDAG
from repro.core.cut_decisions import never_modify_strategy
from repro.core.ecmas import EcmasOptions
from repro.core.priorities import PriorityKey
from repro.errors import ReproError
from repro.pipeline.framework import Pass, PassContext, Pipeline, PipelineResult
from repro.pipeline.passes import (
    BandwidthAdjustPass,
    BuildChipPass,
    InitCutTypesPass,
    InitialMappingPass,
    ProfileCircuitPass,
    SchedulePass,
    SelectSchedulerPass,
    ValidatePass,
)

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


# ------------------------------------------------------------ gate priorities
def braidflash_priority(dag: GateDAG, node: int) -> tuple:
    """Critical-path gates first, then program order (no descendant tie-break)."""
    return (-dag.criticality(node), node)


def edp_priority_factory(ctx: PassContext) -> PriorityKey:
    """EDPCI gate order: shortest placed tile separation first, then program order."""
    mapping = ctx.require_mapping()
    slot_of = mapping.placement.slot_of
    # Manhattan on square chips (unchanged ordering), BFS hops on graph chips.
    distance = mapping.chip.slot_distance

    def priority(dag: GateDAG, node: int) -> tuple:
        control, target = dag.operands(node)
        return (distance(slot_of(control), slot_of(target)), node)

    return priority


# ----------------------------------------------------------------- MethodSpec
@dataclass(frozen=True)
class MethodSpec:
    """One named compile configuration: a model, defaults, and a pass list."""

    name: str
    model: SurfaceCodeModel
    build_passes: Callable[[], list[Pass]]
    resources: str = "minimum"
    scheduler: str = "auto"
    #: Post-hoc method string (ablations relabel the encoded circuit).
    relabel: str | None = None


def standard_passes(
    *,
    model_pin: SurfaceCodeModel | None = None,
    model_error: str | None = None,
    cut_initialisation: str | None = None,
    placement: str | None = None,
    adjust: bool | None = None,
    scheduler: str | None = None,
    priority: str | PriorityKey | None = None,
    priority_factory: Callable[[PassContext], PriorityKey] | None = None,
    cut_strategy: str | Callable | None = None,
    congestion_weight: float | None = None,
    method_label: str | None = None,
) -> list[Pass]:
    """The standard Ecmas pass sequence with optional substitutions.

    With no arguments this is exactly the paper's pipeline; each keyword
    substitutes one pass with a differently configured instance.
    """
    return [
        ProfileCircuitPass(),
        BuildChipPass(model=model_pin, error=model_error),
        InitCutTypesPass(initialisation=cut_initialisation),
        InitialMappingPass(strategy=placement),
        BandwidthAdjustPass(enabled=adjust),
        SelectSchedulerPass(
            scheduler=scheduler,
            priority=priority,
            priority_factory=priority_factory,
            cut_strategy=cut_strategy,
            congestion_weight=congestion_weight,
            method_label=method_label,
        ),
        SchedulePass(),
        ValidatePass(),
    ]


def _edpci_passes() -> list[Pass]:
    return standard_passes(
        model_pin=LS,
        model_error="EDPCI targets the lattice surgery model",
        placement="trivial",
        adjust=False,
        scheduler="limited",
        priority_factory=edp_priority_factory,
        method_label="edpci",
    )


_REGISTRY: dict[str, MethodSpec] = {}


def register_method(spec: MethodSpec) -> MethodSpec:
    """Add a method to the registry (last registration wins)."""
    _REGISTRY[spec.name] = spec
    return spec


def registered_methods() -> tuple[str, ...]:
    """All plain (non-parameterised) method names, sorted."""
    return tuple(sorted(_REGISTRY))


def ablation_families() -> tuple[str, ...]:
    """The parameterised method families (``location``, ``cut_init``, …), sorted."""
    return tuple(sorted(_ABLATIONS))


def method_catalog() -> dict:
    """A JSON-able catalogue of every compile configuration this build knows.

    Served by the compile daemon (``GET /stats``) and embedded in the docs
    site's API reference, so clients can discover valid ``method`` values
    without parsing error messages.  Plain methods list their registered
    model / resource / scheduler configuration; ablation families list the
    name grammar (``<family>:<value>``).
    """
    return {
        "methods": {
            name: {
                "model": spec.model.value,
                "resources": spec.resources,
                "scheduler": spec.scheduler,
            }
            for name, spec in sorted(_REGISTRY.items())
        },
        "ablation_families": [f"{family}:<value>" for family in ablation_families()],
    }


register_method(MethodSpec("ecmas", DD, standard_passes))
for _name, _model, _resources, _scheduler in (
    ("ecmas_dd_min", DD, "minimum", "limited"),
    ("ecmas_dd_4x", DD, "4x", "limited"),
    ("ecmas_dd_resu", DD, "sufficient", "resu"),
    ("ecmas_ls_min", LS, "minimum", "limited"),
    ("ecmas_ls_4x", LS, "4x", "limited"),
    ("ecmas_ls_resu", LS, "sufficient", "resu"),
):
    register_method(
        MethodSpec(_name, _model, standard_passes, resources=_resources, scheduler=_scheduler)
    )

register_method(
    MethodSpec(
        "autobraid",
        DD,
        lambda: standard_passes(
            model_pin=DD,
            model_error="AutoBraid targets the double defect model",
            cut_initialisation="uniform",
            placement="trivial",
            adjust=False,
            scheduler="limited",
            priority="criticality",
            cut_strategy=never_modify_strategy,
            method_label="autobraid",
        ),
    )
)
register_method(
    MethodSpec(
        "braidflash",
        DD,
        lambda: standard_passes(
            model_pin=DD,
            model_error="Braidflash targets the double defect model",
            cut_initialisation="uniform",
            placement="trivial",
            adjust=False,
            scheduler="limited",
            priority=braidflash_priority,
            cut_strategy=never_modify_strategy,
            congestion_weight=0.0,
            method_label="braidflash",
        ),
    )
)
register_method(MethodSpec("edpci", LS, _edpci_passes))
register_method(MethodSpec("edpci_min", LS, _edpci_passes, resources="minimum"))
register_method(MethodSpec("edpci_4x", LS, _edpci_passes, resources="4x"))


#: Ablation families: parameter name → (model, pass-substitution factory).
_ABLATIONS: dict[str, Callable[[str], MethodSpec]] = {
    "location": lambda value: MethodSpec(
        f"location:{value}",
        DD,
        lambda: standard_passes(placement=value),
        scheduler="limited",
        relabel=f"ecmas-dd/location={value}",
    ),
    "cut_init": lambda value: MethodSpec(
        f"cut_init:{value}",
        DD,
        lambda: standard_passes(cut_initialisation=value),
        scheduler="limited",
        relabel=f"ecmas-dd/cut_init={value}",
    ),
    "gate_order": lambda value: MethodSpec(
        f"gate_order:{value}",
        LS,
        lambda: standard_passes(priority=value),
        scheduler="limited",
        relabel=f"ecmas-ls/priority={value}",
    ),
    "cut_sched": lambda value: MethodSpec(
        f"cut_sched:{value}",
        DD,
        lambda: standard_passes(cut_strategy=value),
        scheduler="limited",
        relabel=f"ecmas-dd/cut_sched={value}",
    ),
}


def resolve_method(method: str) -> MethodSpec:
    """Look up a plain or parameterised method name."""
    spec = _REGISTRY.get(method)
    if spec is not None:
        return spec
    if ":" in method:
        family, _, value = method.partition(":")
        factory = _ABLATIONS.get(family)
        if factory is not None and value:
            return factory(value)
    raise ReproError(
        f"unknown evaluation method {method!r}; known methods: {', '.join(registered_methods())} "
        f"and the ablation families {', '.join(sorted(_ABLATIONS))}:<value>"
    )


def validate_methods(methods: Sequence[str]) -> None:
    """Resolve every method name up front, naming all unknown ones at once.

    The batch CLI calls this before spinning up a worker pool, so one typo in
    a method list fails fast with the full catalogue instead of surfacing as
    a per-job :class:`~repro.pipeline.batch.BatchFailure` after the fan-out.
    """
    unknown = []
    for method in methods:
        try:
            resolve_method(method)
        except ReproError:
            unknown.append(method)
    if unknown:
        raise ReproError(
            f"unknown evaluation method(s): {', '.join(unknown)}; known methods: "
            f"{', '.join(registered_methods())} and the ablation families "
            f"{', '.join(sorted(_ABLATIONS))}:<value>"
        )


def build_pipeline(method: str = "ecmas") -> Pipeline:
    """Construct the pipeline for a method name."""
    spec = resolve_method(method)
    return Pipeline(spec.build_passes(), name=spec.name)


def run_pipeline_method(
    circuit: Circuit,
    method: str,
    *,
    model: SurfaceCodeModel | None = None,
    chip: Chip | None = None,
    resources: str | None = None,
    scheduler: str | None = None,
    code_distance: int = 3,
    options: EcmasOptions | None = None,
    validate: bool = False,
    placement: str = "reference",
    window: int | None = None,
    defects: DefectSpec | None = None,
    defect_rate: float = 0.0,
    defect_seed: int = 0,
) -> PipelineResult:
    """Compile ``circuit`` with a named method and return the full result.

    ``model`` / ``resources`` / ``scheduler`` default to the method's
    registered configuration; an explicit ``chip`` overrides ``resources``
    entirely (as in :func:`repro.compile_circuit`).  ``placement`` selects
    the bisection core behind the placement strategies (``"reference"``
    classic KL / ``"fast"`` multilevel coarsen+FM); the fast core may place
    qubits differently, within the quality bounds asserted by the
    placement-parity harness.  ``defects`` applies a defect spec to the target chip, whether
    supplied or built for the resource configuration; ``defect_rate``
    additionally degrades that chip with random, connectivity-preserving
    defects (seeded by ``defect_seed``).  ``window`` bounds the schedulers'
    working set to a sliding frontier window for very large circuits
    (schedules may differ but stay validator-clean).
    """
    spec = resolve_method(method)
    ctx = PassContext(
        circuit=circuit,
        model=model if model is not None else spec.model,
        options=options if options is not None else EcmasOptions(),
        code_distance=code_distance,
        chip=chip,
        resources=resources if resources is not None else spec.resources,
        scheduler=scheduler if scheduler is not None else spec.scheduler,
        placement_engine=placement,
        window=window,
        defects=defects,
        defect_rate=defect_rate,
        defect_seed=defect_seed,
        validate=validate,
    )
    result = Pipeline(spec.build_passes(), name=spec.name).run(ctx)
    if spec.relabel is not None:
        result.encoded.method = spec.relabel
    return result
