"""repro — a reproduction of *Ecmas: Efficient Circuit Mapping and Scheduling
for Surface Code* (CGO 2024).

The public API mirrors the paper's toolflow:

* build or load a logical circuit (:mod:`repro.circuits`),
* describe the target chip (:mod:`repro.chip`),
* compile with :func:`repro.compile_circuit` (Ecmas) or one of the baselines
  in :mod:`repro.baselines`,
* validate and analyse the resulting encoded circuit (:mod:`repro.verify`,
  :mod:`repro.eval`).
"""

from repro.chip import (
    Chip,
    DefectSpec,
    SurfaceCodeModel,
    TileGraph,
    TileSlot,
    builtin_tile_graph,
    load_chip_spec,
    random_defects,
    save_chip_spec,
)
from repro.circuits import Circuit, CommunicationGraph, Gate, GateDAG
from repro.core import (
    EcmasOptions,
    EncodedCircuit,
    OperationKind,
    ScheduledOperation,
    chip_communication_capacity,
    circuit_parallelism_degree,
    compile_circuit,
    default_chip,
)
from repro.pipeline import (
    BatchFailure,
    BatchJob,
    BatchProgress,
    BatchResult,
    PassContext,
    Pipeline,
    PipelineResult,
    ResultCache,
    build_pipeline,
    default_cache_dir,
    run_batch,
    run_pipeline_method,
)
from repro.profiling import EngineCounters, PlacementCounters

__version__ = "1.4.0"

__all__ = [
    "__version__",
    "Circuit",
    "Gate",
    "GateDAG",
    "CommunicationGraph",
    "Chip",
    "TileSlot",
    "TileGraph",
    "builtin_tile_graph",
    "SurfaceCodeModel",
    "DefectSpec",
    "random_defects",
    "load_chip_spec",
    "save_chip_spec",
    "compile_circuit",
    "default_chip",
    "EcmasOptions",
    "EncodedCircuit",
    "ScheduledOperation",
    "OperationKind",
    "circuit_parallelism_degree",
    "chip_communication_capacity",
    "Pipeline",
    "PassContext",
    "PipelineResult",
    "build_pipeline",
    "run_pipeline_method",
    "BatchFailure",
    "BatchJob",
    "BatchProgress",
    "BatchResult",
    "ResultCache",
    "default_cache_dir",
    "run_batch",
    "EngineCounters",
    "PlacementCounters",
]
