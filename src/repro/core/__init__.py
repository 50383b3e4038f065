"""Ecmas core: metrics, initial mapping, cut types, schedulers, top-level API."""

from repro.core.cut_types import CutType
from repro.core.ecmas import EcmasOptions, compile_circuit, default_chip, prepare_mapping
from repro.core.mapping import InitialMapping, build_initial_mapping
from repro.core.metrics import (
    ExecutionScheme,
    chip_communication_capacity,
    circuit_parallelism_degree,
    has_sufficient_resources,
    para_finding,
)
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.core.scheduler_ls import LatticeSurgeryScheduler
from repro.core.resu import schedule_resu_double_defect, schedule_resu_lattice_surgery

__all__ = [
    "compile_circuit",
    "default_chip",
    "prepare_mapping",
    "EcmasOptions",
    "CutType",
    "EncodedCircuit",
    "ScheduledOperation",
    "OperationKind",
    "InitialMapping",
    "build_initial_mapping",
    "ExecutionScheme",
    "para_finding",
    "circuit_parallelism_degree",
    "chip_communication_capacity",
    "has_sufficient_resources",
    "DoubleDefectScheduler",
    "LatticeSurgeryScheduler",
    "schedule_resu_double_defect",
    "schedule_resu_lattice_surgery",
]
