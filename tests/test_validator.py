"""Tests for the encoded-circuit validator (it must catch broken schedules)."""

import pytest

from repro import Chip, SurfaceCodeModel, compile_circuit
from repro.chip.routing_graph import RoutingGraph, tile_node_for
from repro.circuits import Circuit
from repro.core.cut_types import CutType
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import ValidationError
from repro.partition import grid_domain, snake_placement
from repro.routing import CapacityUsage, FastRouter
from repro.verify import validate_encoded_circuit

DD = SurfaceCodeModel.DOUBLE_DEFECT


def _simple_circuit():
    circuit = Circuit(4)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    return circuit


def _blank_encoded(circuit, cuts=None):
    chip = Chip.minimum_viable(DD, circuit.num_qubits, 3)
    placement = snake_placement(circuit.num_qubits, grid_domain(chip.tile_rows, chip.tile_cols))
    if cuts is None:
        cuts = {q: (CutType.X if q % 2 == 0 else CutType.Z) for q in range(circuit.num_qubits)}
    return EncodedCircuit(model=DD, chip=chip, placement=placement, initial_cut_types=cuts)


def _path_between(encoded, a, b):
    graph = RoutingGraph(encoded.chip)
    return FastRouter(graph).find(
        CapacityUsage(),
        graph.node_id[tile_node_for(encoded.placement.slot_of(a))],
        graph.node_id[tile_node_for(encoded.placement.slot_of(b))],
    ).routed(graph)


def test_valid_schedule_passes():
    circuit = _simple_circuit()
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0, path=_path_between(encoded, 0, 1)),
        ScheduledOperation(OperationKind.CNOT_BRAID, 1, 1, (1, 2), gate_node=1, path=_path_between(encoded, 1, 2)),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert report.valid
    report.raise_if_invalid()


def test_missing_gate_detected():
    circuit = _simple_circuit()
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0, path=_path_between(encoded, 0, 1)),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert not report.valid
    assert any("never scheduled" in error for error in report.errors)
    with pytest.raises(ValidationError):
        report.raise_if_invalid()


def test_duplicate_gate_detected():
    circuit = _simple_circuit()
    encoded = _blank_encoded(circuit)
    op = ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0, path=_path_between(encoded, 0, 1))
    later = ScheduledOperation(OperationKind.CNOT_BRAID, 3, 1, (0, 1), gate_node=0, path=_path_between(encoded, 0, 1))
    second = ScheduledOperation(OperationKind.CNOT_BRAID, 1, 1, (1, 2), gate_node=1, path=_path_between(encoded, 1, 2))
    encoded.operations = [op, later, second]
    report = validate_encoded_circuit(circuit, encoded)
    assert any("scheduled 2 times" in error for error in report.errors)


def test_dependency_violation_detected():
    circuit = _simple_circuit()
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CNOT_BRAID, 1, 1, (0, 1), gate_node=0, path=_path_between(encoded, 0, 1)),
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (1, 2), gate_node=1, path=_path_between(encoded, 1, 2)),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert any("before its" in error for error in report.errors)


def test_tile_double_booking_detected():
    circuit = Circuit(4)
    circuit.cx(0, 1)
    circuit.cx(0, 2)
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0, path=_path_between(encoded, 0, 1)),
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 2), gate_node=1, path=_path_between(encoded, 0, 2)),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert any("overlapping cycles" in error for error in report.errors)


def test_capacity_violation_detected():
    # Route four paths across the same corridor cut in one cycle on a
    # bandwidth-1 chip: the middle corridor cannot carry them all.
    circuit = Circuit(16)
    pairs = [(0, 12), (1, 13), (2, 14), (3, 15)]
    for a, b in pairs:
        circuit.cx(a, b)
    chip = Chip.minimum_viable(DD, 16, 3)
    placement = snake_placement(16, grid_domain(chip.tile_rows, chip.tile_cols))
    encoded = EncodedCircuit(
        model=DD,
        chip=chip,
        placement=placement,
        initial_cut_types={q: (CutType.X if q < 8 else CutType.Z) for q in range(16)},
    )
    graph = RoutingGraph(chip)
    router = FastRouter(graph)
    operations = []
    for node, (a, b) in enumerate(pairs):
        path = router.find(
            CapacityUsage(),
            graph.node_id[tile_node_for(placement.slot_of(a))],
            graph.node_id[tile_node_for(placement.slot_of(b))],
        ).routed(graph)
        operations.append(
            ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (a, b), gate_node=node, path=path)
        )
    encoded.operations = operations
    report = validate_encoded_circuit(circuit, encoded)
    assert any("capacity" in error for error in report.errors)


def test_same_cut_braid_detected():
    circuit = Circuit(4)
    circuit.cx(0, 2)  # qubits 0 and 2 share cut type X in _blank_encoded
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 2), gate_node=0, path=_path_between(encoded, 0, 2)),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert any("identical cut type" in error for error in report.errors)


def test_cut_modification_makes_braid_legal():
    circuit = Circuit(4)
    circuit.cx(0, 2)
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CUT_MODIFICATION, 0, 3, (0,), new_cut=CutType.Z),
        ScheduledOperation(
            OperationKind.CNOT_BRAID, 3, 1, (0, 2), gate_node=0, path=_path_between(encoded, 0, 2)
        ),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert report.valid, report.errors


def test_wrong_path_endpoints_detected():
    circuit = _simple_circuit()
    encoded = _blank_encoded(circuit)
    encoded.operations = [
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0, path=_path_between(encoded, 2, 3)),
        ScheduledOperation(OperationKind.CNOT_BRAID, 1, 1, (1, 2), gate_node=1, path=_path_between(encoded, 1, 2)),
    ]
    report = validate_encoded_circuit(circuit, encoded)
    assert any("instead of the mapped tiles" in error for error in report.errors)


def test_path_through_unknown_junction_reported_not_raised():
    # Regression: the junction-load check looked up every interior node's
    # capacity, so a path through a junction the chip lacks crashed the
    # validator with a KeyError instead of producing a report.
    from dataclasses import replace

    from repro.circuits.generators import standard
    from repro.pipeline.registry import run_pipeline_method
    from repro.routing.paths import RoutedPath

    circuit = standard.qft(4)
    encoded = run_pipeline_method(circuit, "ecmas_ls_min", validate=True).encoded
    index, op = next((i, op) for i, op in enumerate(encoded.operations) if op.path is not None)
    bogus = ("j", 99, 99)
    path = RoutedPath(
        (op.path.source, bogus, op.path.target),
        ((bogus, op.path.source), (bogus, op.path.target)),
    )
    encoded.operations[index] = replace(op, path=path)
    report = validate_encoded_circuit(circuit, encoded)
    assert not report.valid
    assert any(f"non-existent edge {op.path.source}-{bogus}" in e for e in report.errors)
    assert any(f"non-existent edge {bogus}-{op.path.target}" in e for e in report.errors)


def test_real_compilations_validate(ghz8):
    for model in (DD, SurfaceCodeModel.LATTICE_SURGERY):
        encoded = compile_circuit(ghz8, model=model, scheduler="limited")
        report = validate_encoded_circuit(ghz8, encoded)
        assert report.valid
        assert report.num_operations == len(encoded.operations)
