"""Tests for the encoded-circuit result types."""

import pytest

from repro.chip import Chip, SurfaceCodeModel
from repro.core.cut_types import CutType
from repro.core.schedule import EncodedCircuit, OperationKind, ScheduledOperation
from repro.errors import SchedulingError
from repro.partition import grid_domain, snake_placement


def _encoded():
    chip = Chip.minimum_viable(SurfaceCodeModel.DOUBLE_DEFECT, 4, 3)
    return EncodedCircuit(
        model=SurfaceCodeModel.DOUBLE_DEFECT,
        chip=chip,
        placement=snake_placement(4, grid_domain(2, 2)),
        initial_cut_types={q: CutType.X for q in range(4)},
    )


def test_operation_validation():
    with pytest.raises(SchedulingError):
        ScheduledOperation(OperationKind.CNOT_BRAID, start_cycle=-1, duration=1, qubits=(0, 1), gate_node=0)
    with pytest.raises(SchedulingError):
        ScheduledOperation(OperationKind.CNOT_BRAID, start_cycle=0, duration=0, qubits=(0, 1), gate_node=0)
    with pytest.raises(SchedulingError):
        ScheduledOperation(OperationKind.CNOT_BRAID, start_cycle=0, duration=1, qubits=(0, 1))


def test_operation_cycle_window():
    op = ScheduledOperation(OperationKind.CUT_MODIFICATION, start_cycle=2, duration=3, qubits=(0,))
    assert op.end_cycle == 5
    assert op.occupies_cycle(2)
    assert op.occupies_cycle(4)
    assert not op.occupies_cycle(5)


def test_encoded_circuit_counters():
    encoded = _encoded()
    assert encoded.num_cycles == 0
    encoded.operations.append(
        ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0)
    )
    encoded.operations.append(
        ScheduledOperation(OperationKind.CUT_MODIFICATION, 1, 3, (2,))
    )
    encoded.operations.append(
        ScheduledOperation(OperationKind.CNOT_SAME_CUT, 4, 3, (2, 3), gate_node=1)
    )
    assert encoded.num_cycles == 7
    assert encoded.num_cnots == 2
    assert encoded.num_cut_modifications == 1
    assert [op.gate_node for op in encoded.cnot_operations()] == [0, 1]
    assert len(encoded.operations_in_cycle(1)) == 1


def test_completion_cycles_and_duplicate_detection():
    encoded = _encoded()
    encoded.operations.append(ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0))
    assert encoded.completion_cycle_by_node() == {0: 1}
    encoded.operations.append(ScheduledOperation(OperationKind.CNOT_BRAID, 2, 1, (0, 1), gate_node=0))
    with pytest.raises(SchedulingError):
        encoded.completion_cycle_by_node()


def test_channel_utilisation_zero_without_paths():
    encoded = _encoded()
    encoded.operations.append(ScheduledOperation(OperationKind.CNOT_BRAID, 0, 1, (0, 1), gate_node=0))
    assert encoded.channel_utilisation() == 0.0
