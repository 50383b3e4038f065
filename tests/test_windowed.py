"""Windowed scheduling: bounded working set, validator-clean schedules.

:class:`repro.core.incremental.WindowedDagFrontier` caps the scheduler's
visible ready set to a sliding window of gates in program order so n>=500
circuits keep a bounded per-cycle cost.  Windowed schedules are generally
*different* from full-frontier schedules — the contract is not parity but
validity: every gate scheduled exactly once, dependencies and capacities
respected.  This file checks the frontier's own invariants and then the
end-to-end contract for both schedulers and the pipeline seam.
"""

from __future__ import annotations

import pytest

from repro.chip.chip import Chip
from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.circuits.generators import standard
from repro.core.cut_types import bipartite_prefix_cut_types
from repro.core.incremental import WindowedDagFrontier
from repro.core.mapping import build_initial_mapping
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.core.scheduler_ls import LatticeSurgeryScheduler
from repro.errors import SchedulingError
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def _dd_mapping(circuit):
    chip = Chip.minimum_viable(DD, circuit.num_qubits, 3)
    cut_types = bipartite_prefix_cut_types(circuit.dag(), circuit.num_qubits)
    return build_initial_mapping(circuit, chip, cut_types)


def _ls_mapping(circuit):
    chip = Chip.minimum_viable(LS, circuit.num_qubits, 3)
    return build_initial_mapping(circuit, chip, None)


# ------------------------------------------------------------- frontier units
def test_window_below_one_is_rejected():
    circuit = standard.ghz_state(4)
    with pytest.raises(SchedulingError):
        WindowedDagFrontier(circuit.dag(), 0)


def test_visible_ready_set_is_capped_to_the_window():
    # 8 independent CNOTs: the full frontier would expose all of them.
    circuit = Circuit(16)
    for i in range(8):
        circuit.cx(2 * i, 2 * i + 1)
    frontier = WindowedDagFrontier(circuit.dag(), 3)
    assert frontier.ready_nodes() == (0, 1, 2)
    # Hidden-but-DAG-ready nodes surface as the window slides.
    surfaced = frontier.complete(0)
    assert surfaced == (3,)
    assert frontier.ready_nodes() == (1, 2, 3)


def test_smallest_incomplete_node_is_always_visible():
    """The deadlock-freedom invariant: progress is always possible."""
    circuit = standard.qft(6)
    dag = circuit.dag()
    frontier = WindowedDagFrontier(dag, 2)
    completed = 0
    while not frontier.is_done():
        ready = frontier.ready_nodes()
        assert ready, "windowed frontier stalled with gates remaining"
        lowest = min(n for n in range(len(dag)) if not frontier.is_completed(n))
        assert lowest in ready
        frontier.complete(ready[0])
        completed += 1
    assert completed == len(dag)


def test_every_gate_completes_exactly_once_under_any_window():
    circuit = standard.square_root(7)
    dag = circuit.dag()
    for window in (1, 2, 5, len(dag), 10 * len(dag)):
        frontier = WindowedDagFrontier(dag, window)
        seen = []
        while not frontier.is_done():
            node = frontier.ready_nodes()[0]
            frontier.complete(node)
            seen.append(node)
        assert sorted(seen) == list(range(len(dag)))
        assert frontier.num_remaining == 0


def test_wide_window_equals_full_frontier_view():
    circuit = standard.dnn(6)
    dag = circuit.dag()
    windowed = WindowedDagFrontier(dag, len(dag) + 50)
    full = dag.frontier()
    assert windowed.ready_nodes() == full.ready_nodes()
    node = full.ready_nodes()[0]
    assert windowed.complete(node) == full.complete(node)
    assert windowed.ready_nodes() == full.ready_nodes()


# -------------------------------------------------------------- end to end
@pytest.mark.parametrize("window", (1, 4, 16))
def test_dd_windowed_schedule_is_valid_and_complete(window):
    circuit = standard.qft(8)
    scheduler = DoubleDefectScheduler(
        circuit, _dd_mapping(circuit), window=window
    )
    encoded = scheduler.run()
    validate_encoded_circuit(circuit, encoded).raise_if_invalid()


@pytest.mark.parametrize("window", (1, 4, 16))
def test_ls_windowed_schedule_is_valid_and_complete(window):
    circuit = standard.qft(8)
    scheduler = LatticeSurgeryScheduler(
        circuit, _ls_mapping(circuit), window=window
    )
    encoded = scheduler.run()
    validate_encoded_circuit(circuit, encoded).raise_if_invalid()


def test_window_wider_than_circuit_matches_full_frontier_schedule():
    circuit = standard.ising(10, 3)
    full = DoubleDefectScheduler(circuit, _dd_mapping(circuit)).run()
    wide = DoubleDefectScheduler(
        circuit, _dd_mapping(circuit), window=10_000
    ).run()
    assert wide.operations == full.operations


@pytest.mark.parametrize("method", ("ecmas_dd_min", "ecmas_ls_min"))
def test_pipeline_window_seam_produces_valid_schedules(method):
    circuit = standard.ising(12, 3)
    result = run_pipeline_method(
        circuit, method, window=8, validate=True
    )
    report = result.context.artifacts["validation"]
    assert report.valid, report.errors[:3]
    assert result.context.window == 8


# --------------------------------------------------------------- hypothesis
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def windowed_cases(draw):
    num_qubits = draw(st.integers(min_value=4, max_value=9))
    num_gates = draw(st.integers(min_value=1, max_value=25))
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        control = draw(st.integers(0, num_qubits - 1))
        target = draw(st.integers(0, num_qubits - 1))
        if control != target:
            circuit.cx(control, target)
    window = draw(st.integers(min_value=1, max_value=num_gates + 4))
    return circuit, window


@settings(max_examples=30, deadline=None)
@given(windowed_cases())
def test_dd_windowed_valid_on_random_circuits(case):
    circuit, window = case
    encoded = DoubleDefectScheduler(
        circuit, _dd_mapping(circuit), window=window
    ).run()
    validate_encoded_circuit(circuit, encoded).raise_if_invalid()


@settings(max_examples=30, deadline=None)
@given(windowed_cases())
def test_ls_windowed_valid_on_random_circuits(case):
    circuit, window = case
    encoded = LatticeSurgeryScheduler(
        circuit, _ls_mapping(circuit), window=window
    ).run()
    validate_encoded_circuit(circuit, encoded).raise_if_invalid()
