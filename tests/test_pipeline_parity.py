"""Golden parity: the pass pipeline reproduces the seed implementation exactly.

The seed built every method as a hand-wired call sequence over the core
building blocks (``default_chip`` → cut types → ``build_initial_mapping`` →
scheduler).  Those building blocks are unchanged; this module re-creates the
seed call sequences literally and asserts the pipeline produces identical
cycle counts for every Table I method over the full (non-large) Table I
suite.
"""

from __future__ import annotations

import pytest

from repro.chip.chip import Chip
from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.generators import default_suite
from repro.core.cut_decisions import adaptive_strategy, never_modify_strategy
from repro.core.cut_types import bipartite_prefix_cut_types, uniform_cut_types
from repro.core.ecmas import default_chip
from repro.core.mapping import build_initial_mapping
from repro.core.priorities import criticality_priority
from repro.core.resu import schedule_resu_double_defect, schedule_resu_lattice_surgery
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.core.scheduler_ls import LatticeSurgeryScheduler
from repro.eval import TABLE1_METHODS, run_method

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


# --------------------------------------------------------------- seed replicas
def _seed_ecmas(circuit, model, resources, scheduler, code_distance=3):
    """The seed's ``compile_circuit`` body, verbatim (paper-default options)."""
    chip = default_chip(circuit, model, resources=resources, code_distance=code_distance)
    cut_types = (
        bipartite_prefix_cut_types(circuit.dag(), circuit.num_qubits) if model is DD else None
    )
    mapping = build_initial_mapping(
        circuit, chip, cut_types, placement_strategy="ecmas", adjust=True, attempts=4, seed=0
    )
    use_resu = scheduler == "resu"
    if model is DD:
        if use_resu:
            return schedule_resu_double_defect(circuit, mapping)
        return DoubleDefectScheduler(
            circuit, mapping, priority=criticality_priority, cut_strategy=adaptive_strategy
        ).run()
    if use_resu:
        return schedule_resu_lattice_surgery(circuit, mapping)
    return LatticeSurgeryScheduler(circuit, mapping, priority=criticality_priority).run()


def _seed_autobraid(circuit, code_distance=3):
    chip = Chip.minimum_viable(DD, circuit.num_qubits, code_distance)
    mapping = build_initial_mapping(
        circuit,
        chip,
        uniform_cut_types(circuit.num_qubits),
        placement_strategy="trivial",
        adjust=False,
    )
    return DoubleDefectScheduler(
        circuit,
        mapping,
        priority=criticality_priority,
        cut_strategy=never_modify_strategy,
        method="autobraid",
    ).run()


def _seed_edpci(circuit, resources, code_distance=3):
    builder = Chip.minimum_viable if resources == "minimum" else Chip.four_x
    chip = builder(LS, circuit.num_qubits, code_distance)
    mapping = build_initial_mapping(
        circuit, chip, cut_types=None, placement_strategy="trivial", adjust=False
    )
    placement = mapping.placement

    def priority(dag, node):
        gate = dag.gate(node)
        separation = placement.slot_of(gate.control).manhattan_distance(
            placement.slot_of(gate.target)
        )
        return (separation, node)

    return LatticeSurgeryScheduler(circuit, mapping, priority=priority, method="edpci").run()


def _seed_compile(circuit, method):
    if method == "autobraid":
        return _seed_autobraid(circuit)
    if method == "edpci_min":
        return _seed_edpci(circuit, "minimum")
    if method == "edpci_4x":
        return _seed_edpci(circuit, "4x")
    configs = {
        "ecmas_dd_min": (DD, "minimum", "limited"),
        "ecmas_dd_4x": (DD, "4x", "limited"),
        "ecmas_dd_resu": (DD, "sufficient", "resu"),
        "ecmas_ls_min": (LS, "minimum", "limited"),
        "ecmas_ls_4x": (LS, "4x", "limited"),
        "ecmas_ls_resu": (LS, "sufficient", "resu"),
    }
    model, resources, scheduler = configs[method]
    return _seed_ecmas(circuit, model, resources, scheduler)


# -------------------------------------------------------------------- the test
@pytest.mark.parametrize("spec", default_suite(), ids=lambda s: s.name)
def test_pipeline_matches_seed_on_table1_suite(spec):
    circuit = spec.build()
    for method in TABLE1_METHODS:
        seed_encoded = _seed_compile(circuit, method)
        record = run_method(circuit, method, circuit_name=spec.name)
        assert record.cycles == seed_encoded.num_cycles, (
            f"{spec.name}/{method}: pipeline produced {record.cycles} cycles, "
            f"seed implementation produced {seed_encoded.num_cycles}"
        )


def test_pipeline_matches_seed_schedules_exactly(ghz8):
    """Beyond cycle counts: the operation lists are identical on a sample circuit."""
    for method in ("autobraid", "ecmas_dd_min", "ecmas_ls_min", "edpci_min"):
        seed_encoded = _seed_compile(ghz8, method)
        from repro.eval import compile_with_method

        encoded = compile_with_method(ghz8, method)
        assert encoded.operations == seed_encoded.operations, f"schedules differ for {method}"
        assert encoded.initial_cut_types == seed_encoded.initial_cut_types
