"""Tests for the top-level compile_circuit API."""

import dataclasses

import pytest

from repro import (
    Chip,
    EcmasOptions,
    SurfaceCodeModel,
    chip_communication_capacity,
    circuit_parallelism_degree,
    compile_circuit,
    default_chip,
)
from repro.circuits.generators import standard
from repro.errors import SchedulingError
from repro.verify import validate_encoded_circuit

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def test_default_chip_configurations(ghz8):
    minimum = default_chip(ghz8, DD, "minimum")
    four_x = default_chip(ghz8, DD, "4x")
    sufficient = default_chip(ghz8, DD, "sufficient")
    assert minimum.bandwidth == 1
    assert four_x.side == 2 * minimum.side
    assert chip_communication_capacity(sufficient) >= circuit_parallelism_degree(ghz8)
    with pytest.raises(SchedulingError):
        default_chip(ghz8, DD, "huge")


def test_compile_double_defect_minimum(ghz8):
    encoded = compile_circuit(ghz8, model=DD, resources="minimum", scheduler="limited")
    assert encoded.model is DD
    assert encoded.num_cnots == ghz8.num_cnots
    assert encoded.compile_seconds > 0
    validate_encoded_circuit(ghz8, encoded).raise_if_invalid()


def test_compile_lattice_surgery_minimum(ghz8):
    encoded = compile_circuit(ghz8, model=LS, resources="minimum", scheduler="limited")
    assert encoded.model is LS
    assert encoded.num_cycles == ghz8.depth()


def test_auto_scheduler_picks_resu_on_sufficient_chip(ghz8):
    encoded = compile_circuit(ghz8, model=DD, resources="sufficient", scheduler="auto")
    assert encoded.method.startswith("ecmas-resu")


def test_auto_scheduler_picks_limited_on_minimum_chip():
    circuit = standard.dnn(16, layers=2)  # parallelism 8 > capacity 3
    encoded = compile_circuit(circuit, model=DD, resources="minimum", scheduler="auto")
    assert encoded.method == "ecmas-dd"


def test_explicit_chip_overrides_resources(ghz8):
    chip = Chip.for_bandwidth(DD, 8, 3, 3)
    encoded = compile_circuit(ghz8, model=DD, chip=chip, scheduler="limited")
    assert encoded.chip.bandwidth >= 3


def test_options_control_cut_initialisation(ghz8):
    uniform = compile_circuit(
        ghz8, model=DD, scheduler="limited", options=EcmasOptions(cut_initialisation="uniform")
    )
    prefix = compile_circuit(
        ghz8, model=DD, scheduler="limited", options=EcmasOptions(cut_initialisation="bipartite_prefix")
    )
    # A uniform start forces same-cut handling and can only be slower.
    assert prefix.num_cycles <= uniform.num_cycles


def test_unknown_option_values_raise(ghz8):
    with pytest.raises(SchedulingError):
        compile_circuit(ghz8, model=DD, scheduler="bogus")
    with pytest.raises(SchedulingError):
        compile_circuit(ghz8, model=DD, options=EcmasOptions(priority="bogus"))
    with pytest.raises(SchedulingError):
        compile_circuit(ghz8, model=DD, options=EcmasOptions(cut_initialisation="bogus"))


@pytest.mark.parametrize("field, value", [("seed", True), ("placement_strategy", "spectral")])
def test_options_refuse_assignment_after_construction(field, value):
    options = EcmasOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(options, field, value)
    # The checked way to change a field runs the checks again.
    if field == "seed":
        with pytest.raises(SchedulingError, match="seed must be an integer"):
            dataclasses.replace(options, seed=value)
    else:
        assert dataclasses.replace(options, placement_strategy=value).placement_strategy == value
    assert options == EcmasOptions()


def test_code_distance_does_not_change_cycle_count(ghz8):
    d3 = compile_circuit(ghz8, model=DD, scheduler="limited", code_distance=3)
    d5 = compile_circuit(ghz8, model=DD, scheduler="limited", code_distance=5)
    assert d3.num_cycles == d5.num_cycles


def test_readme_example_runs():
    from repro.circuits.generators import standard as gens

    circuit = gens.qft(8)
    encoded = compile_circuit(circuit, model=DD)
    assert encoded.num_cycles > 0
