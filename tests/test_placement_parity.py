"""Quality-parity harness for the fast (multilevel) placement engine.

Mirror of ``tests/test_differential_engines.py``, with one deliberate
difference: there is one scheduling engine, held bit-identical to the
reference engine in ``tests/oracle/``, but the fast *placement* engine is
allowed to place qubits differently — multilevel coarsen/FM refinement is
an approximation of exhaustive KL — as long as

* every schedule it leads to is validator-clean, and
* its communication cost ``f = Σ γ_ij · l_ij`` stays within
  :data:`COST_RATIO_BOUND` of the reference placement's on every non-large
  benchmark (measured worst case at the time of writing: 1.05).

The reference core stays the default everywhere; this harness is the
evidence that licenses opting in with ``--placement fast``.
"""

from __future__ import annotations

import pytest

from repro.circuits.generators import default_suite
from repro.pipeline.framework import PassContext
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

#: One method per surface-code model: placement only feeds the mapping stage,
#: so model coverage (not scheduler-variant coverage) is what matters here.
METHODS = ("ecmas_dd_min", "ecmas_ls_min")

#: Maximum fast/reference communication-cost ratio tolerated anywhere in the
#: suite.  Measured worst case is 1.05; the slack absorbs benchmark additions
#: without letting real quality regressions through.
COST_RATIO_BOUND = 1.25

_SUITE = {spec.name: spec for spec in default_suite(include_large=False)}


@pytest.fixture(scope="module")
def circuits():
    """Each benchmark circuit, built once for the whole module."""
    return {name: spec.build() for name, spec in _SUITE.items()}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(_SUITE))
def test_fast_placement_quality_parity(circuits, name, method):
    circuit = circuits[name]
    reference = run_pipeline_method(circuit, method)
    fast = run_pipeline_method(circuit, method, placement="fast")

    assert fast.context.mapping_cost is not None and reference.context.mapping_cost is not None
    bound = COST_RATIO_BOUND * max(reference.context.mapping_cost, 1.0)
    assert fast.context.mapping_cost <= bound, (
        f"{method} on {name}: fast placement cost {fast.context.mapping_cost} "
        f"exceeds {COST_RATIO_BOUND}x the reference cost {reference.context.mapping_cost}"
    )

    report = validate_encoded_circuit(circuit, fast.encoded)
    assert report.valid, f"{method} on {name}: schedule invalid under fast placement: {report.errors[:3]}"


def test_fast_placement_is_deterministic(circuits):
    """Same circuit + seed → bit-identical placement and schedule."""
    circuit = circuits["ising_n50"]
    first = run_pipeline_method(circuit, "ecmas_dd_min", placement="fast")
    second = run_pipeline_method(circuit, "ecmas_dd_min", placement="fast")
    assert first.context.placement.qubit_to_slot == second.context.placement.qubit_to_slot
    assert first.encoded.operations == second.encoded.operations


def test_reference_placement_is_the_default(circuits):
    """Until parity is proven per-release, nothing opts in implicitly."""
    assert PassContext.__dataclass_fields__["placement_engine"].default == "reference"
    circuit = circuits["qft_n10"]
    default = run_pipeline_method(circuit, "ecmas_dd_min")
    explicit = run_pipeline_method(circuit, "ecmas_dd_min", placement="reference")
    assert default.context.placement.qubit_to_slot == explicit.context.placement.qubit_to_slot


def test_unknown_placement_engine_is_rejected(circuits):
    from repro.errors import MappingError

    with pytest.raises(MappingError, match="unknown placement engine"):
        run_pipeline_method(circuits["dnn_n8"], "ecmas_dd_min", placement="metis")
