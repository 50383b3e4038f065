"""Differential harness: every production schedule equals the reference engine's.

Every built-in (non-large) benchmark circuit is compiled for each routed
method of the paper's evaluation — Ecmas-dd, Ecmas-ls, AutoBraid,
Braidflash, Ecmas-ReSu and EDPCI — twice: once on the production path and
once on the test oracle's reference engine (:func:`oracle.reference_engine`:
the ready list recomputed every cycle, every path from the reference
Dijkstra, no layer memo).  The two runs must agree on the *entire* operation
list, not just the cycle count.  The production schedule is additionally
replayed through the validator, so a bug that made both runs identically
wrong about resource constraints would still be caught.

This harness is what licenses every hot-path optimisation: a change that
alters any schedule anywhere in the suite fails here with the exact
(circuit, method) pair.
"""

from __future__ import annotations

import pytest
from oracle import reference_compile

from repro.circuits.generators import default_suite
from repro.pipeline.registry import run_pipeline_method
from repro.verify import validate_encoded_circuit

#: The Algorithm 1 method families of the paper's evaluation.
ALGORITHM1_METHODS = ("ecmas_dd_min", "ecmas_ls_min", "autobraid", "braidflash")

#: Every routed method under differential test: Algorithm 1, Ecmas-ReSu
#: (Algorithm 2) and EDPCI.
METHODS = ALGORITHM1_METHODS + ("ecmas_dd_resu", "edpci_min")

_SUITE = {spec.name: spec for spec in default_suite(include_large=False)}


@pytest.fixture(scope="module")
def circuits():
    """Each benchmark circuit, built once for the whole module."""
    return {name: spec.build() for name, spec in _SUITE.items()}


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", sorted(_SUITE))
def test_engines_schedule_identically(circuits, name, method):
    circuit = circuits[name]
    production = run_pipeline_method(circuit, method)
    reference = reference_compile(circuit, method)

    assert production.encoded.num_cycles == reference.encoded.num_cycles, (
        f"{method} on {name}: production gave {production.encoded.num_cycles} cycles, "
        f"reference engine {reference.encoded.num_cycles}"
    )
    assert production.encoded.operations == reference.encoded.operations, (
        f"{method} on {name}: same cycle count as the reference engine but not the same schedule"
    )

    report = validate_encoded_circuit(circuit, production.encoded)
    assert report.valid, f"{method} on {name}: schedule invalid: {report.errors[:3]}"


@pytest.mark.parametrize("method", ALGORITHM1_METHODS)
def test_fast_engine_reports_landmark_reuse(circuits, method):
    """The production path exercises its hot-path machinery; the oracle does not."""
    result = run_pipeline_method(circuits["qft_n10"], method)
    counters = result.counters
    assert counters is not None
    assert counters["route_calls"] > 0
    assert counters["landmark_tables"] > 0
    reference = reference_compile(circuits["qft_n10"], method)
    # The oracle really ran: no landmark tables, no layer memo.
    assert reference.counters["landmark_tables"] == 0
    assert reference.counters["layer_memo_hits"] == reference.counters["layer_memo_misses"] == 0
    # Goal-directed search must beat exhaustive Dijkstra on explored nodes.
    assert counters["nodes_expanded"] < reference.counters["nodes_expanded"]
