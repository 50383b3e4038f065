"""The profile stage: one flat CNOT operand list, one DAG per compile.

* The operand-list builders (``GateDAG`` edges and sweeps, the bulk
  ``CommunicationGraph``) equal the reference builders of
  :mod:`oracle.dag` field by field, on random circuits that mix CNOT
  spellings with single-qubit gates, barriers and measurements.
* Every registered method builds exactly one ``GateDAG`` per compile (plus
  the validator's own when validating) and runs Para-Finding at most once.
* Every registered method returns engine counters, Ecmas-ReSu included.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import reference_comm_graph, reference_dag_fields

from repro.chip.geometry import SurfaceCodeModel
from repro.circuits import Circuit
from repro.circuits.dag import EXACT_DESCENDANTS_MAX, GateDAG
from repro.circuits.gate import Gate
from repro.circuits.generators.standard import bernstein_vazirani, qft
from repro.core import metrics, resu
from repro.core.ecmas import EcmasOptions
from repro.errors import CircuitError
from repro.pipeline.framework import PassContext
from repro.pipeline.passes import ProfileCircuitPass
from repro.pipeline.registry import registered_methods, run_pipeline_method

GATE_NAMES = ("cx", "cnot", "h", "rz", "barrier", "measure")


def _random_circuit(num_qubits: int, names: list[str], seed: int) -> Circuit:
    rng = random.Random(seed)
    circuit = Circuit(num_qubits, name=f"mixed_{seed}")
    for name in names:
        if name in ("cx", "cnot"):
            circuit.append(Gate(name, tuple(rng.sample(range(num_qubits), 2))))
        elif name == "barrier":
            width = rng.randint(1, num_qubits)
            circuit.append(Gate(name, tuple(sorted(rng.sample(range(num_qubits), width)))))
        elif name == "rz":
            circuit.append(Gate(name, (rng.randrange(num_qubits),), (rng.random(),)))
        else:
            circuit.append(Gate(name, (rng.randrange(num_qubits),)))
    return circuit


@st.composite
def mixed_circuits(draw):
    """A random circuit mixing ``cx``/``cnot`` with non-CNOT gates."""
    # Past 8 qubits, small-int set members collide in the hash table, so the
    # adjacency sets' iteration order depends on their insertion order.
    num_qubits = draw(st.integers(min_value=2, max_value=40))
    names = draw(st.lists(st.sampled_from(GATE_NAMES), max_size=150))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return _random_circuit(num_qubits, names, seed)


def _profile(circuit: Circuit) -> PassContext:
    ctx = PassContext(circuit=circuit, model=SurfaceCodeModel.DOUBLE_DEFECT, options=EcmasOptions())
    ProfileCircuitPass().run(ctx)
    return ctx


def _dag_fields(dag: GateDAG) -> dict[str, list]:
    nodes = range(len(dag))
    return {
        "succ": dag._succ,
        "pred": dag._pred,
        "asap": [dag.asap_level(n) for n in nodes],
        "alap": [dag.alap_level(n) for n in nodes],
        "criticality": [dag.criticality(n) for n in nodes],
        "descendants": [dag.descendant_count(n) for n in nodes],
    }


def _assert_matches_oracle(circuit: Circuit) -> None:
    ctx = _profile(circuit)
    expected = reference_dag_fields(circuit)
    for dag in (ctx.dag, circuit.dag(), GateDAG(circuit.num_qubits, circuit.cnot_gates())):
        assert _dag_fields(dag) == expected
        assert dag.operand_pairs == [g.qubits for g in circuit.gates if g.is_cnot]
    oracle = reference_comm_graph(circuit)
    for graph in (ctx.comm_graph, circuit.communication_graph()):
        # Insertion order of weights and adjacency iteration order both feed
        # placement, so they must match exactly, not only as sets.
        assert list(graph._weights.items()) == list(oracle._weights.items())
        assert [list(adjacent) for adjacent in graph._adjacency] == [
            list(adjacent) for adjacent in oracle._adjacency
        ]
    assert ctx.artifacts["profile"]["num_cnots"] == circuit.num_cnots == len(expected["asap"])


@given(mixed_circuits())
@settings(max_examples=150, deadline=None)
def test_profile_builders_match_oracle(circuit):
    _assert_matches_oracle(circuit)


def test_profile_builders_match_oracle_past_exact_descendant_limit():
    """Over 4096 CNOTs the descendant counts take the per-path-sum branch."""
    names = ["cx", "h", "cnot", "measure"] * 2100 + ["barrier"]
    circuit = _random_circuit(9, names, seed=4)
    assert circuit.num_cnots > EXACT_DESCENDANTS_MAX
    _assert_matches_oracle(circuit)


def test_public_constructor_validates_gates():
    with pytest.raises(CircuitError, match="outside a 2-qubit DAG"):
        GateDAG(2, [Gate("cx", (0, 2))])
    with pytest.raises(CircuitError, match="exactly two qubits"):
        Gate("cx", (0, 1, 2))


# ---------------------------------------------------------- one DAG per compile
@pytest.fixture
def construction_counts(monkeypatch):
    """Counts ``GateDAG`` builds and Para-Finding runs."""
    counts = {"dag": 0, "para_finding": 0}
    build = GateDAG._build
    para_finding = metrics.para_finding

    def counting_build(self, *args):
        counts["dag"] += 1
        return build(self, *args)

    def counting_para_finding(dag):
        counts["para_finding"] += 1
        return para_finding(dag)

    monkeypatch.setattr(GateDAG, "_build", counting_build)
    monkeypatch.setattr(metrics, "para_finding", counting_para_finding)
    monkeypatch.setattr(resu, "para_finding", counting_para_finding)
    return counts


@pytest.mark.parametrize("validate", [False, True])
@pytest.mark.parametrize("method", registered_methods())
def test_one_dag_per_compile(construction_counts, method, validate):
    result = run_pipeline_method(qft(6), method, validate=validate)
    # The validator derives its own DAG: it is the oracle, not a consumer.
    assert construction_counts["dag"] == (2 if validate else 1)
    # Para-Finding runs at most once: only the context's own scheme, which
    # Ecmas-ReSu routes instead of deriving a second one.
    assert construction_counts["para_finding"] == int(result.context.scheme is not None)
    if result.context.use_resu:
        assert construction_counts["para_finding"] == 1


@pytest.mark.parametrize("method", registered_methods())
def test_every_method_returns_counters(method):
    circuit = bernstein_vazirani(10)
    result = run_pipeline_method(circuit, method)
    counters = result.counters
    assert counters is not None
    assert counters["gates_scheduled"] == circuit.num_cnots
    assert counters["route_calls"] >= counters["gates_scheduled"]
    assert counters["route_failures"] >= 0 and counters["nodes_expanded"] >= 0
    if result.context.use_resu:
        assert counters["cycles_simulated"] == result.encoded.num_cycles
    else:
        assert counters["cycles_simulated"] >= result.encoded.num_cycles
