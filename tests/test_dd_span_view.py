"""The double-defect span view is the fresh three-cycle merge, at every query.

A direct (same-cut) CNOT holds its path for three cycles, so its search runs
against the maximum reservation over the current cycle and the next two.
:class:`~repro.core.scheduler_dd.DoubleDefectScheduler` keeps that maximum as
one view per cycle, built on the cycle's first direct query and raised in
place by every later reservation.  These tests recompute the merge from the
per-cycle usages at every direct query — over Table I × every method that
runs the DD scheduler (baselines and ablations included) and over Hypothesis
circuits — and require the view to equal it, and check that replayed cycles
never build a view.
"""

from __future__ import annotations

import pytest

from repro.circuits.circuit import Circuit
from repro.circuits.generators import default_suite
from repro.core.cut_decisions import DIRECT_SAME_CUT_CYCLES
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.pipeline.registry import registered_methods, resolve_method, run_pipeline_method

CIRCUITS = list(default_suite(include_large=False))

#: The ablations of Tables II–V (and the random and uniform variants), each of
#: which runs the DD scheduler.
ABLATIONS = (
    *(f"location:{s}" for s in ("trivial", "metis", "ecmas", "random")),
    *(f"cut_init:{s}" for s in ("random", "maxcut", "bipartite_prefix", "uniform")),
    *(f"gate_order:{s}" for s in ("circuit_order", "criticality", "descendants")),
    *(f"cut_sched:{s}" for s in ("channel_first", "time_first", "adaptive")),
)

#: The plain methods that run the DD Algorithm 1 scheduler (not ReSu).
DD_METHODS = tuple(
    method
    for method in registered_methods()
    if resolve_method(method).model.name == "DOUBLE_DEFECT"
    and resolve_method(method).scheduler != "resu"
)


def _fresh_merge(scheduler: DoubleDefectScheduler) -> tuple[dict, dict]:
    """The maximum reservation over the direct span's cycles, merged afresh."""
    used: dict[int, int] = {}
    node_used: dict[int, int] = {}
    for at in range(scheduler._cycle, scheduler._cycle + DIRECT_SAME_CUT_CYCLES):
        usage = scheduler._usage_by_cycle.get(at)
        if usage is None:
            continue
        for eid, count in usage.used.items():
            used[eid] = max(used.get(eid, 0), count)
        for node, count in usage.node_used.items():
            node_used[node] = max(node_used.get(node, 0), count)
    return used, node_used


@pytest.fixture()
def checked(monkeypatch):
    """Check every direct query's view against a fresh merge; count the checks."""
    counts = {"direct": 0, "replayed": 0}
    route, replay = DoubleDefectScheduler._route, DoubleDefectScheduler._replay

    def checking_route(self, usage, qubit_a, qubit_b):
        if usage is self._span:
            counts["direct"] += 1
            assert (usage.used, usage.node_used) == _fresh_merge(self)
        return route(self, usage, qubit_a, qubit_b)

    def checking_replay(self, order, actions):
        replay(self, order, actions)
        counts["replayed"] += 1
        assert self._span is None  # a replayed cycle never builds a view

    monkeypatch.setattr(DoubleDefectScheduler, "_route", checking_route)
    monkeypatch.setattr(DoubleDefectScheduler, "_replay", checking_replay)
    return counts


def test_the_dd_methods_are_the_expected_ones():
    assert {"autobraid", "braidflash", "ecmas_dd_min"} <= set(DD_METHODS)


#: Methods whose Table I compiles make no direct query at all: their cut
#: strategy answers every same-cut gate with a cut-type modification.
NO_DIRECT_QUERIES = {
    "ecmas_dd_4x",
    "location:random",
    "gate_order:circuit_order",
    "gate_order:criticality",
    "gate_order:descendants",
    "cut_sched:channel_first",
}


@pytest.mark.parametrize("method", DD_METHODS + ABLATIONS)
def test_span_view_equals_a_fresh_merge_on_table1(method, checked):
    for spec in CIRCUITS:
        run_pipeline_method(spec.build(), method)
    assert (checked["direct"] > 0) is (method not in NO_DIRECT_QUERIES)


def test_autobraid_queries_see_reservations_of_later_cycles(checked, monkeypatch):
    """The view matters: AutoBraid's queries meet spans holding several cycles."""
    multi = []
    route = DoubleDefectScheduler._route

    def recording(self, usage, qubit_a, qubit_b):
        if usage is self._span:
            held = [
                at
                for at in range(self._cycle + 1, self._cycle + DIRECT_SAME_CUT_CYCLES)
                if self._usage_by_cycle.get(at) is not None
                and self._usage_by_cycle[at].used
            ]
            multi.append(bool(held))
        return route(self, usage, qubit_a, qubit_b)

    monkeypatch.setattr(DoubleDefectScheduler, "_route", recording)
    for spec in CIRCUITS:
        run_pipeline_method(spec.build(), "autobraid")
    assert any(multi) and checked["replayed"] > 0


# --------------------------------------------------------------- hypothesis
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


@st.composite
def random_circuits(draw):
    num_qubits = draw(st.integers(min_value=4, max_value=12))
    circuit = Circuit(num_qubits)
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        control = draw(st.integers(0, num_qubits - 1))
        target = draw(st.integers(0, num_qubits - 1))
        if control != target:
            circuit.cx(control, target)
    return circuit


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(random_circuits(), st.sampled_from(["autobraid", "ecmas_dd_min", "cut_sched:time_first"]))
def test_span_view_equals_a_fresh_merge_on_random_circuits(checked, circuit, method):
    run_pipeline_method(circuit, method)
