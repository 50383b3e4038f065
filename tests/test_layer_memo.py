"""Layer-fingerprint memoization is invisible: memoized ≡ unmemoized.

The schedulers cache whole scheduling cycles by their layer fingerprint
(:mod:`repro.core.layer_memo`) and replays them on repeats.  A fingerprint
hit must imply a bit-identical cycle, so the whole feature is only sound if
``memoize=True`` and ``memoize=False`` produce byte-for-byte identical
operation lists.  This file checks exactly that, three ways:

* over benchmark circuits (the repetitive generator circuits the memo was
  built for, plus irregular ones that mostly miss);
* over every memo-safe cut-decision strategy of the DD scheduler (their read
  sets differ — the adaptive strategy adds the successor look-ahead);
* under Hypothesis-generated random circuits, where layer patterns are
  adversarial rather than friendly.

Plus unit checks of the fingerprint components (usage signatures, idle
capping) that the soundness argument leans on.
"""

from __future__ import annotations

import pytest

from repro.chip.chip import Chip
from repro.chip.geometry import SurfaceCodeModel
from repro.circuits.circuit import Circuit
from repro.circuits.generators import standard
from repro.core.cut_decisions import MODIFICATION_CYCLES
from repro.core.cut_types import bipartite_prefix_cut_types
from repro.core.layer_memo import (
    MEMO_SAFE_STRATEGIES,
    DdLayerKey,
    LsLayerKey,
    usage_signature,
)
from repro.core.mapping import build_initial_mapping
from repro.core.scheduler_dd import DoubleDefectScheduler
from repro.core.scheduler_ls import LatticeSurgeryScheduler
from repro.routing.paths import CapacityUsage

DD = SurfaceCodeModel.DOUBLE_DEFECT
LS = SurfaceCodeModel.LATTICE_SURGERY


def _dd_mapping(circuit):
    chip = Chip.minimum_viable(DD, circuit.num_qubits, 3)
    cut_types = bipartite_prefix_cut_types(circuit.dag(), circuit.num_qubits)
    return build_initial_mapping(circuit, chip, cut_types)


def _ls_mapping(circuit):
    chip = Chip.minimum_viable(LS, circuit.num_qubits, 3)
    return build_initial_mapping(circuit, chip, None)


def _dd_schedule(circuit, memoize, cut_strategy=None):
    kwargs = {"cut_strategy": cut_strategy} if cut_strategy is not None else {}
    scheduler = DoubleDefectScheduler(
        circuit, _dd_mapping(circuit), memoize=memoize, **kwargs
    )
    return scheduler.run(), scheduler.counters


def _ls_schedule(circuit, memoize):
    scheduler = LatticeSurgeryScheduler(
        circuit, _ls_mapping(circuit), memoize=memoize
    )
    return scheduler.run(), scheduler.counters


#: Repetitive generator circuits (memo-friendly) and irregular ones (memo-hostile).
_CIRCUITS = {
    "ising_n10": lambda: standard.ising(10, 4),
    "dnn_n8": lambda: standard.dnn(8),
    "qft_n10": lambda: standard.qft(10),
    "ghz_state_n8": lambda: standard.ghz_state(8),
    "square_root_n11": lambda: standard.square_root(11),
}


@pytest.mark.parametrize("name", sorted(_CIRCUITS))
def test_dd_memoized_schedule_is_bit_identical(name):
    circuit = _CIRCUITS[name]()
    memoized, counters = _dd_schedule(circuit, memoize=True)
    plain, _ = _dd_schedule(circuit, memoize=False)
    assert memoized.operations == plain.operations, f"{name}: memoized DD schedule diverged"
    assert memoized.num_cycles == plain.num_cycles
    assert counters.layer_memo_hits + counters.layer_memo_misses > 0


@pytest.mark.parametrize("name", sorted(_CIRCUITS))
def test_ls_memoized_schedule_is_bit_identical(name):
    circuit = _CIRCUITS[name]()
    memoized, counters = _ls_schedule(circuit, memoize=True)
    plain, _ = _ls_schedule(circuit, memoize=False)
    assert memoized.operations == plain.operations, f"{name}: memoized LS schedule diverged"
    assert memoized.num_cycles == plain.num_cycles
    assert counters.layer_memo_hits + counters.layer_memo_misses > 0


@pytest.mark.parametrize("strategy", MEMO_SAFE_STRATEGIES, ids=lambda s: s.__name__)
def test_dd_memo_identical_for_every_safe_strategy(strategy):
    circuit = standard.ising(10, 4)
    memoized, _ = _dd_schedule(circuit, memoize=True, cut_strategy=strategy)
    plain, _ = _dd_schedule(circuit, memoize=False, cut_strategy=strategy)
    assert memoized.operations == plain.operations


def test_repetitive_circuit_actually_hits_the_memo():
    circuit = standard.ising(10, 6)
    _, counters = _dd_schedule(circuit, memoize=True)
    assert counters.layer_memo_hits > 0, "ising layers repeat; the memo must hit"


def test_unsafe_strategy_disables_memoization():
    def custom_strategy(context):  # an unknown read set
        from repro.core.cut_decisions import never_modify_strategy

        return never_modify_strategy(context)

    circuit = standard.ising(8, 3)
    memoized, counters = _dd_schedule(circuit, memoize=True, cut_strategy=custom_strategy)
    plain, _ = _dd_schedule(circuit, memoize=False, cut_strategy=custom_strategy)
    assert counters.layer_memo_hits == 0
    assert counters.layer_memo_misses == 0
    assert memoized.operations == plain.operations


# --------------------------------------------------------------- hypothesis
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def random_circuits(draw):
    num_qubits = draw(st.integers(min_value=4, max_value=9))
    num_gates = draw(st.integers(min_value=1, max_value=30))
    circuit = Circuit(num_qubits)
    for _ in range(num_gates):
        control = draw(st.integers(0, num_qubits - 1))
        target = draw(st.integers(0, num_qubits - 1))
        if control != target:
            circuit.cx(control, target)
    return circuit


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_dd_memo_identical_on_random_circuits(circuit):
    memoized, _ = _dd_schedule(circuit, memoize=True)
    plain, _ = _dd_schedule(circuit, memoize=False)
    assert memoized.operations == plain.operations


@settings(max_examples=40, deadline=None)
@given(random_circuits())
def test_ls_memo_identical_on_random_circuits(circuit):
    memoized, _ = _ls_schedule(circuit, memoize=True)
    plain, _ = _ls_schedule(circuit, memoize=False)
    assert memoized.operations == plain.operations


# ------------------------------------------------------------- fingerprint units
def test_usage_signature_of_empty_usage_is_none():
    assert usage_signature(None) is None
    assert usage_signature(CapacityUsage()) is None


def test_usage_signature_is_content_keyed():
    a = CapacityUsage()
    a.used[(("j", 0, 0), ("j", 0, 1))] = 1
    a.node_used[("j", 0, 1)] = 2
    b = CapacityUsage()
    b.node_used[("j", 0, 1)] = 2
    b.used[(("j", 0, 0), ("j", 0, 1))] = 1
    assert usage_signature(a) == usage_signature(b)
    b.used[(("j", 0, 0), ("j", 0, 1))] = 2
    assert usage_signature(a) != usage_signature(b)


def test_dd_key_caps_idle_beyond_modification_cycles():
    circuit = Circuit(4)
    circuit.cx(0, 1)
    dag = circuit.dag()
    slots = {q: (0, q) for q in range(4)}
    fingerprint = DdLayerKey(dag, slots, span=3, lookahead=False)
    cut = dict(bipartite_prefix_cut_types(dag, 4))
    base = {0: 0, 1: 0, 2: 0, 3: 0}
    key_at_cap = fingerprint.key([0], cut, base, MODIFICATION_CYCLES, {}, None)
    key_beyond = fingerprint.key([0], cut, base, MODIFICATION_CYCLES + 7, {}, None)
    assert key_at_cap == key_beyond


def test_ls_key_is_ordered_operand_slots():
    circuit = Circuit(4)
    circuit.cx(0, 1)
    circuit.cx(2, 3)
    dag = circuit.dag()
    slots = {0: (0, 0), 1: (0, 1), 2: (1, 0), 3: (1, 1)}
    fingerprint = LsLayerKey(dag, slots)
    assert fingerprint.key([0, 1]) == (((0, 0), (0, 1)), ((1, 0), (1, 1)))
    assert fingerprint.key([1, 0]) == (((1, 0), (1, 1)), ((0, 0), (0, 1)))


def test_memo_cutoff_applies_to_lattice_surgery():
    """LS stops keying once layers rarely repeat, exactly like DD; schedules do not move."""
    from repro.pipeline.registry import run_pipeline_method

    circuit = standard.multiplier(25)
    result = run_pipeline_method(circuit, "ecmas_ls_min")
    counters = result.counters
    lookups = counters["layer_memo_hits"] + counters["layer_memo_misses"]
    assert lookups < counters["cycles_simulated"]
    ctx = result.context
    plain = LatticeSurgeryScheduler(
        circuit, ctx.mapping, priority=ctx.priority_fn, dag=ctx.dag, memoize=False
    ).run()
    assert result.encoded.operations == plain.operations
