"""Counter golden: pins every integer work counter of every Table I compile.

Each of the 19 non-large Table I circuits is compiled with each registered
method, and the result's integer engine counters (route calls, search-node
expansions, landmark tables, layer-memo hits and misses, cycles simulated…)
and placement counters (attempts, regions, bisections, KL swaps and passes,
fast-path regions, FM passes, coarsening levels) are compared with
``tests/fixtures/counter_golden.json``.  Time-valued fields such as
``landmark_build_seconds`` are left out, so a change that claims less work
shows it as an exact diff with no timing noise, and a change that moves a
counter it did not mean to move fails here.

The golden is cold: the process's routing-graph store is emptied before each
compile, because ``landmark_tables`` and ``static_path_hits`` read the
store's memo of the chip's topology.  One test compiles everything twice in
one process, without emptying the store, and holds the schedules and every
other counter to the cold ones.

Regenerate the fixture (only when a counter change is intended and
explained) with::

    PYTHONPATH=src python tests/test_counter_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.circuits.generators import default_suite
from repro.pipeline.registry import registered_methods, run_pipeline_method
from repro.chip.routing_graph import ROUTING_GRAPHS
from repro.service.schema import schedule_payload

FIXTURE = Path(__file__).parent / "fixtures" / "counter_golden.json"

CIRCUITS = {spec.name: spec for spec in default_suite(include_large=False)}
METHODS = registered_methods()


def _counters(result) -> dict[str, int]:
    counters = {
        f"engine.{key}": value
        for key, value in result.counters.items()
        if isinstance(value, int)
    }
    counters.update(
        (f"placement.{key}", value) for key, value in result.placement_counters.items()
    )
    return counters


def compile_counters(name: str, method: str) -> dict[str, int]:
    """The integer engine and placement counters of one cold compile."""
    ROUTING_GRAPHS.clear()
    return _counters(run_pipeline_method(CIRCUITS[name].build(), method))


def _key(name: str, method: str) -> str:
    return f"{name}/{method}"


@pytest.fixture(scope="module")
def golden() -> dict[str, dict[str, int]]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_compile(golden):
    assert len(CIRCUITS) == 19
    assert sorted(golden) == sorted(_key(n, m) for n in CIRCUITS for m in METHODS)


@pytest.mark.parametrize("method", METHODS)
def test_counters_match_golden(golden, method):
    changed = {}
    for name in CIRCUITS:
        actual = compile_counters(name, method)
        expected = golden[_key(name, method)]
        if actual != expected:
            changed[name] = {
                key: (expected.get(key), actual.get(key))
                for key in sorted(expected.keys() | actual.keys())
                if expected.get(key) != actual.get(key)
            }
    assert not changed, f"counters changed (golden, actual) for {method}: {changed}"


#: The counters that read the routing-graph store's state (see EngineCounters).
STORE_COUNTERS = {"engine.landmark_tables", "engine.static_path_hits"}


def test_warm_compiles_differ_from_cold_only_in_store_counters(golden):
    """Every compile twice in one process: list order, then reversed.

    Schedules are byte-identical across the two passes, and each compile's
    counters equal the cold golden except the two that read the store.
    """
    jobs = [(name, method) for name in CIRCUITS for method in METHODS]
    ROUTING_GRAPHS.clear()
    schedules = {}
    moved = {}
    for job in jobs + jobs[::-1]:
        result = run_pipeline_method(CIRCUITS[job[0]].build(), job[1])
        schedule = json.dumps(schedule_payload(result.encoded), sort_keys=True)
        assert schedules.setdefault(job, schedule) == schedule, f"{job} schedule moved"
        counters, expected = _counters(result), golden[_key(*job)]
        differing = {
            key for key in counters.keys() | expected.keys()
            if counters.get(key) != expected.get(key)
        }
        assert differing <= STORE_COUNTERS, f"{job}: {sorted(differing - STORE_COUNTERS)} moved"
        moved.update(dict.fromkeys(differing))
    assert moved.keys() == STORE_COUNTERS  # the store was warm


if __name__ == "__main__":
    records = {
        _key(name, method): compile_counters(name, method)
        for name in CIRCUITS
        for method in METHODS
    }
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote counters of {len(records)} compiles to {FIXTURE}")
