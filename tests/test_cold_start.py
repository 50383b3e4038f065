"""Cold start: what ``import repro`` and a plain compile load.

``import repro``, one compile with each Table I method and ``repro compile``
must leave numpy and :mod:`multiprocessing` unimported: numpy is used only
by :func:`~repro.partition.placement.spectral_placement`, and a pool is
opened only by a batch run with more than one worker.  The spectral method
imports numpy when its passes are built, and spectral options when they are
made, so no stage clock counts the import.  A daemon loads at start what its requests run, so no request pays
for an import, while its client (``repro submit``) loads nothing of the
daemon.  The test process has long since imported everything, so every
check runs in a fresh interpreter.  Nothing here is timed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.circuits.generators import standard
from repro.eval.tables import TABLE1_METHODS
from repro.partition.placement import grid_domain, spectral_placement
from repro.pipeline.registry import run_pipeline_method

SRC = Path(repro.__file__).resolve().parents[1]
LAZY = ("numpy", "multiprocessing")


def _run_cold(script: str) -> dict:
    """Run ``script`` in a fresh interpreter and parse the JSON line it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _slots(placement) -> list[list[int]]:
    return sorted([q, s.row, s.col] for q, s in placement.qubit_to_slot.items())


def test_import_and_table1_compiles_load_neither_numpy_nor_multiprocessing():
    loaded = _run_cold(
        f"""
import json, sys
lazy = {LAZY!r}
seen = {{}}
import repro
seen["import repro"] = [m for m in lazy if m in sys.modules]
from repro.circuits.generators import get_benchmark
circuit = get_benchmark("qft_n10").build()
for method in {list(TABLE1_METHODS)!r}:
    repro.run_pipeline_method(circuit, method)
    seen[method] = [m for m in lazy if m in sys.modules]
from repro.cli import main
assert main(["compile", "qft_n10"]) == 0
seen["repro compile"] = [m for m in lazy if m in sys.modules]
print(json.dumps(seen))
"""
    )
    assert len(TABLE1_METHODS) == 7
    assert list(loaded) == ["import repro", *TABLE1_METHODS, "repro compile"]
    assert loaded == dict.fromkeys(loaded, [])


#: What the daemon's request path loads and its client must not.
DAEMON_MODULES = (
    "http.server",
    "repro.circuits.qasm",
    "repro.eval",
    "repro.service.jobs",
    "repro.service.schema",
    "repro.service.server",
    "repro.service.service",
    "repro.service.state",
)


def test_daemon_requests_import_nothing():
    # A daemon loads at start what its requests run: an inline-QASM compile,
    # its direct-mode repeat, a schedule request and a rejected body import
    # no module over HTTP, and numpy stays unloaded.
    loaded = _run_cold(
        f"""
import json, sys, tempfile, threading
from repro.service import ServiceClient, ServiceError, create_server
cache = tempfile.TemporaryDirectory()
server = create_server(port=0, cache=cache.name, quiet=True)
threading.Thread(target=server.serve_forever, daemon=True).start()
client = ServiceClient(port=server.server_address[1])
assert client.healthz()["status"] == "ok"
before = set(sys.modules)
source = 'OPENQASM 2.0;\\ninclude "qelib1.inc";\\nqreg q[3];\\ncx q[0],q[1];\\ncx q[1],q[2];\\n'
outcomes = []
for payload in (
    {{"qasm": source, "method": "ecmas_dd_min", "wait": True}},
    {{"qasm": source, "method": "ecmas_dd_min", "wait": True}},
    {{"circuit": "qft_n10", "method": "autobraid", "include_schedule": True, "wait": True}},
    {{"circuit": "qft_n10", "method": "no_such_method", "wait": True}},
):
    try:
        job = client.compile(**payload)
        outcomes.append([job["status"], job["result"]["cached"]])
    except ServiceError as exc:
        outcomes.append(exc.status)
client.close()
server.shutdown()
server.close()
cache.cleanup()
print(json.dumps({{
    "outcomes": outcomes,
    "imported": sorted(set(sys.modules) - before),
    "lazy": [m for m in {LAZY!r} if m in sys.modules],
}}))
"""
    )
    assert loaded == {
        "outcomes": [["done", False], ["done", True], ["done", False], 400],
        "imported": [],
        "lazy": [],
    }


def test_client_and_submit_load_nothing_of_the_daemon():
    loaded = _run_cold(
        f"""
import json, sys
seen = {{}}
import repro.service.client
seen["import repro.service.client"] = sorted(m for m in {DAEMON_MODULES!r} if m in sys.modules)
from repro.cli import main
assert main(["submit", "qft_n10", "--port", "1"]) == 2  # nothing listens there
seen["repro submit"] = sorted(m for m in {DAEMON_MODULES!r} if m in sys.modules)
print(json.dumps(seen))
"""
    )
    assert loaded == {"import repro.service.client": [], "repro submit": []}


def test_spectral_passes_import_numpy_before_the_stage_clock_starts():
    loaded = _run_cold(
        """
import json, sys
from repro.circuits.generators import standard
from repro.pipeline.passes import InitialMappingPass
from repro.pipeline.registry import run_pipeline_method
seen = []
run = InitialMappingPass.run

def recording_run(self, ctx):
    seen.append("numpy" in sys.modules)
    return run(self, ctx)

InitialMappingPass.run = recording_run
circuit = standard.ising(9)
run_pipeline_method(circuit, "ecmas_dd_min")
run_pipeline_method(circuit, "location:spectral")
print(json.dumps(seen))
"""
    )
    assert loaded == [False, True]


def test_spectral_options_import_numpy_before_the_stage_clock_starts():
    # Any method can place spectrally through its options; the options, not
    # the first initial_mapping stage, import numpy.
    loaded = _run_cold(
        """
import json, sys
from repro.circuits.generators import standard
from repro.core.ecmas import EcmasOptions
from repro.pipeline.passes import InitialMappingPass
from repro.pipeline.registry import run_pipeline_method
seen = []
run = InitialMappingPass.run

def recording_run(self, ctx):
    seen.append("numpy" in sys.modules)
    return run(self, ctx)

InitialMappingPass.run = recording_run
circuit = standard.ising(9)
run_pipeline_method(circuit, "ecmas_dd_min", options=EcmasOptions())
options = EcmasOptions(placement_strategy="spectral")
seen.append("numpy" in sys.modules)
for method in ("ecmas_dd_min", "ecmas_ls_min"):
    run_pipeline_method(circuit, method, options=options)
print(json.dumps(seen))
"""
    )
    assert loaded == [False, True, True, True]


def test_spectral_placement_imports_numpy_on_first_use_and_matches_warm_process():
    cold = _run_cold(
        """
import json, sys
from repro.circuits.generators import standard
from repro.partition.placement import grid_domain, spectral_placement
from repro.pipeline.registry import run_pipeline_method
before = "numpy" in sys.modules
circuit = standard.ising(9)
placement = spectral_placement(circuit.communication_graph(), grid_domain(3, 3))
result = run_pipeline_method(circuit, "location:spectral")
print(json.dumps({
    "numpy_before": before,
    "numpy_after": "numpy" in sys.modules,
    "placement": sorted([q, s.row, s.col] for q, s in placement.qubit_to_slot.items()),
    "compiled_placement": sorted(
        [q, s.row, s.col] for q, s in result.encoded.placement.qubit_to_slot.items()
    ),
    "cycles": result.encoded.num_cycles,
}))
"""
    )
    assert cold.pop("numpy_before") is False
    assert cold.pop("numpy_after") is True
    circuit = standard.ising(9)
    result = run_pipeline_method(circuit, "location:spectral")
    assert cold == {
        "placement": _slots(spectral_placement(circuit.communication_graph(), grid_domain(3, 3))),
        "compiled_placement": _slots(result.encoded.placement),
        "cycles": result.encoded.num_cycles,
    }
