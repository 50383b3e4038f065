"""End-to-end and unit tests for the compile daemon (:mod:`repro.service`).

Covers the acceptance criteria of the service PR:

* a served compile is bit-identical to the in-process
  :func:`repro.compile_circuit` path (full operation list compared);
* a second identical request is served from warm state, observable through
  ``/stats`` (result-cache hit + warm-chip hit);
* the warm per-chip LRU evicts least-recently-used chips at capacity;
* malformed requests answer 400 with a schema-error body naming every
  offending field.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import compile_circuit
from repro.chip.chip import Chip
from repro.chip.geometry import SurfaceCodeModel
from repro.chip.spec import chip_to_dict
from repro.circuits.generators import get_benchmark
from repro.service import (
    API_VERSION,
    SchemaError,
    ServiceClient,
    ServiceError,
    WarmStateCache,
    create_server,
    parse_batch_request,
    parse_compile_request,
    schedule_payload,
)
from repro.service.state import chip_state_key

TINY_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
    "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n"
)


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon on an ephemeral port with a fresh result cache."""
    server = create_server(port=0, cache=str(tmp_path / "cache"), quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=server.server_address[1])
    try:
        yield client
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=5)


# ---------------------------------------------------------------- round trip
def test_compile_round_trip_bit_identical_to_compile_circuit(daemon):
    """The daemon's schedule equals the in-process compile, operation for operation."""
    circuit = get_benchmark("dnn_n8").build()
    job = daemon.compile(circuit="dnn_n8", wait=True, include_schedule=True)
    assert job["status"] == "done"
    assert job["api_version"] == API_VERSION

    local = compile_circuit(circuit)
    assert job["result"]["schedule"] == schedule_payload(local)
    assert job["result"]["cycles"] == local.num_cycles


def test_second_identical_request_served_warm(daemon):
    """Acceptance: repeat requests hit the result cache, visible in /stats."""
    first = daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", wait=True)
    assert first["result"]["cached"] is False
    second = daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", wait=True)
    assert second["result"]["cached"] is True

    stats = daemon.stats()
    assert stats["result_cache"]["hits"] == 1
    assert stats["jobs"]["completed"] == 2
    # The cached record must be byte-identical to the fresh one apart from
    # the serving marker.
    fresh = dict(first["result"])
    cached = dict(second["result"])
    fresh.pop("cached"), cached.pop("cached")
    assert fresh == cached


def test_recompiles_reuse_warm_chip_state(daemon):
    """Schedule-inlining requests always compile — through the warm chip LRU."""
    for _ in range(2):
        job = daemon.compile(
            circuit="dnn_n8", method="ecmas_dd_min", wait=True, include_schedule=True,
        )
        assert job["status"] == "done"
    warm = daemon.stats()["warm_state"]
    assert warm["entries"] == 1
    assert warm["hits"] == 1  # second compile found the chip already warm
    assert warm["chips"][0]["landmark_tables"] > 0


def test_mapping_stage_reuses_warm_chip_state(daemon):
    """Regression: corridor_load bypassed routing_for, so the bandwidth-adjust
    step of every /compile built a RoutingGraph from cold even when the chip
    was already warm.  On a 4x chip (spare lanes → corridor_load runs) the
    mapping stage must now acquire through the warm LRU: the first compile
    warms both the pristine and the bandwidth-adjusted chip, and a repeat
    compile does zero cold graph builds in any stage, mapping included."""
    for _ in range(2):
        job = daemon.compile(
            circuit="dnn_n8", method="ecmas_dd_4x", wait=True, include_schedule=True,
        )
        assert job["status"] == "done"
    warm = daemon.stats()["warm_state"]
    # Pristine chip (mapping stage pre-routing) + adjusted chip (scheduler).
    assert warm["entries"] == 2
    assert warm["misses"] == 2  # both builds happened in the *first* compile
    assert warm["hits"] == 2  # the repeat compile was warm in every stage


def test_engine_field_is_an_accepted_no_op(daemon):
    """API v1 still accepts ``engine``; every value compiles to one cached record."""
    first = daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", engine="reference", wait=True)
    second = daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", engine="fast", wait=True)
    third = daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", wait=True)
    assert first["result"]["cached"] is False
    assert second["result"]["cached"] is True and third["result"]["cached"] is True
    records = [dict(job["result"]) for job in (first, second, third)]
    for record in records:
        record.pop("cached")
    assert records[0] == records[1] == records[2]
    assert daemon.stats()["result_cache"]["hits"] == 2

    prints = {
        parse_compile_request({"circuit": "dnn_n8", **extra}).to_job().fingerprint()
        for extra in ({"engine": "reference"}, {"engine": "fast"}, {})
    }
    assert len(prints) == 1


def test_submit_cli_round_trip(daemon, capsys):
    """`repro submit` against a live daemon prints the served record."""
    from repro.cli import main

    host, port = daemon.base_url.replace("http://", "").split(":")
    code = main(
        ["submit", "dnn_n8", "--method", "ecmas_dd_min", "--host", host, "--port", port]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "fresh compile" in out
    circuit = get_benchmark("dnn_n8").build()
    expected = compile_circuit(circuit, scheduler="limited").num_cycles
    assert f"cycles          : {expected}" in out


# --------------------------------------------------------------------- batch
def test_batch_endpoint_matrix_and_cache(daemon):
    job = daemon.batch(circuits=["dnn_n8"], methods=["autobraid", "ecmas_dd_min"], wait=True)
    assert job["status"] == "done"
    result = job["result"]
    assert [r["method"] for r in result["records"]] == ["autobraid", "ecmas_dd_min"]
    assert result["ok"] is True and result["failures"] == []

    rerun = daemon.batch(circuits=["dnn_n8"], methods=["autobraid", "ecmas_dd_min"], wait=True)
    assert rerun["result"]["cache_hits"] == 2


def test_batch_inline_qasm_and_job_polling(daemon):
    job = daemon.batch(
        circuits=[{"name": "tiny", "qasm": TINY_QASM}], methods=["ecmas_dd_min"]
    )
    # Submitted without wait: poll /jobs/<id> to completion.
    assert job["status"] in ("queued", "running", "done")
    final = daemon.wait_for(job["job_id"])
    assert final["status"] == "done"
    assert final["result"]["records"][0]["circuit"] == "tiny"


def test_compile_failure_is_a_failed_job_not_a_dead_daemon(daemon):
    # A 1-tile chip cannot host 8 qubits: the job fails, the daemon survives.
    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 1, 1, bandwidth=1)
    job = daemon.compile(
        circuit="dnn_n8", method="ecmas_dd_min", chip=chip_to_dict(chip), wait=True
    )
    assert job["status"] == "failed"
    assert job["error"]["detail"]
    assert daemon.healthz()["status"] == "ok"


# ------------------------------------------------------------ HTTP semantics
def test_malformed_request_is_400_with_field_errors(daemon):
    with pytest.raises(ServiceError) as excinfo:
        daemon.compile(circuit="dnn_n8", method="no_such_method", engine="warp")
    err = excinfo.value
    assert err.status == 400
    assert err.payload["error"] == "schema_error"
    fields = {e["field"] for e in err.payload["errors"]}
    assert {"method", "engine"} <= fields


def test_malformed_inline_qasm_is_400_naming_the_qasm_field(daemon):
    """A QASM body the front end rejects is the client's error, not a 500."""
    with pytest.raises(ServiceError) as excinfo:
        daemon.compile(qasm='OPENQASM 2.0;\nqreg q[\u00b2];\n', name="bad")
    err = excinfo.value
    assert err.status == 400
    assert err.payload["error"] == "schema_error"
    assert [e["field"] for e in err.payload["errors"]] == ["qasm"]
    assert "(line 2, column 8)" in err.payload["errors"][0]["message"]


def test_unparseable_body_and_unknown_paths(daemon):
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        daemon.base_url + "/compile", data=b"{not json", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    body = json.loads(excinfo.value.read().decode("utf-8"))
    assert body["error"] == "schema_error"

    with pytest.raises(ServiceError) as excinfo:
        daemon.job("definitely-not-a-job")
    assert excinfo.value.status == 404

    with pytest.raises(ServiceError) as excinfo:
        daemon._request("GET", "/compile")
    assert excinfo.value.status == 405


def test_keep_alive_connection_survives_undrained_post(daemon):
    """A POST to a GET-only path must drain its body: the next request on the
    same keep-alive connection has to parse cleanly."""
    import http.client

    host, port = daemon.base_url.replace("http://", "").split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        body = json.dumps({"circuit": "dnn_n8"})
        connection.request(
            "POST", "/healthz", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        assert response.status == 405
        response.read()
        # Same socket: if the body above was left unread this request breaks.
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        connection.close()


def test_stats_disk_scan_is_opt_in(daemon):
    daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", wait=True)
    cheap = daemon.stats()["result_cache"]
    assert "entries" not in cheap and cheap["misses"] == 1
    scanned = daemon._request("GET", "/stats?scan=1")["result_cache"]
    assert scanned["entries"] == 1 and scanned["bytes"] > 0


def test_healthz_and_stats_shape(daemon):
    health = daemon.healthz()
    assert health["status"] == "ok"
    assert health["api_version"] == API_VERSION
    assert health["uptime_seconds"] >= 0

    stats = daemon.stats()
    assert stats["api_version"] == API_VERSION
    assert "ecmas_dd_min" in stats["methods"]["methods"]
    assert stats["warm_state"]["capacity"] >= 1


# ----------------------------------------------------------- schema parsing
def test_parse_compile_request_collects_every_error():
    with pytest.raises(SchemaError) as excinfo:
        parse_compile_request(
            {
                "method": "bogus",
                "engine": "warp",
                "code_distance": -1,
                "options": {"not_an_option": 1},
                "api_version": 99,
                "mystery": True,
            }
        )
    fields = {e["field"] for e in excinfo.value.errors}
    assert {
        "circuit", "method", "engine", "code_distance", "options", "api_version", "mystery",
    } <= fields


def test_parse_compile_request_requires_exactly_one_source():
    with pytest.raises(SchemaError):
        parse_compile_request({"circuit": "dnn_n8", "qasm": TINY_QASM})
    request = parse_compile_request({"qasm": TINY_QASM, "name": "tiny"})
    assert request.name == "tiny"
    assert request.circuit.num_qubits == 3


def test_parse_batch_request_validates_entries():
    with pytest.raises(SchemaError) as excinfo:
        parse_batch_request(
            {"circuits": ["dnn_n8", 7, {"qasm": 3}], "methods": ["autobraid", "nope"]}
        )
    fields = {e["field"] for e in excinfo.value.errors}
    assert {"circuits[1]", "circuits[2]", "methods"} <= fields

    request = parse_batch_request({"circuits": ["dnn_n8"], "methods": ["autobraid"]})
    assert request.to_jobs()[0].method == "autobraid"


def test_request_job_fingerprint_matches_batch_engine():
    """A /compile request fingerprints exactly like the equivalent BatchJob."""
    from repro.pipeline.batch import BatchJob

    request = parse_compile_request({"circuit": "dnn_n8", "method": "ecmas_dd_min"})
    direct = BatchJob(
        circuit=get_benchmark("dnn_n8").build(),
        method="ecmas_dd_min",
        circuit_name="dnn_n8",
    )
    assert request.to_job().fingerprint() == direct.fingerprint()


# ------------------------------------------------------------- warm LRU
def test_warm_state_cache_lru_eviction():
    cache = WarmStateCache(capacity=2)
    chips = [
        Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, n, n, bandwidth=1)
        for n in (2, 3, 4)
    ]
    for chip in chips[:2]:
        cache.acquire(chip)
    assert len(cache) == 2 and cache.misses == 2

    # Touch chip 0 so chip 1 becomes least recently used, then overflow.
    cache.acquire(chips[0])
    assert cache.hits == 1
    cache.acquire(chips[2])
    assert len(cache) == 2
    assert cache.evictions == 1
    assert cache.keys() == [chip_state_key(chips[0]), chip_state_key(chips[2])]

    # The evicted chip is a miss again; the survivor is still warm.
    router_before = cache.acquire(chips[0])
    router_again = cache.acquire(chips[0])
    assert router_before is router_again
    cache.acquire(chips[1])
    assert cache.misses == 4  # chips 0, 1, 2 cold + chip 1 re-entry

    stats = cache.stats()
    assert stats["capacity"] == 2 and stats["entries"] == 2


def test_warm_state_cache_shares_fast_router():
    cache = WarmStateCache(capacity=2)
    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 3, 3, bandwidth=1)
    router1 = cache.acquire(chip)
    router2 = cache.acquire(chip)
    assert router1 is router2
    assert router1.graph is router2.graph


def test_warm_state_provider_round_trip_schedules_identical():
    """Compiling through an installed warm provider changes nothing in the output."""
    circuit = get_benchmark("dnn_n8").build()
    cold = compile_circuit(circuit, scheduler="limited")
    cache = WarmStateCache(capacity=2)
    cache.install()
    try:
        warm_first = compile_circuit(circuit, scheduler="limited")
        warm_second = compile_circuit(circuit, scheduler="limited")
    finally:
        cache.uninstall()
    assert schedule_payload(cold) == schedule_payload(warm_first) == schedule_payload(warm_second)
    assert cache.hits >= 1
