"""End-to-end and unit tests for the compile daemon (:mod:`repro.service`).

Covers the acceptance criteria of the service PR:

* a served compile is bit-identical to the in-process
  :func:`repro.compile_circuit` path (full operation list compared);
* a second identical request is served from warm state, observable through
  ``/stats`` (result-cache hit + warm-chip hit);
* the warm per-chip LRU evicts least-recently-used chips at capacity;
* malformed requests answer 400 with a schema-error body naming every
  offending field;
* a byte-identical repeat is served in direct mode (no parse, no gate-list
  hash) with the parse path's payload and ``/stats`` counters, falls back
  when its record left the cache, and never remembers a rejected body;
* a client sends its requests over one kept-alive connection, reopens it
  when the daemon closed it, and the daemon answers with Nagle off and
  closes a connection left idle.
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
from repro.service.schema import MAX_PLACEMENT_ATTEMPTS
from repro.service.state import chip_state_key

TINY_QASM = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
    "cx q[0],q[1];\ncx q[1],q[2];\ncx q[0],q[2];\n"
)


@pytest.fixture()
def live(tmp_path):
    """A live daemon on an ephemeral port with a fresh result cache, and a client."""
    server = create_server(port=0, cache=str(tmp_path / "cache"), quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(port=server.server_address[1])
    try:
        yield server, client
    finally:
        client.close()
        server.shutdown()
        server.close()
        thread.join(timeout=5)


@pytest.fixture()
def daemon(live):
    """The client of a live daemon."""
    return live[1]


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


@pytest.mark.parametrize(
    "options, field",
    [
        ({"seed": None}, "seed"),
        ({"seed": "x"}, "seed"),
        ({"adjust_bandwidth": "no"}, "adjust_bandwidth"),
        ({"placement_attempts": True}, "placement_attempts"),
        ({"priority": ["criticality"]}, "priority"),
    ],
)
def test_mistyped_option_is_400_naming_options(daemon, options, field):
    """A mistyped option must not crash mid-compile or silently run as another value."""
    with pytest.raises(ServiceError) as excinfo:
        daemon.compile(circuit="dnn_n8", method="ecmas_dd_min", options=options)
    err = excinfo.value
    assert err.status == 400
    assert err.payload["error"] == "schema_error"
    assert [e["field"] for e in err.payload["errors"]] == ["options"]
    assert field in err.payload["errors"][0]["message"]


def test_placement_attempts_over_the_bound_is_400_naming_options(daemon):
    """One request may not demand unbounded placement work of the daemon's worker."""
    with pytest.raises(ServiceError) as excinfo:
        daemon.compile(
            circuit="dnn_n8", method="ecmas_dd_min", options={"placement_attempts": 10**9}
        )
    err = excinfo.value
    assert err.status == 400
    assert err.payload["error"] == "schema_error"
    assert [e["field"] for e in err.payload["errors"]] == ["options"]
    message = err.payload["errors"][0]["message"]
    assert "placement_attempts" in message and str(MAX_PLACEMENT_ATTEMPTS) in message
    at_bound = {"circuit": "dnn_n8", "options": {"placement_attempts": MAX_PLACEMENT_ATTEMPTS}}
    assert parse_compile_request(at_bound).options.placement_attempts == MAX_PLACEMENT_ATTEMPTS


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
    assert router_before.graph is router_again.graph
    cache.acquire(chips[1])
    assert cache.misses == 4  # chips 0, 1, 2 cold + chip 1 re-entry

    stats = cache.stats()
    assert stats["capacity"] == 2 and stats["entries"] == 2


def test_warm_state_cache_shares_fast_router():
    cache = WarmStateCache(capacity=2)
    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 3, 3, bandwidth=1)
    router1 = cache.acquire(chip)
    router2 = cache.acquire(chip)
    assert router1.graph is router2.graph
    assert router1.memo is router2.memo


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


# -------------------------------------------------------------- direct mode
JOB_FIELDS = ("job_id", "submitted_at", "started_at", "finished_at")


def _without_job_fields(payload: dict) -> dict:
    return {key: value for key, value in payload.items() if key not in JOB_FIELDS}


def _count_parses(monkeypatch) -> list[str]:
    """Count QASM parses; the list grows by one per ``qasm.loads`` call."""
    from repro.circuits import qasm

    calls: list[str] = []
    real = qasm.loads

    def counting(source, *args, **kwargs):
        calls.append(source)
        return real(source, *args, **kwargs)

    monkeypatch.setattr(qasm, "loads", counting)
    return calls


def test_repeat_body_is_served_without_parsing(live, monkeypatch):
    """A byte-identical repeat skips QASM parsing and gate-list hashing; its
    payload equals the parse path's apart from the job id and timestamps."""
    from repro.circuits import qasm
    from repro.pipeline.batch import BatchJob

    server, client = live
    body = {"qasm": TINY_QASM, "name": "tiny", "method": "ecmas_dd_min", "wait": True}
    first = client.compile(**body)
    assert first["result"]["cached"] is False
    # The same request with its keys in another order: different bytes, so
    # it takes the parse path and reads the cache the way every read did.
    parsed = client.compile(**dict(reversed(list(body.items()))))
    assert parsed["result"]["cached"] is True

    def refuse(*args, **kwargs):
        raise AssertionError("a direct-mode repeat must not parse or hash")

    monkeypatch.setattr(qasm, "loads", refuse)
    monkeypatch.setattr(BatchJob, "fingerprint", refuse)
    direct = client.compile(**body)
    assert direct["status"] == "done", direct["error"]
    assert direct["result"]["cached"] is True
    assert _without_job_fields(direct) == _without_job_fields(parsed)
    assert direct["job_id"] != parsed["job_id"]
    assert server.service.stats_payload()["jobs"]["completed"] == 3


def _serve_stream(client) -> list[dict]:
    """A stream of reads, writes, schedule requests, uncached ones and a 400."""
    payloads = []
    requests = [
        {"qasm": TINY_QASM, "name": "tiny", "method": "ecmas_dd_min", "wait": True},
        {"circuit": "dnn_n8", "method": "autobraid", "wait": True},
        {"qasm": TINY_QASM, "name": "tiny", "method": "ecmas_dd_min", "wait": True},
        {"circuit": "dnn_n8", "method": "autobraid", "wait": True, "include_schedule": True},
        {"circuit": "dnn_n8", "method": "autobraid", "wait": True},
        {"circuit": "dnn_n8", "method": "autobraid", "wait": True, "use_cache": False},
        {"circuit": "dnn_n8", "method": "no_such_method", "wait": True},
        {"circuit": "dnn_n8", "method": "autobraid", "wait": True, "use_cache": False},
        {"qasm": TINY_QASM, "name": "tiny", "method": "ecmas_dd_min", "wait": True},
        {"qasm": TINY_QASM, "method": "ecmas_dd_min", "wait": True},
    ]
    for request in requests:
        try:
            payloads.append(client.compile(**request))
        except ServiceError as exc:
            payloads.append({"status": exc.status})
    return payloads


def test_direct_mode_keeps_stats_counters(live, tmp_path, monkeypatch):
    """/stats counts the same result-cache hits and misses, and the same jobs,
    over one stream as a daemon whose direct mode remembers nothing."""
    from repro.service import service as service_module

    server, client = live
    direct = _serve_stream(client)
    assert len(server.service._direct) == 3  # tiny (named, unnamed), dnn_n8

    monkeypatch.setattr(service_module, "DIRECT_ENTRIES", 0)
    plain_server = create_server(port=0, cache=str(tmp_path / "plain"), quiet=True)
    thread = threading.Thread(target=plain_server.serve_forever, daemon=True)
    thread.start()
    plain_client = ServiceClient(port=plain_server.server_address[1])
    try:
        plain = _serve_stream(plain_client)
        assert not plain_server.service._direct
        stats = [c.stats() for c in (client, plain_client)]
    finally:
        plain_client.close()
        plain_server.shutdown()
        plain_server.close()
        thread.join(timeout=5)

    def outcomes(payloads):
        return [
            (p["status"], *(p["result"][k] for k in ("circuit", "cycles", "cached")))
            if p.get("result") else p["status"]
            for p in payloads
        ]

    assert outcomes(direct) == outcomes(plain)
    for name in ("hits", "misses"):
        assert stats[0]["result_cache"][name] == stats[1]["result_cache"][name]
    assert stats[0]["result_cache"]["hits"] == 4
    assert stats[0]["jobs"] == stats[1]["jobs"]
    counters = [
        {k: v for k, v in stat["engine_counters"].items() if not k.endswith("_seconds")}
        for stat in stats
    ]
    assert counters[0] == counters[1]


def test_cleared_cache_makes_a_repeat_compile_again(live, monkeypatch):
    server, client = live
    body = {"circuit": "dnn_n8", "method": "ecmas_dd_min", "wait": True}
    assert client.compile(**body)["result"]["cached"] is False
    assert client.compile(**body)["result"]["cached"] is True
    assert server.service.cache.clear() == 1

    again = client.compile(**body)
    assert again["status"] == "done"
    assert again["result"]["cached"] is False
    # One miss per compile: the direct read's miss is not counted twice.
    assert client.stats()["result_cache"] | {"directory": None} == {
        "directory": None, "memory_entries": 1, "hits": 1, "misses": 2,
    }
    # The recompiled record is cached again, and the repeat is direct again.
    calls = _count_parses(monkeypatch)
    assert client.compile(qasm=TINY_QASM, wait=True)["result"]["cached"] is False
    assert client.compile(qasm=TINY_QASM, wait=True)["result"]["cached"] is True
    assert len(calls) == 1


def test_rejected_bodies_never_enter_the_direct_map(live):
    import http.client

    server, client = live
    bad_bodies = [
        b"{not json",
        b"",
        json.dumps({"circuit": "dnn_n8", "method": "no_such_method"}).encode(),
        json.dumps({"qasm": "OPENQASM 2.0;\nqreg q[", "wait": True}).encode(),
    ]
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        for body in bad_bodies * 2:
            connection.request("POST", "/compile", body=body)
            response = connection.getresponse()
            assert response.status == 400
            assert json.loads(response.read())["error"] == "schema_error"
    finally:
        connection.close()
    assert not server.service._direct
    # A request that parsed but failed to compile produces no record either.
    chip = Chip.with_tile_array(SurfaceCodeModel.DOUBLE_DEFECT, 3, 1, 1, bandwidth=1)
    failed = client.compile(
        circuit="dnn_n8", method="ecmas_dd_min", chip=chip_to_dict(chip), wait=True
    )
    assert failed["status"] == "failed"
    assert not server.service._direct


def test_direct_map_is_bounded(live, monkeypatch):
    from repro.service import service as service_module

    server, client = live
    monkeypatch.setattr(service_module, "DIRECT_ENTRIES", 2)
    calls = _count_parses(monkeypatch)
    names = ["a", "b", "c"]
    for name in names:
        client.compile(qasm=TINY_QASM, name=name, method="ecmas_dd_min", wait=True)
    assert len(server.service._direct) == 2
    assert len(calls) == 3
    # "b" and "c" are remembered; "a" was forgotten, so it parses again.
    for name in ["c", "b", "a"]:
        job = client.compile(qasm=TINY_QASM, name=name, method="ecmas_dd_min", wait=True)
        assert job["result"]["cached"] is True and job["result"]["circuit"] == name
    assert len(calls) == 4
    assert len(server.service._direct) == 2


def test_concurrent_clients_share_the_direct_map(live):
    """Handler threads read the direct map while the worker writes it: four
    clients repeat three bodies with a short switch interval, and every reply
    carries its own body's name."""
    import sys

    server, _ = live
    port = server.server_address[1]
    bodies = [
        {"qasm": TINY_QASM, "name": f"tiny{i}", "method": "ecmas_dd_min", "wait": True}
        for i in range(3)
    ]
    rounds, clients = 10, 4
    replies: list[tuple[str, dict]] = []
    errors: list[BaseException] = []

    def repeat(offset: int) -> None:
        client = ServiceClient(port=port, timeout=30)
        try:
            for index in range(rounds):
                body = bodies[(offset + index) % len(bodies)]
                replies.append((body["name"], client.compile(**body)))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)
        finally:
            client.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=repeat, args=(i,)) for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(replies) == rounds * clients
    assert all(job["status"] == "done" for _, job in replies)
    assert all(job["result"]["circuit"] == name for name, job in replies)
    assert len({job["result"]["cycles"] for _, job in replies}) == 1
    # The names share one fingerprint, and the single worker compiles it once.
    counters = server.service.stats_payload()["result_cache"]
    assert (counters["hits"], counters["misses"]) == (rounds * clients - 1, 1)
    assert len(server.service._direct) == len(bodies)


# --------------------------------------------------------------- keep-alive
def _count_connections(server) -> list:
    """Record every connection the server accepts from now on."""
    accepted = []
    accept = server.get_request

    def counting():
        connection = accept()
        accepted.append(connection)
        return connection

    server.get_request = counting
    return accepted


def test_sequential_requests_share_one_connection(live):
    server, client = live
    accepted = _count_connections(server)
    client.healthz()
    for _ in range(3):
        client.compile(circuit="dnn_n8", method="ecmas_dd_min", wait=True)
    client.stats()
    with pytest.raises(ServiceError):
        client.job("no-such-job")  # a 404 keeps the connection open
    client.healthz()
    assert len(accepted) == 1


def test_client_reconnects_after_the_server_closes(live, monkeypatch):
    """An oversized body is refused with a 400 and the connection closed;
    the client's next request opens a new one."""
    from repro.service import server as server_module

    server, client = live
    accepted = _count_connections(server)
    client.healthz()
    monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 256)
    with pytest.raises(ServiceError) as excinfo:
        client.compile(qasm=TINY_QASM * 4, wait=True)
    assert excinfo.value.status == 400
    assert "exceeds 256 bytes" in str(excinfo.value)
    assert client.healthz()["status"] == "ok"
    assert len(accepted) == 2


def test_client_retries_once_on_a_connection_closed_while_idle():
    """A kept-alive connection the peer closed without saying so is reopened
    once; a daemon that is gone is reported as unreachable."""
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    accepted = []

    def serve_twice() -> None:
        # Each connection answers one request with a keep-alive response,
        # then closes: the client's next request meets a dead socket.
        for _ in range(2):
            connection, _ = listener.accept()
            accepted.append(connection)
            with connection:
                connection.recv(65536)
                body = b'{"status": "ok"}'
                connection.sendall(
                    b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                )
        listener.close()

    thread = threading.Thread(target=serve_twice, daemon=True)
    thread.start()
    client = ServiceClient(port=port, timeout=10)
    try:
        assert client.healthz() == {"status": "ok"}
        thread.join(timeout=0.5)  # let the first connection close
        assert client.healthz() == {"status": "ok"}
        thread.join(timeout=10)
        assert len(accepted) == 2
        with pytest.raises(ServiceError) as excinfo:
            client.healthz()
    finally:
        client.close()
    assert excinfo.value.status is None
    assert str(excinfo.value).startswith(f"cannot reach compile daemon at http://127.0.0.1:{port}")


def test_service_error_keeps_status_and_messages(daemon):
    with pytest.raises(ServiceError) as excinfo:
        daemon.compile(circuit="dnn_n8", method="no_such_method")
    err = excinfo.value
    assert err.status == 400
    message = str(err)
    assert message.startswith("POST /compile -> HTTP 400: ")
    assert "\n  method: unknown evaluation method(s): no_such_method;" in message
    with pytest.raises(ServiceError) as excinfo:
        daemon.job("nope")
    assert excinfo.value.status == 404
    assert str(excinfo.value) == "GET /jobs/nope -> HTTP 404: no job 'nope'"
    assert excinfo.value.payload["error"] == "not_found"


def test_responses_leave_with_nagle_disabled(live, monkeypatch):
    """Nagle's algorithm would hold a response body back until the client
    acknowledged its head; every accepted connection must have it off."""
    import socket

    from repro.service.server import ServiceHandler

    server, client = live
    flags = []
    setup = ServiceHandler.setup

    def recording_setup(handler) -> None:
        setup(handler)
        flags.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(ServiceHandler, "setup", recording_setup)
    client.close()
    assert client.healthz()["status"] == "ok"
    assert len(flags) == 1 and flags[0] != 0


def test_an_abandoned_connection_is_closed_after_the_idle_timeout(live, monkeypatch):
    """A client that never closes its connection does not pin a handler
    thread: the daemon closes the idle connection and the thread ends."""
    import time

    from repro.service.server import IDLE_TIMEOUT_SECONDS, ServiceHandler

    assert IDLE_TIMEOUT_SECONDS >= 30 and ServiceHandler.timeout == IDLE_TIMEOUT_SECONDS
    server, client = live
    client.close()
    monkeypatch.setattr(ServiceHandler, "timeout", 1.0)
    before = threading.active_count()
    abandoned = [ServiceClient(port=server.server_address[1]) for _ in range(3)]
    for other in abandoned:
        assert other.healthz()["status"] == "ok"
    assert threading.active_count() == before + len(abandoned)
    deadline = time.monotonic() + 10
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.05)
    assert threading.active_count() == before
    for other in abandoned:
        assert other._connection.sock.recv(1) == b""  # the daemon closed it
    # An abandoned client reopens its connection on the next request.
    assert abandoned[0].healthz()["status"] == "ok"
    for other in abandoned:
        other.close()
