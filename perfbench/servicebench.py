"""The ``service`` workload: one closed-loop client against a ``repro serve`` daemon.

The request stream is built from the workload seed.  Of its 108 requests,
54 repeat an earlier request (a *read*, served from the result cache), 35 are
fresh inline-QASM QUEKO circuits (a *write*: a compile through the warm chip
state, then a cache put) and 19 ask for the full schedule of a built-in
circuit (always compiled, large payload).  Methods are the Table I columns.

Each stream runs against a fresh daemon with a private cache directory on an
ephemeral port, so every stream sees the same cold cache; the stream is
repeated until the next one would overrun the time budget, and each
request's latency is its median over the streams, scaled to the reference
speed of :mod:`measure`.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from inprocess import TABLE1_METHODS
from measure import (
    Outcome,
    at_reference_speed,
    counter_layers,
    gauge,
    geomean,
    median_by_key,
    median_rows,
    p90,
)
from repro.circuits import qasm
from repro.circuits.generators import default_suite, get_benchmark
from repro.circuits.generators.random_parallel import random_parallel_circuit
from repro.pipeline.registry import run_pipeline_method
from repro.service.client import ServiceClient, ServiceError
from tracing import SPAN_LAYERS, NullTracer, Tracer, busy_and_self

#: Parallelism of the fresh 30-qubit, depth-20 QUEKO circuits: the middle of
#: each stratum of 1-15.  The writes of a stream cover every parallelism x
#: Table I method pair once; only the circuits' structure comes from the
#: seed, because a drawn parallelism moved the slowest requests, and with
#: them the p90, by 15% from seed to seed.
WRITE_PARALLELISM = (2, 5, 8, 11, 14)

#: How many writes are repeated once and how many twice: 54 reads against
#: 35 writes and 19 schedule requests, so reads are half of the stream.
READ_REPEATS = (1,) * 16 + (2,) * 19

_LISTENING = re.compile(r"listening on http://([^\s:]+):(\d+)")


@dataclass
class Request:
    """One ``/compile`` request; ``origin`` is the stream index it repeats."""

    kind: str  # "read", "write" or "schedule"
    body: dict
    origin: int


@dataclass
class Reply:
    """The answer to one request and its latency in seconds."""

    request: Request
    seconds: float
    payload: dict | None
    error: str | None

    @property
    def result(self) -> dict | None:
        """The finished record, or ``None`` when the request failed."""
        if self.payload is None or self.payload.get("status") != "done":
            return None
        return self.payload["result"]


def make_stream(rng: random.Random) -> list[Request]:
    """The seeded request stream: 54 reads, 35 writes, 19 schedule requests.

    The set of fresh requests is balanced so the stream's cost hardly moves
    from seed to seed: writes cover every parallelism x method pair
    once, and schedule requests cover every non-large Table I circuit once
    with a fixed method.  The seed draws the QUEKO circuits, the order, and
    which writes are read back twice.  Each read lands at a random position
    after the write it repeats.
    """
    fresh: list[Request] = []
    for parallelism in WRITE_PARALLELISM:
        for method in TABLE1_METHODS:
            circuit_seed = rng.randrange(2**31)
            circuit = random_parallel_circuit(30, 20, parallelism, seed=circuit_seed)
            body = {"qasm": qasm.dumps(circuit), "name": f"{circuit.name}_s{circuit_seed}"}
            fresh.append(Request("write", {**body, "method": method, "wait": True}, -1))
    for index, spec in enumerate(default_suite()):
        method = TABLE1_METHODS[index % len(TABLE1_METHODS)]
        body = {"circuit": spec.name, "include_schedule": True, "method": method, "wait": True}
        fresh.append(Request("schedule", body, -1))
    rng.shuffle(fresh)
    stream = list(fresh)
    writes = [request for request in fresh if request.kind == "write"]
    for write, repeats in zip(writes, rng.sample(READ_REPEATS, len(READ_REPEATS))):
        for _ in range(repeats):
            after = next(i for i, r in enumerate(stream) if r is write) + 1
            stream.insert(rng.randint(after, len(stream)), Request("read", write.body, -1))
    position = {id(request.body): i for i, request in enumerate(stream) if request.kind != "read"}
    for i, request in enumerate(stream):
        request.origin = position[id(request.body)] if request.kind == "read" else i
    return stream


class Daemon:
    """``repro serve`` in a subprocess, on an ephemeral port, with a private cache."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None
        self._log = None

    def start(self, timeout: float = 60.0) -> ServiceClient:
        """Launch the daemon and wait until ``/healthz`` answers."""
        self.workdir.mkdir(parents=True)
        cache = self.workdir / "cache"
        log_path = self.workdir / "daemon.log"
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        self._log = open(log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet",
             "--cache-dir", str(cache)],
            cwd=self.root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=self._log,
        )
        deadline = time.monotonic() + timeout
        while True:
            match = _LISTENING.search(log_path.read_text())
            if match:
                client = ServiceClient(match[1], int(match[2]), timeout=timeout)
                try:
                    if client.healthz()["status"] == "ok":
                        self.client = client
                        return client
                except ServiceError:
                    pass
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with code {self.proc.returncode}: {log_path.read_text()}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(f"daemon not healthy after {timeout:.0f}s")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """The daemon's resident-memory high-water mark (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Interrupt the daemon (it closes its server cleanly) and wait for it."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._log is not None:
            self._log.close()
            self._log = None


def serve_stream(
    client: ServiceClient, stream: list[Request], tracer
) -> tuple[list[Reply], list[float]]:
    """Send every request in order, each after the previous reply arrived.

    Returns the replies and, for each, the gauge seconds timed just before
    its request was sent.
    """
    replies, gauges = [], []
    for request in stream:
        gauges.append(gauge())
        request_start = time.perf_counter()
        with tracer.span("http.compile", kind=request.kind):
            try:
                payload, error = client.compile(**request.body), None
            except ServiceError as exc:
                payload, error = None, str(exc)
        replies.append(Reply(request, time.perf_counter() - request_start, payload, error))
    return replies, gauges


def _latency_p50s(replies: list[Reply]) -> dict[str, float]:
    """Median latency per request class: cache hits, fresh compiles, schedules."""
    classes = {"hit": [], "miss": [], "schedule": []}
    for reply in replies:
        result = reply.result
        if result is None:
            continue
        if reply.request.kind == "schedule":
            classes["schedule"].append(reply.seconds)
        elif result.get("cached"):
            classes["hit"].append(reply.seconds)
        else:
            classes["miss"].append(reply.seconds)
    return {
        f"service.{name}_ms_p50": statistics.median(values) * 1e3
        for name, values in classes.items()
        if values
    }


def _delta(after: dict | None, before: dict | None, key: str) -> float:
    return (after or {}).get(key, 0) - (before or {}).get(key, 0)


class ServiceWorkload:
    """Serves the stream against fresh daemons and checks every answer."""

    def __init__(self, root: Path, workdir: Path, stream: list[Request]):
        self.root = root
        self.workdir = workdir
        self.stream = stream
        self.daemon: Daemon | None = None
        self._daemons = 0
        self.outcome = Outcome()

    def start(self) -> None:
        """Boot a fresh daemon; the first boot is part of set-up."""
        self._daemons += 1
        daemon = Daemon(self.root, self.workdir / f"daemon{self._daemons}")
        try:
            daemon.start()
        except BaseException:
            daemon.stop()
            raise
        self.daemon = daemon

    def close(self) -> None:
        """Stop the current daemon, if any."""
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def _serve(self, tracer) -> tuple[list[Reply], list[float], dict, dict, float]:
        if self.daemon is None:
            self.start()
        client = self.daemon.client
        before = client.stats()
        replies, gauges = serve_stream(client, self.stream, tracer)
        after = client.stats()
        rss = self.daemon.peak_rss_mb()
        self.close()
        return replies, gauges, before, after, rss

    def run(self, seconds: float, trace: bool) -> Outcome:
        """Serve streams for about ``seconds``, then check every reply.

        Each request's latency, scaled to the reference speed, is its median
        over the untraced streams, and ``suite_s`` sums those.  Untraced, at least two streams run.  Traced,
        untraced and traced streams alternate (U T T U ...), at least two
        untraced and one traced.
        """
        plan = itertools.cycle((False, True, True, False) if trace else (False,))
        walls: dict[bool, list[float]] = {False: [], True: []}
        latencies: list[list[float]] = [[] for _ in self.stream]
        rss: list[float] = []
        traced_layers: list[dict[str, float]] = []
        traced_rows: list[dict[str, tuple[float, float]]] = []
        all_replies: list[list[Reply]] = []
        tracer = Tracer()
        started = time.perf_counter()
        while True:
            traced = next(plan)
            stream_started = time.perf_counter()
            first = len(tracer.spans)
            replies, gauges, before, after, peak = self._serve(tracer if traced else NullTracer())
            walls[traced].append(sum(reply.seconds for reply in replies))
            all_replies.append(replies)
            self.outcome.attempted += len(replies)
            if traced:
                layers, rows = self._layers(replies, tracer.spans[first:], before, after)
                traced_layers.append(layers)
                traced_rows.append(rows)
            else:
                rss.append(peak)
                scaled = at_reference_speed([reply.seconds for reply in replies], gauges)
                for samples, value in zip(latencies, scaled):
                    samples.append(value)
            enough = len(walls[False]) >= 2 and (bool(walls[True]) or not trace)
            now = time.perf_counter()
            if enough and now - started + (now - stream_started) > seconds:
                break

        self._check(all_replies)
        out = self.outcome
        request_ms = [statistics.median(samples) * 1e3 for samples in latencies]
        out.metrics = {
            "suite_s": sum(request_ms) / 1e3,
            "compile_ms_geomean": geomean(request_ms),
            "compile_ms_p90": p90(request_ms),
            "cycles_total": float(sum(r.result["cycles"] for r in all_replies[0] if r.result)),
            "peak_rss_mb": statistics.median(rss),
        }
        out.notes.append(
            f"{len(self.stream)} requests per stream, {len(walls[False])} untraced and "
            f"{len(walls[True])} traced streams, one fresh daemon each; untraced stream seconds "
            + " ".join(f"{w:.3f}" for w in walls[False])
        )
        if trace:
            out.layers = median_by_key(traced_layers)
            out.traced_suite_s = statistics.median(walls[True])
            out.layers["trace.overhead_s"] = out.traced_suite_s - statistics.median(walls[False])
            out.layer_rows = median_rows(traced_rows)
            out.spans = tracer.spans
        return out

    def _layers(self, replies, spans, before: dict, after: dict):
        """Per-layer metrics of one traced stream.

        Pass times come from the per-stage timings on each freshly compiled
        record; the QASM parse the daemon does per request is replayed
        in-process, since the daemon exposes no parse timing.
        """
        busy, own = busy_and_self(spans)
        rows = {name: (busy[name], own[name]) for name in busy}
        stages: dict[str, float] = {}
        compile_seconds = 0.0
        overheads = []
        for reply in replies:
            result = reply.result
            if result is None:
                continue
            fresh = not result.get("cached")
            if fresh:
                compile_seconds += result["compile_seconds"]
                for name, seconds in result["extra"].get("stages", {}).items():
                    stages[name] = stages.get(name, 0.0) + seconds
            overheads.append((reply.seconds - (result["compile_seconds"] if fresh else 0.0)) * 1e3)
        parse_started = time.perf_counter()
        for reply in replies:
            if "qasm" in reply.request.body:
                qasm.loads(reply.request.body["qasm"])
        stages["qasm.loads"] = time.perf_counter() - parse_started
        rows.update({name: (seconds, seconds) for name, seconds in stages.items()})
        layers = {
            f"{SPAN_LAYERS[name]}.busy_s": seconds
            for name, seconds in {**stages, **busy}.items()
            if name in SPAN_LAYERS
        }
        layers["pipeline.busy_s"] = compile_seconds
        layers.update(_latency_p50s(replies))
        layers["service.request_ms_p90"] = p90([r.seconds * 1e3 for r in replies])
        layers["service.overhead_ms_p50"] = statistics.median(overheads)
        layers.update(counter_layers(
            {k: _delta(after["engine_counters"], before["engine_counters"], k)
             for k in after["engine_counters"]}
        ))
        for name, key in (("result_cache", "result_cache"), ("warm_state", "warm_state")):
            hits = _delta(after[key], before[key], "hits")
            lookups = hits + _delta(after[key], before[key], "misses")
            if lookups:
                layers[f"service.{name}.hit_frac"] = hits / lookups
        layers["service.warm_state.evictions"] = _delta(
            after["warm_state"], before["warm_state"], "evictions"
        )
        return layers, rows

    def _check(self, streams: list[list[Reply]]) -> None:
        """Every reply is done; reads repeat their origin; fresh ones match in-process."""
        expected: dict[str, int] = {}
        for replies in streams:
            for reply in replies:
                request, result = reply.request, reply.result
                if result is None:
                    status = reply.payload.get("status") if reply.payload else None
                    self.outcome.failures.append(
                        f"request {request.origin} ({request.kind}): {reply.error or status}"
                    )
                    continue
                if request.kind == "read":
                    origin = replies[request.origin].result
                    want = origin["cycles"] if origin else None
                else:
                    key = json.dumps(request.body, sort_keys=True)
                    if key not in expected:
                        expected[key] = _compile_in_process(request.body)
                    want = expected[key]
                    schedule = result.get("schedule")
                    if schedule is not None and schedule["num_cycles"] != result["cycles"]:
                        self.outcome.failures.append(
                            f"request {request.origin}: schedule payload disagrees with its record"
                        )
                if result["cycles"] != want:
                    self.outcome.failures.append(
                        f"request {request.origin} ({request.kind}): daemon gave "
                        f"{result['cycles']} cycles, expected {want}"
                    )


def _compile_in_process(body: dict) -> int:
    """The cycle count an in-process compile of the same request gives."""
    if "qasm" in body:
        circuit = qasm.loads(body["qasm"])
    else:
        circuit = get_benchmark(body["circuit"]).build()
    return run_pipeline_method(circuit, body["method"]).encoded.num_cycles
