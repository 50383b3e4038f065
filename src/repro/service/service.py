"""The compile service core: requests in, records out, everything warm.

:class:`CompileService` is the daemon's brain, independent of HTTP: it owns
the warm per-chip state (:class:`~repro.service.state.WarmStateCache`), the
streaming result cache (:class:`~repro.pipeline.batch.ResultCache`), and the
single-worker :class:`~repro.service.jobs.JobManager`, and it executes parsed
:class:`~repro.service.schema.CompileRequest` /
:class:`~repro.service.schema.BatchRequest` objects through the exact same
batch engine the CLI uses — so a record served over HTTP is bit-identical to
one produced by ``repro batch`` or the in-process
:func:`repro.compile_circuit` path.

The HTTP layer (:mod:`repro.service.server`) only translates between wire
payloads and this class.

A ``/compile`` body that is byte-identical to one that already produced a
record is served in *direct mode*, as ccache serves a repeat from a hash of
its input text: :meth:`CompileService.submit_compile` keeps a bounded map
from the SHA-256 of the raw body to that record's result-cache fingerprint,
and the worker reads the record by key without decoding the JSON, parsing
QASM, building a circuit or hashing its gate list.  A repeat whose record has
left the cache (evicted, pruned or cleared) falls back to the parse path.

The record builder (:mod:`repro.eval.runner`) and, through
:mod:`repro.service.schema`, the QASM front end are imported with this
module, so a daemon loads them when it starts and a compile or schedule
request pays for no import (the validator still loads on the first
``validate`` request).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass

from repro.errors import ReproError
from repro.eval.runner import record_from_result
from repro.pipeline.batch import ResultCache, resolve_workers, run_batch
from repro.pipeline.registry import run_pipeline_method
from repro.service.jobs import JobManager, ServiceJob
from repro.service.schema import (
    API_VERSION,
    BatchRequest,
    CompileRequest,
    decode_body,
    parse_compile_request,
    schedule_payload,
)
from repro.service.state import DEFAULT_WARM_CHIPS, WarmStateCache

#: How many ``/compile`` bodies direct mode remembers, least recently used
#: forgotten first.  An entry is a digest, a fingerprint and four scalars.
DIRECT_ENTRIES = 1024


@dataclass(frozen=True)
class DirectEntry:
    """What direct mode keeps of a ``/compile`` body that produced a record.

    ``fingerprint`` is the record's result-cache key; ``circuit_name`` and
    ``paper_cycles`` are the presentation fields a cache read restamps;
    ``wait`` and ``timeout_seconds`` are the fields the HTTP handler reads.
    """

    fingerprint: str
    circuit_name: str
    paper_cycles: int | None
    wait: bool
    timeout_seconds: float


@dataclass(frozen=True)
class CompileBody:
    """A queued ``/compile`` body: the raw bytes and their SHA-256 digest,
    with either the parsed request or, for a known repeat, its direct entry."""

    body: bytes
    digest: bytes
    request: CompileRequest | None = None
    entry: DirectEntry | None = None


def _record_payload(record, cached: bool) -> dict:
    payload = record.to_dict()
    payload["cached"] = cached
    return payload


class CompileService:
    """Long-lived compile engine behind the HTTP daemon.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`, a directory path to build one from, or
        ``None`` to run cache-less (requests with ``use_cache`` then always
        compile).
    workers:
        Process-pool size for ``/batch`` fan-out (``1`` compiles in the
        daemon process and is what keeps warm state effective; batches with
        more workers trade warm reuse for parallelism).
    warm_chips:
        LRU capacity of the warm per-chip state.
    """

    def __init__(
        self,
        cache: ResultCache | str | None = None,
        workers: int = 1,
        warm_chips: int = DEFAULT_WARM_CHIPS,
        max_jobs_kept: int = 256,
    ):
        self.cache = ResultCache(cache) if isinstance(cache, str) else cache
        self.workers = resolve_workers(workers)
        self.warm = WarmStateCache(capacity=warm_chips)
        self.warm.install()
        # Service bookkeeping (uptime base), not a compilation input.
        # lint: disable=DET004
        self.started_at = time.time()
        self.engine_counters: dict[str, int] = {}
        self._direct: OrderedDict[bytes, DirectEntry] = OrderedDict()
        self._direct_lock = threading.Lock()
        self.jobs = JobManager(self._execute, max_jobs_kept=max_jobs_kept)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop the worker thread and uninstall the warm routing provider."""
        self.jobs.stop()
        self.warm.uninstall()

    # ------------------------------------------------------------ submission
    def submit_compile(self, body: bytes) -> tuple[ServiceJob, CompileRequest | DirectEntry]:
        """Queue a raw ``/compile`` body; returns the job and what its ``wait`` fields come from.

        A body whose digest direct mode knows is queued as it is; any other
        is decoded and validated first (raising :class:`SchemaError`).
        """
        digest = hashlib.sha256(body).digest()
        with self._direct_lock:
            entry = self._direct.get(digest)
            if entry is not None:
                self._direct.move_to_end(digest)
        if entry is not None:
            return self.jobs.submit("compile", CompileBody(body, digest, entry=entry)), entry
        request = parse_compile_request(decode_body(body))
        return self.jobs.submit("compile", CompileBody(body, digest, request=request)), request

    def _remember(self, digest: bytes, entry: DirectEntry) -> None:
        with self._direct_lock:
            self._direct[digest] = entry
            self._direct.move_to_end(digest)
            while len(self._direct) > DIRECT_ENTRIES:
                self._direct.popitem(last=False)

    # ------------------------------------------------------------ execution
    def _execute(self, job: ServiceJob) -> dict:
        """JobManager executor: dispatch one job to its kind's handler."""
        if job.kind == "compile":
            return self._execute_compile_body(job.request)
        return self._execute_batch(job.request)

    def _count(self, record) -> None:
        """Fold one freshly compiled record's engine counters into the totals."""
        for name, value in (record.extra.get("counters") or {}).items():
            self.engine_counters[name] = self.engine_counters.get(name, 0) + value

    def _execute_compile_body(self, work: CompileBody) -> dict:
        """Serve a queued body: by cache key when direct mode knows it, else parsed."""
        entry = work.entry
        if entry is None:
            return self._execute_compile(work.request, work.digest)
        record = self.cache.get_by_key(entry.fingerprint, entry.circuit_name, entry.paper_cycles)
        if record is not None:
            return _record_payload(record, cached=True)
        # The record left the cache (evicted, pruned or cleared): the miss is
        # counted, so compile without a second lookup.
        request = parse_compile_request(decode_body(work.body))
        return self._execute_compile(request, work.digest, looked_up=True)

    def _execute_compile(
        self, request: CompileRequest, digest: bytes, looked_up: bool = False
    ) -> dict:
        batch_job = request.to_job()
        cache = self.cache if request.use_cache else None

        if request.include_schedule:
            # Schedule payloads are exact, so this path always compiles (the
            # cache stores records, not operation lists) — through the warm
            # per-chip state, and still persisting the record for later
            # record-only requests.
            result = run_pipeline_method(
                request.circuit,
                request.method,
                chip=request.chip,
                code_distance=request.code_distance,
                options=request.options,
                validate=request.validate,
            )
            record = record_from_result(
                result, request.circuit, request.method, circuit_name=request.name
            )
            if cache is not None:
                cache.put(batch_job, record)
            self._count(record)
            payload = _record_payload(record, cached=False)
            payload["schedule"] = schedule_payload(result.encoded)
            return payload

        # One fingerprint serves the lookup, the write and the direct entry.
        key = batch_job.fingerprint() if cache is not None else ""
        name = batch_job.circuit_name or batch_job.circuit.name
        record = None
        if cache is not None and not looked_up:
            record = cache.get_by_key(key, name, batch_job.paper_cycles)
        cached = record is not None
        if record is None:
            outcome = run_batch([batch_job], workers=1)
            if not outcome.ok:
                failure = outcome.failures[0]
                raise ReproError(f"{failure.error}\n{failure.traceback}")
            record = outcome.records[0]
            if cache is not None:
                cache.put_by_key(key, record)
            self._count(record)
        if cache is not None:
            self._remember(
                digest,
                DirectEntry(key, name, batch_job.paper_cycles, request.wait, request.timeout_seconds),
            )
        return _record_payload(record, cached)

    def _execute_batch(self, request: BatchRequest) -> dict:
        jobs = request.to_jobs()
        cache = self.cache if request.use_cache else None
        if self.workers > 1:
            # Forking a pool from a threaded daemon inherits whatever locks
            # are held at fork time.  A child compile would take the
            # warm-state cache's lock (via the installed routing provider),
            # so clear the provider for the duration: children build their
            # graphs cold.  The route-memo store renews its own lock in a
            # forked child, which keeps a copy of the daemon's memos.
            from repro.routing.fast_router import set_routing_provider

            previous = set_routing_provider(None)
            try:
                outcome = run_batch(jobs, workers=self.workers, cache=cache)
            finally:
                set_routing_provider(previous)
        else:
            outcome = run_batch(jobs, workers=self.workers, cache=cache)
        if self.workers == 1 and outcome.cache_hits == 0:
            # Best-effort accounting: counters are only attributable when the
            # batch compiled in-process (multi-process children's counters do
            # not flow back) and entirely fresh (a cached record's counters
            # describe a compile served long ago, not work done now).
            for record in outcome.records:
                if record is not None:
                    self._count(record)
        return {
            "records": [r.to_dict() if r is not None else None for r in outcome.records],
            "failures": [asdict(f) for f in outcome.failures],
            "cache_hits": outcome.cache_hits,
            "cache_misses": outcome.cache_misses,
            "workers": outcome.workers,
            "ok": outcome.ok,
        }

    # ------------------------------------------------------------- payloads
    def health_payload(self) -> dict:
        """The ``/healthz`` body."""
        from repro import __version__

        return {
            "api_version": API_VERSION,
            "status": "ok",
            "version": __version__,
            # lint: disable=DET004 — monitoring uptime, not a compile input
            "uptime_seconds": time.time() - self.started_at,
        }

    def stats_payload(self, scan_disk: bool = False) -> dict:
        """The ``/stats`` body: cache, warm-state, job and engine counters.

        ``scan_disk`` additionally walks the result cache's disk tier for
        entry/byte/shard totals — O(cache size), so it is opt-in
        (``GET /stats?scan=1``) rather than paid on every scrape.
        """
        from repro.pipeline.registry import method_catalog

        result_cache = None
        if self.cache is not None:
            result_cache = self.cache.stats() if scan_disk else self.cache.counters()
        return {
            "api_version": API_VERSION,
            # lint: disable=DET004 — monitoring uptime, not a compile input
            "uptime_seconds": time.time() - self.started_at,
            "jobs": self.jobs.stats(),
            "result_cache": result_cache,
            "warm_state": self.warm.stats(),
            "engine_counters": dict(self.engine_counters),
            "methods": method_catalog(),
        }
