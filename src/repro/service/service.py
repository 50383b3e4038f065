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

The record builder (:mod:`repro.eval.runner`) and, through
:mod:`repro.service.schema`, the QASM front end are imported with this
module, so a daemon loads them when it starts and a compile or schedule
request pays for no import (the validator still loads on the first
``validate`` request).
"""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.eval.runner import record_from_result
from repro.pipeline.batch import ResultCache, resolve_workers, run_batch
from repro.pipeline.registry import run_pipeline_method
from repro.service.jobs import JobManager, ServiceJob
from repro.service.schema import (
    API_VERSION,
    BatchRequest,
    CompileRequest,
    schedule_payload,
)
from repro.service.state import DEFAULT_WARM_CHIPS, WarmStateCache


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
        self.jobs = JobManager(self._execute, max_jobs_kept=max_jobs_kept)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop the worker thread and uninstall the warm routing provider."""
        self.jobs.stop()
        self.warm.uninstall()

    # ------------------------------------------------------------ execution
    def _execute(self, job: ServiceJob) -> dict:
        """JobManager executor: dispatch one job to its kind's handler."""
        if job.kind == "compile":
            return self._execute_compile(job.request)
        return self._execute_batch(job.request)

    def _count(self, record) -> None:
        """Fold one freshly compiled record's engine counters into the totals."""
        for name, value in (record.extra.get("counters") or {}).items():
            self.engine_counters[name] = self.engine_counters.get(name, 0) + value

    def _execute_compile(self, request: CompileRequest) -> dict:
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
            payload = record.to_dict()
            payload["cached"] = False
            payload["schedule"] = schedule_payload(result.encoded)
            return payload

        outcome = run_batch([batch_job], workers=1, cache=cache)
        if not outcome.ok:
            failure = outcome.failures[0]
            from repro.errors import ReproError

            raise ReproError(f"{failure.error}\n{failure.traceback}")
        record = outcome.records[0]
        cached = outcome.cache_hits > 0
        if not cached:
            self._count(record)
        payload = record.to_dict()
        payload["cached"] = cached
        return payload

    def _execute_batch(self, request: BatchRequest) -> dict:
        jobs = request.to_jobs()
        cache = self.cache if request.use_cache else None
        if self.workers > 1:
            # Forking a pool from a threaded daemon inherits whatever locks
            # are held at fork time.  The only lock a child compile would
            # ever take is the warm-state cache's (via the installed routing
            # provider), so clear the provider for the duration: children
            # build routing state cold — which they must anyway, since warm
            # objects cannot cross the process boundary.
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
