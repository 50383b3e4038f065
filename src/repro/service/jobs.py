"""Job queue and lifecycle for the compile daemon.

HTTP handler threads only *enqueue* work and *read* job state; every compile
runs on one background worker thread that drains the queue in submission
order.  That single-writer discipline is what lets the warm routing state
(:mod:`repro.service.state`) be shared without fine-grained locking of the
router memo tables, while ``/batch`` jobs can still fan out across a
multiprocessing pool *inside* the worker via
:func:`repro.pipeline.batch.run_batch`.

Jobs progress ``queued → running → done | failed``; terminal jobs are kept
(bounded, oldest evicted) so ``GET /jobs/<id>`` keeps answering after
completion.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
import uuid
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ReproError

#: Job lifecycle states.
JOB_STATUSES = ("queued", "running", "done", "failed")

#: How many terminal jobs ``/jobs/<id>`` keeps answering for, by default.
DEFAULT_JOBS_KEPT = 256


@dataclass
class ServiceJob:
    """One unit of daemon work: a parsed request plus its lifecycle record."""

    id: str
    kind: str  # "compile" | "batch"
    request: object
    status: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    result: dict | None = None
    error: dict | None = None

    def payload(self) -> dict:
        """The ``/jobs/<id>`` response body (see ``JOB_RESPONSE_FIELDS``)."""
        from repro.service.schema import API_VERSION

        return {
            "api_version": API_VERSION,
            "job_id": self.id,
            "kind": self.kind,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result,
            "error": self.error,
        }


class JobManager:
    """Single-worker job queue with a bounded, queryable job table.

    ``executor`` maps a :class:`ServiceJob` to its result payload; exceptions
    become the job's ``error`` payload (library errors keep their message,
    anything else is reported with its traceback) without tearing down the
    worker.
    """

    def __init__(
        self,
        executor: Callable[[ServiceJob], dict],
        max_jobs_kept: int = DEFAULT_JOBS_KEPT,
    ):
        self._executor = executor
        self._max_jobs_kept = max(1, int(max_jobs_kept))
        self._queue: "queue.Queue[ServiceJob | None]" = queue.Queue()
        self._jobs: OrderedDict[str, ServiceJob] = OrderedDict()
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self._worker = threading.Thread(target=self._run, name="repro-service-worker", daemon=True)
        self._worker.start()

    # -------------------------------------------------------------- submit
    def submit(self, kind: str, request: object) -> ServiceJob:
        """Accept a parsed request; returns the queued job immediately."""
        job = ServiceJob(id=uuid.uuid4().hex, kind=kind, request=request)
        with self._lock:
            self._jobs[job.id] = job
            self.submitted += 1
            self._evict_terminal()
        self._queue.put(job)
        return job

    def get(self, job_id: str) -> ServiceJob | None:
        """Look a job up by id (``None`` when unknown or already evicted)."""
        with self._lock:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: float) -> ServiceJob | None:
        """Block until the job reaches a terminal status, or ``timeout`` passes.

        Returns the job either way (still ``running``/``queued`` on timeout);
        ``None`` when the id is unknown.
        """
        deadline = time.monotonic() + timeout
        with self._done:
            while True:
                job = self._jobs.get(job_id)
                if job is None or job.status in ("done", "failed"):
                    return job
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return job
                self._done.wait(remaining)

    # --------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Queue/lifecycle counters for ``/stats``."""
        with self._lock:
            statuses = [job.status for job in self._jobs.values()]
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "queued": statuses.count("queued"),
                "running": statuses.count("running"),
                "kept": len(self._jobs),
            }

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker after it finishes the job in flight."""
        self._queue.put(None)
        self._worker.join(timeout)

    # -------------------------------------------------------------- worker
    def _evict_terminal(self) -> None:
        """Drop the oldest terminal jobs beyond the retention bound (lock held)."""
        while len(self._jobs) > self._max_jobs_kept:
            for job_id, job in self._jobs.items():
                if job.status in ("done", "failed"):
                    del self._jobs[job_id]
                    break
            else:
                return  # everything retained is still queued/running

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                return
            with self._lock:
                job.status = "running"
                # Job lifecycle timestamps are API payload, not compile
                # inputs.  # lint: disable=DET004
                job.started_at = time.time()
            try:
                result = self._executor(job)
                error = None
            except ReproError as exc:
                result, error = None, {"error": type(exc).__name__, "detail": str(exc)}
            except Exception as exc:  # never kill the worker thread
                result, error = None, {
                    "error": type(exc).__name__,
                    "detail": f"{exc}\n{traceback.format_exc()}",
                }
            with self._done:
                job.result = result
                job.error = error
                job.status = "done" if error is None else "failed"
                # lint: disable=DET004 — lifecycle timestamp for the API payload
                job.finished_at = time.time()
                # The request (parsed circuits, inline QASM, chips) is dead
                # weight once the job is terminal; payload() never reads it,
                # and retaining 256 of them would pin real memory.
                job.request = None
                if error is None:
                    self.completed += 1
                else:
                    self.failed += 1
                self._done.notify_all()
