"""Streaming parallel batch evaluation with a tiered, sharded result cache.

The evaluation tables and figures all reduce to the same shape of work: a
list of ``(circuit, method)`` jobs, each producing one
:class:`~repro.eval.runner.ExperimentRecord`.  :func:`run_batch` fans such a
list across a :mod:`multiprocessing` pool and memoises results on disk, keyed
by a SHA-256 fingerprint of everything that determines the outcome — the
circuit's gate list, the method name, the chip, the code distance and the
options.  Because every compile is deterministic for a fixed seed, a cache
hit is exact: a warm rerun of a table recompiles nothing.

The engine is *streaming* and *fault-isolating*:

* results are consumed as they complete (``imap_unordered``), and each record
  is persisted to the cache the moment it lands — killing a long sweep
  mid-run loses only the jobs still in flight, and a rerun warm-starts from
  everything already finished;
* a job that raises does not tear down the pool: the exception is captured
  as a structured :class:`BatchFailure` entry (method, circuit, traceback,
  wall-clock) on the :class:`BatchResult` while sibling jobs run to
  completion, leaving ``None`` at the failed job's position in ``records``;
* a ``progress`` callback receives a :class:`BatchProgress` snapshot after
  the cache scan and after every completion, so long sweeps can report live
  ``done/failed/cached`` counts.

The :class:`ResultCache` itself is two-tiered: JSON files on disk, sharded
into ``<fingerprint[:2]>/`` subdirectories so million-record caches never put
every entry in one directory, below a bounded in-memory LRU of serialised
records that absorbs repeated lookups within a process.  Corrupt disk entries
self-heal (the unreadable file is deleted on the way to a miss), and writes
go through a per-writer unique temp file, so concurrent processes can share
one cache directory safely.

Example
-------
>>> from repro.circuits.generators import get_benchmark
>>> from repro.pipeline.batch import BatchJob, run_batch
>>> jobs = [BatchJob(get_benchmark("dnn_n8").build(), m)
...         for m in ("autobraid", "ecmas_dd_min")]
>>> result = run_batch(jobs, workers=2)
>>> [r.method for r in result.records]
['autobraid', 'ecmas_dd_min']
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from repro.chip.chip import Chip
from repro.chip.defects import DefectSpec
from repro.circuits.circuit import Circuit
from repro.core.ecmas import EcmasOptions

#: Bump when a change invalidates previously cached results (scheduler or
#: record format changes).  2: canonical routing tie-break + engine field.
#: 3: defect-aware chips — the chip key carries the defect spec, jobs carry a
#: ``defects`` field, and the ReSu cut-remap fix changed ReSu schedules.
#: (The streaming rework did not bump it: records are bit-identical to the
#: barrier engine's.  Sharding came with it at version 3, so no key of a
#: later version names a flat file.)
#: 4: placement-engine field — the fast multilevel placement core produces
#: different (parity-bounded) placements, so ``placement`` is part of result
#: identity and pre-knob records must not be served for either value.
#: 5: tile-graph chip key — graph chips fingerprint their tile graph.
#: 6: engine field removed — there is one scheduling engine, so the
#: fingerprint payload lost its ``engine`` key.
CACHE_FORMAT_VERSION = 6


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` (read at call time) or ``~/.cache/repro``.

    Resolved lazily so that setting the environment variable *after*
    ``repro`` is imported (tests, service deployments) still takes effect on
    the next :class:`ResultCache` construction.
    """
    configured = os.environ.get("REPRO_CACHE_DIR", "")
    return Path(configured) if configured else Path.home() / ".cache" / "repro"


@dataclass(frozen=True)
class BatchJob:
    """One (circuit, method) compilation request."""

    circuit: Circuit
    method: str
    circuit_name: str | None = None
    code_distance: int = 3
    chip: Chip | None = None
    options: EcmasOptions | None = None
    paper_cycles: int | None = None
    validate: bool = False
    #: Placement bisection core ("reference" / "fast").  Part of the
    #: fingerprint because the fast multilevel core genuinely changes
    #: placements (within parity-harness bounds), so the two values are
    #: different experiments.
    placement: str = "reference"
    #: Defect spec applied to the target chip (see BuildChipPass).  Part of
    #: the fingerprint: the same circuit on a degraded chip is a different
    #: experiment.
    defects: DefectSpec | None = None

    def fingerprint(self) -> str:
        """Content hash identifying this job's result."""
        from repro import __version__

        payload = {
            "v": CACHE_FORMAT_VERSION,
            "repro": __version__,
            "circuit": circuit_key(self.circuit),
            "method": self.method,
            "code_distance": self.code_distance,
            "chip": chip_key(self.chip),
            "options": asdict(self.options) if self.options is not None else None,
            "validate": self.validate,
            "placement": self.placement,
            "defects": self.defects.key() if self.defects is not None else None,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def circuit_key(circuit: Circuit) -> list:
    """JSON-able content key of a circuit: qubit count plus the full gate list.

    Shared by the batch-cache fingerprint and the service layer's warm-state
    bookkeeping — two circuits with equal keys compile identically.
    """
    return [
        circuit.num_qubits,
        [[g.name, list(g.qubits), list(g.params)] for g in circuit],
    ]


def chip_key(chip: Chip | None) -> list | None:
    """JSON-able content key of a chip (``None`` for "method default chip").

    Covers everything that affects compilation: model, code distance, tile
    array, corridor bandwidths, side length and the defect spec.  The service
    layer keys its warm per-chip state (routing graph, landmark tables) by
    this same value, so cache identity and warm-state identity never drift.
    """
    if chip is None:
        return None
    return [
        chip.model.name,
        chip.code_distance,
        chip.tile_rows,
        chip.tile_cols,
        list(chip.h_bandwidths),
        list(chip.v_bandwidths),
        chip.side,
        chip.defects.key(),
        chip.tile_graph.key() if chip.tile_graph is not None else None,
    ]


def build_batch_jobs(
    circuits: "list[tuple[str, Circuit]]",
    methods: list[str],
    *,
    code_distance: int = 3,
    validate: bool = False,
    placement: str = "reference",
    chip: Chip | None = None,
    options: EcmasOptions | None = None,
    defects: DefectSpec | None = None,
) -> list[BatchJob]:
    """Construct the circuits × methods job matrix shared by the CLI and service.

    ``circuits`` is a list of ``(name, circuit)`` pairs; the job list is
    ordered circuit-major (every method of the first circuit, then the
    second…), matching the historical ``repro batch`` output order.  All
    remaining knobs apply uniformly to every job, which is exactly the shape
    of a ``/batch`` request.
    """
    return [
        BatchJob(
            circuit=circuit,
            method=method,
            circuit_name=name,
            code_distance=code_distance,
            chip=chip,
            options=options,
            validate=validate,
            placement=placement,
            defects=defects,
        )
        for name, circuit in circuits
        for method in methods
    ]


class ResultCache:
    """Two-tier cache of JSON-serialised experiment records, one per job hash.

    Disk entries live under ``<directory>/<fingerprint[:2]>/<fingerprint>.json``
    (flat files from before sharding are never read, only swept by
    :meth:`clear` and :meth:`prune`); an in-memory LRU
    of at most ``memory_limit`` serialised records sits in front of the disk
    tier.  ``directory=None`` resolves :func:`default_cache_dir` at
    construction time, honouring ``$REPRO_CACHE_DIR`` changes made after
    import.
    """

    def __init__(
        self,
        directory: Path | str | None = None,
        memory_limit: int = 512,
    ):
        self.directory = Path(
            directory if directory is not None else default_cache_dir()
        ).expanduser()
        self.memory_limit = max(0, int(memory_limit))
        self._memory: OrderedDict[str, str] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.json"

    def _entry_paths(self):
        """Every record file: the shards' and stray flat ones from before v3."""
        if not self.directory.is_dir():
            return
        yield from self.directory.glob("*.json")
        yield from self.directory.glob("??/*.json")

    def _drop_empty_shards(self) -> None:
        if not self.directory.is_dir():
            return
        for shard in self.directory.glob("??"):
            if shard.is_dir():
                try:
                    shard.rmdir()  # only succeeds when the shard is empty
                except OSError:
                    pass

    def _remember(self, key: str, text: str) -> None:
        if self.memory_limit == 0:
            return
        self._memory[key] = text
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_limit:
            self._memory.popitem(last=False)

    def get(self, job: BatchJob):
        """Return the cached record for ``job``, or ``None`` (counts hit/miss)."""
        return self.get_by_key(
            job.fingerprint(), job.circuit_name or job.circuit.name, job.paper_cycles
        )

    def get_by_key(self, key: str, circuit_name: str, paper_cycles: int | None = None):
        """Return the record stored under fingerprint ``key``, or ``None`` (counts hit/miss).

        ``circuit_name`` and ``paper_cycles`` are the job's presentation
        metadata, which the fingerprint leaves out; the record is restamped
        with them so a hit returns exactly what a fresh compile would.
        """
        from repro.eval.runner import ExperimentRecord

        record = None
        text = self._memory.get(key)
        if text is not None:
            # The memory tier only ever holds text that parsed successfully.
            self._memory.move_to_end(key)
            record = ExperimentRecord.from_dict(json.loads(text))
        else:
            path = self._path(key)
            try:
                text = path.read_text(encoding="utf-8")
                record = ExperimentRecord.from_dict(json.loads(text))
            except OSError:
                pass
            except (ValueError, TypeError):
                # Corrupt or schema-skewed entries self-heal: delete the
                # unreadable file on the way to a miss so the rerun's fresh
                # record replaces it for good.
                path.unlink(missing_ok=True)
            else:
                self._remember(key, text)
        if record is None:
            self.misses += 1
            return None
        self.hits += 1
        record.circuit = circuit_name
        record.paper_cycles = paper_cycles
        return record

    def put(self, job: BatchJob, record) -> None:
        """Persist ``record`` for ``job`` (atomically, concurrency-safe)."""
        self.put_by_key(job.fingerprint(), record)

    def put_by_key(self, key: str, record) -> None:
        """Persist ``record`` under fingerprint ``key`` (atomically, concurrency-safe)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = json.dumps(record.to_dict(), sort_keys=True)
        # A per-writer unique temp name: processes sharing a cache directory
        # must not interleave writes through one well-known tmp file.
        tmp = path.parent / f".{key}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
        try:
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)
        finally:
            tmp.unlink(missing_ok=True)
        self._remember(key, text)

    def clear(self) -> int:
        """Delete every cached record; returns the number removed."""
        removed = 0
        for path in list(self._entry_paths()):
            path.unlink(missing_ok=True)
            removed += 1
        self._memory.clear()
        self._drop_empty_shards()
        return removed

    def prune(self, older_than_seconds: float) -> int:
        """Delete records not rewritten in the last ``older_than_seconds``."""
        # Cache maintenance, not compilation: the prune cutoff is wall-clock
        # by definition.  # lint: disable=DET004
        cutoff = time.time() - older_than_seconds
        removed = 0
        for path in list(self._entry_paths()):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink(missing_ok=True)
                    removed += 1
            except OSError:
                continue
        self._memory.clear()
        self._drop_empty_shards()
        return removed

    def counters(self) -> dict:
        """The in-memory counters only — O(1), safe to poll on a hot path.

        Unlike :meth:`stats`, this never touches the disk tier, so a
        monitoring endpoint can call it per-scrape even over a
        million-record cache directory.
        """
        return {
            "directory": str(self.directory),
            "memory_entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
        }

    def stats(self) -> dict:
        """Entry/size/shard counters for ``repro cache stats`` and monitoring.

        Walks (and ``stat``\\ s) every entry file, so cost scales with the
        cache size; prefer :meth:`counters` for frequent polling."""
        entries = 0
        total_bytes = 0
        for path in self._entry_paths():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue
            entries += 1
        shards = 0
        if self.directory.is_dir():
            shards = sum(1 for p in self.directory.glob("??") if p.is_dir())
        return {
            "directory": str(self.directory),
            "entries": entries,
            "bytes": total_bytes,
            "shards": shards,
            "memory_entries": len(self._memory),
            "hits": self.hits,
            "misses": self.misses,
        }


@dataclass(frozen=True)
class BatchFailure:
    """One job that raised instead of producing a record."""

    index: int
    method: str
    circuit: str
    error: str
    traceback: str
    seconds: float


@dataclass
class BatchProgress:
    """Live counters handed to :func:`run_batch`'s progress callback.

    ``done`` counts compiles finished this run, ``cached`` jobs served from
    the cache scan, ``failed`` captured :class:`BatchFailure` entries; the
    run is over when :attr:`finished` reaches ``total``.  When the event that
    produced this snapshot was a job failure, ``last_failure`` carries it, so
    streaming consumers (CLI progress lines, table builders) can name the
    failed cell without waiting for the final :class:`BatchResult`.
    """

    total: int
    done: int = 0
    failed: int = 0
    cached: int = 0
    last_failure: BatchFailure | None = None

    @property
    def finished(self) -> int:
        """Jobs resolved so far, by any means (compiled, cached or failed)."""
        return self.done + self.failed + self.cached


@dataclass
class BatchResult:
    """Records for every job (in job order) plus failures and cache counters.

    ``records[i]`` is ``None`` exactly when job ``i`` appears in
    ``failures`` (sorted by job index).
    """

    records: list = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    workers: int = 1
    failures: list[BatchFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every job produced a record."""
        return not self.failures

    @property
    def recompilations(self) -> int:
        """Jobs that were actually compiled (i.e. not served from the cache)."""
        return sum(1 for record in self.records if record is not None) - self.cache_hits


def execute_job(job: BatchJob):
    """Compile one job in the current process (raises on failure)."""
    from repro.eval.runner import run_method

    return run_method(
        job.circuit,
        job.method,
        circuit_name=job.circuit_name,
        code_distance=job.code_distance,
        chip=job.chip,
        paper_cycles=job.paper_cycles,
        validate=job.validate,
        options=job.options,
        placement=job.placement,
        defects=job.defects,
    )


def _execute_indexed(item: tuple[int, BatchJob]):
    """Pool worker entry point: run one job, capturing any exception.

    Returns ``(index, record, None)`` on success and
    ``(index, None, BatchFailure)`` when the compile raised — the failure
    travels back as data, so one bad job never tears down the pool.
    """
    index, job = item
    started = time.perf_counter()
    try:
        return index, execute_job(job), None
    except Exception as exc:
        failure = BatchFailure(
            index=index,
            method=job.method,
            circuit=job.circuit_name or job.circuit.name,
            error=f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
            seconds=time.perf_counter() - started,
        )
        return index, None, failure


def resolve_workers(workers: int | None) -> int:
    """Normalise a worker count (``None``/``0`` → one per CPU).

    Negative counts are rejected: silently treating them as "one per CPU"
    hid sign bugs in callers.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(
            f"workers must be a positive integer, or None/0 for one per CPU; got {workers}"
        )
    return workers


def run_batch(
    jobs: list[BatchJob],
    workers: int | None = 1,
    cache: ResultCache | Path | str | None = None,
    progress: Callable[[BatchProgress], None] | None = None,
) -> BatchResult:
    """Run every job, streaming cache misses through a process pool.

    Completed records are written to the cache *as they finish*, so an
    interrupted run warm-starts from everything already done, and a job that
    raises becomes a :class:`BatchFailure` entry while its siblings complete.

    Parameters
    ----------
    jobs:
        The compilation requests; the result's ``records`` match their order
        (``None`` where the job failed).
    workers:
        Pool size.  ``1`` (the default) runs in-process with no pool overhead;
        ``None`` or ``0`` uses one worker per CPU; negatives raise.
    cache:
        A :class:`ResultCache`, a directory path to build one from, or
        ``None`` to disable caching.
    progress:
        Optional callback receiving a fresh :class:`BatchProgress` snapshot
        after the cache scan and after every job completion.
    """
    workers = resolve_workers(workers)
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)

    result = BatchResult(records=[None] * len(jobs), workers=workers)
    tracker = BatchProgress(total=len(jobs))
    pending: list[tuple[int, BatchJob]] = []
    for index, job in enumerate(jobs):
        record = cache.get(job) if cache is not None else None
        if record is not None:
            result.records[index] = record
            result.cache_hits += 1
            tracker.cached += 1
        else:
            pending.append((index, job))
            if cache is not None:
                result.cache_misses += 1
    if progress is not None:
        progress(replace(tracker))

    job_of = dict(pending)

    def finish(index: int, record, failure: BatchFailure | None) -> None:
        # Persist before reporting: a progress callback that interrupts the
        # run must never lose the record that triggered it.
        if failure is None:
            result.records[index] = record
            if cache is not None:
                cache.put(job_of[index], record)
            tracker.done += 1
        else:
            result.failures.append(failure)
            tracker.failed += 1
        if progress is not None:
            progress(replace(tracker, last_failure=failure))

    if pending:
        if workers > 1 and len(pending) > 1:
            # Imported here, where a pool opens, so serial runs never load it.
            import multiprocessing

            with multiprocessing.Pool(min(workers, len(pending))) as pool:
                for index, record, failure in pool.imap_unordered(_execute_indexed, pending):
                    finish(index, record, failure)
        else:
            for item in pending:
                index, record, failure = _execute_indexed(item)
                finish(index, record, failure)
    # imap_unordered delivers in completion order; report deterministically.
    result.failures.sort(key=lambda f: f.index)
    return result
