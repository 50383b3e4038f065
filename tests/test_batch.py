"""Tests for the streaming batch-evaluation engine (:mod:`repro.pipeline.batch`)."""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict

import pytest

from repro.circuits.generators import get_benchmark, standard
from repro.eval import table1_overview
from repro.pipeline.batch import (
    BatchJob,
    ResultCache,
    default_cache_dir,
    execute_job,
    resolve_workers,
    run_batch,
)

SMALL_SUITE = [get_benchmark(name) for name in ("dnn_n8", "ghz_state_n23", "ising_n10")]


def _jobs(methods=("autobraid", "ecmas_dd_min", "ecmas_ls_min")):
    circuit = standard.ghz_state(8)
    return [BatchJob(circuit=circuit, method=method) for method in methods]


class TestRunBatch:
    def test_records_preserve_job_order(self):
        jobs = _jobs()
        result = run_batch(jobs)
        assert [r.method for r in result.records] == [j.method for j in jobs]
        assert all(r.cycles > 0 for r in result.records)

    def test_serial_and_parallel_agree(self):
        jobs = _jobs()
        serial = run_batch(jobs, workers=1)
        parallel = run_batch(jobs, workers=2)
        assert parallel.workers == 2
        assert [r.cycles for r in parallel.records] == [r.cycles for r in serial.records]
        assert [r.method for r in parallel.records] == [r.method for r in serial.records]

    def test_empty_job_list(self):
        result = run_batch([])
        assert result.records == []
        assert result.recompilations == 0

    def test_execute_job_matches_run_method(self):
        job = _jobs()[1]
        record = execute_job(job)
        assert record.method == job.method
        assert record.cycles > 0
        assert record.extra["stages"]

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(1) == 1
        assert resolve_workers(None) == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [-1, -8])
    def test_resolve_workers_rejects_negatives(self, workers):
        with pytest.raises(ValueError, match="positive integer"):
            resolve_workers(workers)

    def test_run_batch_rejects_negative_workers(self):
        with pytest.raises(ValueError, match="positive integer"):
            run_batch(_jobs(methods=("ecmas_ls_min",)), workers=-2)

    def test_cache_accepts_plain_path(self, tmp_path):
        jobs = _jobs(methods=("ecmas_ls_min",))
        run_batch(jobs, cache=tmp_path / "c")
        warm = run_batch(jobs, cache=tmp_path / "c")
        assert warm.cache_hits == 1
        assert warm.recompilations == 0

    def test_partial_cache_hit_recompiles_only_misses(self, tmp_path):
        cache_dir = tmp_path / "c"
        run_batch(_jobs(methods=("ecmas_ls_min",)), cache=cache_dir)
        mixed = run_batch(_jobs(methods=("ecmas_ls_min", "autobraid")), cache=cache_dir)
        assert mixed.cache_hits == 1
        assert mixed.cache_misses == 1
        assert mixed.recompilations == 1
        assert [r.method for r in mixed.records] == ["ecmas_ls_min", "autobraid"]

    def test_shared_cache_reports_per_batch_deltas(self, tmp_path):
        """Counters on BatchResult are per-run even when one cache is reused."""
        cache = ResultCache(tmp_path / "c")
        first = run_batch(_jobs(methods=("ecmas_ls_min",)), cache=cache)
        second = run_batch(_jobs(methods=("ecmas_ls_min",)), cache=cache)
        third = run_batch(_jobs(methods=("ecmas_ls_min", "autobraid")), cache=cache)
        assert (first.cache_hits, first.cache_misses, first.recompilations) == (0, 1, 1)
        assert (second.cache_hits, second.cache_misses, second.recompilations) == (1, 0, 0)
        assert (third.cache_hits, third.cache_misses, third.recompilations) == (1, 1, 1)

    def test_schema_skewed_cache_entry_degrades_to_miss_and_self_heals(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        jobs = _jobs(methods=("ecmas_ls_min",))
        run_batch(jobs, cache=cache)
        entry = next((tmp_path / "c").glob("??/*.json"))
        entry.write_text('{"not_a_record_field": 1}', encoding="utf-8")
        warm = run_batch(jobs, cache=ResultCache(tmp_path / "c"))
        assert warm.cache_hits == 0
        assert warm.cache_misses == 1
        assert warm.records[0].cycles > 0
        # The rerun replaced the corrupt entry with a fresh record.
        assert json.loads(entry.read_text(encoding="utf-8"))["cycles"] == warm.records[0].cycles

    def test_corrupt_cache_entry_is_deleted_on_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        jobs = _jobs(methods=("ecmas_ls_min",))
        run_batch(jobs, cache=cache)
        entry = next((tmp_path / "c").glob("??/*.json"))
        entry.write_text("{truncated", encoding="utf-8")
        fresh = ResultCache(tmp_path / "c")
        assert fresh.get(jobs[0]) is None
        assert not entry.exists(), "corrupt entries must self-heal on the way to a miss"

    def test_cache_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        run_batch(_jobs(methods=("ecmas_ls_min",)), cache=cache)
        assert cache.clear() == 1
        cold = run_batch(_jobs(methods=("ecmas_ls_min",)), cache=ResultCache(tmp_path / "c"))
        assert cold.cache_hits == 0

    def test_streaming_records_match_direct_execution(self):
        """The streaming engine's records equal per-job compiles (modulo wall-clock)."""

        def key(record):
            payload = asdict(record)
            payload.pop("compile_seconds")
            payload["extra"].pop("stages")
            payload["extra"]["counters"].pop("landmark_build_seconds")
            return payload

        jobs = _jobs()
        direct = [key(execute_job(job)) for job in jobs]
        streamed = run_batch(jobs, workers=2)
        assert [key(r) for r in streamed.records] == direct


class TestResultCacheTiers:
    def test_entries_are_sharded_by_fingerprint_prefix(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        job = _jobs(methods=("ecmas_ls_min",))[0]
        cache.put(job, execute_job(job))
        key = job.fingerprint()
        assert (tmp_path / "c" / key[:2] / f"{key}.json").is_file()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["shards"] == 1
        assert stats["bytes"] > 0

    def test_stray_flat_files_are_swept_not_served(self, tmp_path):
        job = _jobs(methods=("ecmas_ls_min",))[0]
        record = execute_job(job)
        (tmp_path / "c").mkdir()
        flat = tmp_path / "c" / f"{job.fingerprint()}.json"
        flat.write_text(json.dumps(asdict(record), sort_keys=True), encoding="utf-8")
        cache = ResultCache(tmp_path / "c")
        assert cache.get(job) is None
        assert cache.stats()["entries"] == 1
        assert cache.clear() == 1
        assert not flat.exists()

    def test_memory_tier_serves_hits_without_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        job = _jobs(methods=("ecmas_ls_min",))[0]
        record = execute_job(job)
        cache.put(job, record)
        assert cache.clear() == 1  # clears disk AND memory
        assert cache.get(job) is None
        cache.put(job, record)
        for path in list((tmp_path / "c").glob("??/*.json")):
            path.unlink()
        hit = cache.get(job)  # served from the in-memory LRU tier
        assert hit is not None and hit.cycles == record.cycles

    def test_memory_tier_is_bounded(self, tmp_path):
        cache = ResultCache(tmp_path / "c", memory_limit=2)
        jobs = _jobs()
        for job in jobs:
            cache.put(job, execute_job(job))
        assert len(cache._memory) == 2
        assert cache.stats()["memory_entries"] == 2
        assert cache.stats()["entries"] == len(jobs)

    def test_memory_tier_can_be_disabled(self, tmp_path):
        cache = ResultCache(tmp_path / "c", memory_limit=0)
        job = _jobs(methods=("ecmas_ls_min",))[0]
        cache.put(job, execute_job(job))
        assert len(cache._memory) == 0
        assert cache.get(job) is not None  # disk tier still works

    def test_prune_removes_only_old_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        jobs = _jobs(methods=("ecmas_ls_min", "autobraid"))
        for job in jobs:
            cache.put(job, execute_job(job))
        old = cache._path(jobs[0].fingerprint())
        stale = time.time() - 10 * 86400
        os.utime(old, (stale, stale))
        assert cache.prune(older_than_seconds=7 * 86400) == 1
        assert not old.exists()
        assert cache.stats()["entries"] == 1

    def test_default_cache_dir_reads_env_at_construction(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late-bound"))
        assert default_cache_dir() == tmp_path / "late-bound"
        assert ResultCache().directory == tmp_path / "late-bound"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert ResultCache().directory == default_cache_dir() != tmp_path / "late-bound"

    def test_put_leaves_no_tmp_files(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for job in _jobs():
            cache.put(job, execute_job(job))
        leftovers = [p for p in (tmp_path / "c").rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []


class TestTableIntegration:
    def test_table1_through_batch_engine_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        rows = table1_overview(suite=SMALL_SUITE, cache=cache)
        assert len(rows) == 3
        assert cache.hits == 0

        warm_cache = ResultCache(tmp_path / "cache")
        warm_rows = table1_overview(suite=SMALL_SUITE, cache=warm_cache)
        assert warm_cache.misses == 0, "warm rerun must recompile nothing"
        assert warm_cache.hits == len(SMALL_SUITE) * 7
        assert warm_rows == rows

    def test_table1_parallel_jobs_match_serial(self, tmp_path):
        serial = table1_overview(suite=SMALL_SUITE[:2], jobs=1)
        parallel = table1_overview(suite=SMALL_SUITE[:2], jobs=2)
        assert parallel == serial

    def test_table1_reports_progress(self, tmp_path):
        snapshots = []
        table1_overview(suite=SMALL_SUITE[:1], cache=tmp_path / "c", progress=snapshots.append)
        assert snapshots[-1].finished == snapshots[-1].total == 7
        assert snapshots[-1].done == 7 and snapshots[-1].failed == 0


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs a multi-core runner")
def test_parallel_batch_is_faster_than_serial():
    """--jobs 4 must beat serial wall-clock on a multi-core machine."""
    specs = [get_benchmark(name) for name in ("square_root_n18", "multiplier_n25")]
    jobs = [
        BatchJob(circuit=spec.build(), method=method, circuit_name=spec.name)
        for spec in specs
        for method in ("autobraid", "ecmas_dd_min", "ecmas_ls_min", "edpci_min")
    ]
    started = time.perf_counter()
    serial = run_batch(jobs, workers=1)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_batch(jobs, workers=4)
    parallel_seconds = time.perf_counter() - started

    assert [r.cycles for r in parallel.records] == [r.cycles for r in serial.records]
    assert parallel_seconds < serial_seconds * 0.8, (
        f"parallel run ({parallel_seconds:.2f}s) not measurably faster than "
        f"serial ({serial_seconds:.2f}s)"
    )
