"""Known-bad fixture: fork/thread-safety hazards (FRK001 / FRK002).

Tagged lines must fire; the ``ok_*`` names and ALL_CAPS/dunder bindings
must stay silent.
"""

import multiprocessing
import threading

_job_cache = {}  # expect: FRK001
pending_jobs = []  # expect: FRK001
_guard = threading.Lock()  # expect: FRK001

RETRY_LIMIT = 3
_DEFAULTS = dict(workers=4)

__all__ = ["bump", "fan_out", "fan_out_acquire", "fan_out_local_import", "ok_pool_outside"]


def bump(key):
    """FRK001: a global statement mutating module state from a function."""
    global _job_cache  # expect: FRK001
    _job_cache = {key: True}


def fan_out(lock, items):
    """FRK002: pool constructed inside a with-lock block."""
    with lock:
        pool = multiprocessing.Pool(4)  # expect: FRK002
    return pool.map(str, items)


def fan_out_acquire(work_lock, items):
    """FRK002: pool constructed between acquire() and release()."""
    work_lock.acquire()
    pool = multiprocessing.Pool(2)  # expect: FRK002
    work_lock.release()
    return pool.map(str, items)


def fan_out_local_import(lock, items):
    """FRK002: a function-local import of multiprocessing is still resolved."""
    import multiprocessing as mp

    with lock:
        pool = mp.Pool(2)  # expect: FRK002
    return pool.map(str, items)


def ok_pool_outside(lock, items):
    """Silent: the pool is built before the critical section."""
    pool = multiprocessing.Pool(2)
    with lock:
        out = list(items)
    return pool.map(str, out)
