"""One worker per core for numpy and scipy loops that release the GIL.

`split(fn, count)` cuts range(count) into one contiguous run per worker
and calls fn(lo, hi) on each: the first run on the calling thread, the
others on a pool of WORKERS - 1 threads, started on first use. WORKERS is
the number of cores this process may run on. Callers hand it only work
whose runs touch disjoint memory, so each element sees the same
operations in the same order however the runs are shared out, and the
bytes do not depend on the core count. Runs call only numpy, scipy's
public sparse product and private helpers, never a function the solver
looks up by name, so every traced call stays on the calling thread.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has affinity masks
        return os.cpu_count() or 1


WORKERS = _cores()

_pool = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(WORKERS - 1, thread_name_prefix="sketchlsq")
        return _pool


def _forget_pool():
    # A forked child inherits the pool object but none of its threads.
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def split(fn, count: int):
    """Call fn(lo, hi) on contiguous runs that cover range(count), at most
    one per worker, and return once every call has returned. With one run
    nothing leaves the calling thread. The first error raised is re-raised."""
    parts = min(count, WORKERS)
    if parts <= 1:
        fn(0, count)
        return
    cuts = [count * p // parts for p in range(parts + 1)]
    pool = _executor()
    # Each run sees the caller's context variables, np.errstate among them;
    # a pool thread would otherwise keep its own.
    futures = [
        pool.submit(contextvars.copy_context().run, fn, lo, hi)
        for lo, hi in zip(cuts[1:-1], cuts[2:])
    ]
    try:
        fn(cuts[0], cuts[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()
