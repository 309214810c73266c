"""Order-preserving map over one process-wide, reused thread pool.

Work items carry their own derived random streams, so the result is a
pure function of the item list; the worker count changes wall time only,
never output.

The pool's threads start once per process, at the first call that needs
them, and are reused by every later call: a call costs a few queue
hand-offs, not a pool's start and join.  A call at ``workers`` hands
exactly ``min(workers, len(items))`` runners to the pool, and each
runner takes the next item in order until none is left.  So at most
that many items are ever in flight, however many threads an earlier
call at more workers left in the pool.
"""

from __future__ import annotations

import os
import queue
import threading

_local = threading.local()      # .inside: this thread is a pool thread
_tasks = queue.SimpleQueue()    # runners waiting for a pool thread
_grow_lock = threading.Lock()
_threads = 0                    # pool threads started in this process


def default_workers() -> int:
    """The cores this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serve():
    _local.inside = True
    while True:
        _tasks.get()()


def _grow(n: int) -> None:
    """Start pool threads until there are at least ``n``."""
    global _threads
    with _grow_lock:
        while _threads < n:
            threading.Thread(target=_serve, name=f"quadglass-pool-{_threads}", daemon=True).start()
            _threads += 1


def _forget_pool():
    """A forked child has none of its parent's threads: start its pool afresh."""
    global _tasks, _grow_lock, _threads
    _tasks, _grow_lock, _threads = queue.SimpleQueue(), threading.Lock(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def parallel_map(fn, items, workers: int = 1) -> list:
    """``[fn(item) for item in items]``, at most ``workers`` items at a time.

    If items raise, no runner takes a further item; once every item in
    flight has finished, the exception of the first failed item in order
    is raised, the same one a serial map raises.  A call made inside an
    item runs inline, so nesting cannot deadlock the pool.
    """
    items = list(items)
    runners = min(workers, len(items))
    if runners <= 1 or getattr(_local, "inside", False):
        return [fn(item) for item in items]
    results = [None] * len(items)
    failed = {}
    upcoming = iter(range(len(items)))
    claim = threading.Lock()
    finished = threading.Semaphore(0)

    def runner():
        try:
            while True:
                with claim:
                    i = None if failed else next(upcoming, None)
                if i is None:
                    return
                try:
                    results[i] = fn(items[i])
                except BaseException as exc:  # a pool thread must outlive its item
                    with claim:
                        failed[i] = exc
        finally:
            finished.release()

    _grow(runners)
    for _ in range(runners):
        _tasks.put(runner)
    for _ in range(runners):
        finished.acquire()
    if failed:
        raise failed[min(failed)]
    return results
