"""Deterministic thread fan-out.

Work units are fixed before scheduling and results are collected by index,
so outputs never depend on the worker count.  TOMOSAR_THREADS caps the pool
(0 or unset means auto), the calling thread included.  The helper threads
are started on first need and then stay alive, waiting for work, for the
life of the process.
"""

import os
import queue
import threading
from concurrent.futures import Future

from .errors import ConfigurationError

ENV_THREADS = "TOMOSAR_THREADS"

# (future, fn) pairs that wait for a helper.  Building a thread pool per call
# cost 0.25 ms, which a solver that fans out every phase of every iteration
# would pay thousands of times; a waiting helper takes work in microseconds.
_tasks = queue.SimpleQueue()
_helpers = []
_helpers_lock = threading.Lock()


def _serve():
    """A helper thread's loop: run each task that was not cancelled first."""
    while True:
        future, fn = _tasks.get()
        if future.set_running_or_notify_cancel():
            try:
                future.set_result(fn())
            except BaseException as exc:  # raised again in the caller by future.result()
                future.set_exception(exc)
        # the task holds the call's work arrays: drop it before waiting
        del future, fn


def worker_count(requested=None):
    """Resolve the effective worker count from the request or environment."""
    if requested is not None:
        n = int(requested)
    else:
        raw = os.environ.get(ENV_THREADS, "0")
        try:
            n = int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ConfigurationError(f"thread count must be >= 0, got {n}")
    if n == 0:
        n = os.cpu_count() or 1
    return n


def run_indexed(fn, items, workers=None):
    """Apply ``fn`` to each item, preserving input order in the result list.

    The calling thread and ``min(workers, len(items)) - 1`` helper threads
    each take the next item not yet taken until none is left, so a pool of
    n workers runs on n threads.  Helpers outlive the call and serve later
    ones.  A helper that has not started by the time the calling thread
    finds no item left is cancelled rather than awaited, so a call made
    from inside an item of another call finishes even when every helper is
    busy.  Every item runs; if calls raise, the exception of the first such
    item in input order is raised.
    """
    items = list(items)
    n = min(worker_count(workers), len(items))
    if n <= 1:
        return [fn(it) for it in items]
    outcomes = [None] * len(items)
    pending = iter(range(len(items)))
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                i = next(pending, None)
            if i is None:
                return
            try:
                outcomes[i] = (fn(items[i]), None)
            except Exception as exc:  # raised below, in input order
                outcomes[i] = (None, exc)

    with _helpers_lock:
        while len(_helpers) < n - 1:
            helper = threading.Thread(target=_serve, name=f"tomosar-pool-{len(_helpers)}", daemon=True)
            helper.start()
            _helpers.append(helper)
    helpers = [Future() for _ in range(n - 1)]
    for future in helpers:
        _tasks.put((future, drain))
    drain()
    for future in helpers:
        if not future.cancel():
            future.result()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]
