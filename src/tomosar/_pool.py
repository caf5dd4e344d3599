"""Deterministic thread fan-out.

Work units are fixed before scheduling and results are collected by index,
so outputs never depend on the worker count.  TOMOSAR_THREADS caps the pool
(0 or unset means auto), the calling thread included.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigurationError

ENV_THREADS = "TOMOSAR_THREADS"


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

    The calling thread and ``min(workers, len(items)) - 1`` pool threads
    each take the next item not yet taken until none is left, so a pool of
    n workers starts n - 1 threads.  Every item runs; if calls raise, the
    exception of the first such item in input order is raised.
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

    with ThreadPoolExecutor(max_workers=n - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(n - 1)]
        drain()
        for helper in helpers:
            helper.result()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [result for result, _ in outcomes]
