"""The thread fan-out: every item runs once, results and errors keep input order."""

import sys
import threading

import pytest

from tomosar._pool import run_indexed


def test_every_item_runs_once_in_order_under_contention():
    # more workers than cores and a short switch interval, so that a claim
    # taken twice or lost shows as a count other than one
    calls = [0] * 3000
    lock = threading.Lock()

    def work(i):
        with lock:
            calls[i] += 1
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done = []
        runner = threading.Thread(target=lambda: done.append(run_indexed(work, range(3000), workers=8)))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert done == [[i * i for i in range(3000)]]
    assert calls == [1] * 3000


@pytest.mark.parametrize("workers", [1, 2, 5])
def test_first_failure_in_input_order_is_raised_after_every_item_ran(workers):
    ran = []

    def work(i):
        ran.append(i)
        if i in (3, 7):
            raise ValueError(f"item {i}")
        return i

    with pytest.raises(ValueError, match="item 3"):
        run_indexed(work, range(10), workers=workers)
    # the serial path stops at the first failure, as a loop would
    assert sorted(ran) == (list(range(10)) if workers > 1 else [0, 1, 2, 3])


def test_caller_takes_part():
    # n workers start n - 1 threads: the calling thread runs items too
    seen = set()

    def work(i):
        seen.add(threading.get_ident())
        threading.Event().wait(0.01)
        return i

    assert run_indexed(work, range(8), workers=2) == list(range(8))
    assert threading.get_ident() in seen
    assert len(seen) == 2
