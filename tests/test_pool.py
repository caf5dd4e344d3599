"""The thread fan-out: every item runs once, results and errors keep input order."""

import sys
import threading
import time
import weakref

import pytest

from tomosar import _pool
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


def _idents(calls):
    """The idents of the threads that ran items of each call: 8 items of 10
    ms each on 2 workers, so both take part."""
    seen = [set() for _ in range(calls)]
    for call in seen:

        def work(i, call=call):
            call.add(threading.get_ident())
            threading.Event().wait(0.01)
            return i

        assert run_indexed(work, range(8), workers=2) == list(range(8))
    return seen


def test_caller_takes_part():
    # n workers use n - 1 helper threads: the calling thread runs items too,
    # also after a call that used more helpers
    assert run_indexed(lambda i: threading.Event().wait(0.01), range(8), workers=4) == [False] * 8
    (seen,) = _idents(1)
    assert threading.get_ident() in seen
    assert len(seen) == 2


def test_helpers_stay_alive_between_calls():
    first, second = _idents(2)
    before = {t.ident for t in threading.enumerate()}
    (third,) = _idents(1)
    assert len(first) == len(second) == len(third) == 2
    # the third call started no thread
    assert third <= before


def test_call_inside_an_item_finishes_when_every_helper_is_busy():
    # every helper alive, and the calling thread, take one outer item and
    # wait until all have started; then each makes an inner call, whose
    # helper tasks find no idle helper and are cancelled once its caller
    # has run the inner items itself
    workers = max(len(_pool._helpers), 1) + 1
    started = threading.Barrier(workers)

    def outer(i):
        started.wait(timeout=30)
        return sum(run_indexed(lambda j: i * j, range(20), workers=workers))

    done = []
    runner = threading.Thread(
        target=lambda: done.append(run_indexed(outer, range(workers), workers=workers)), daemon=True
    )
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert done == [[190 * i for i in range(workers)]]


def test_helpers_keep_no_reference_to_a_finished_call():
    # an idle helper must not keep a call's work, and the arrays it holds,
    # alive until its next task

    class Work:
        def __call__(self, i):
            threading.Event().wait(0.01)
            return i

    work = Work()
    alive = weakref.ref(work)
    assert run_indexed(work, range(8), workers=2) == list(range(8))
    del work
    # a helper drops its task right after handing back the result
    deadline = time.monotonic() + 5
    while alive() is not None and time.monotonic() < deadline:
        time.sleep(0.001)
    assert alive() is None
