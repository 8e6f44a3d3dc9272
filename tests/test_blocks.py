"""The ordered block map over forked workers."""

import os
import select

import pytest

from minsurf.blocks import ordered_map
from minsurf.errors import DomainError, InvalidInputError


def no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_results_in_item_order(n, workers):
    results = list(ordered_map(lambda i: b"%d:%d" % (i, os.getpid()), range(n), workers))
    assert [int(r.split(b":")[0]) for r in results] == list(range(n))
    pids = {int(r.split(b":")[1]) for r in results}
    assert len(pids) == min(n, workers)
    assert no_worker_left()


def test_serial_without_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    results = list(ordered_map(lambda i: b"%d" % os.getpid(), range(5), 3))
    assert results == [b"%d" % os.getpid()] * 5


def test_worker_error_names_the_worker():
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent and i == 4:
            raise ValueError("bad block")
        return b"x"

    with pytest.raises(OSError, match=r"^worker 1 failed: ValueError: bad block$"):
        list(ordered_map(fn, range(7), 3))
    assert no_worker_left()


def test_worker_invalid_input_keeps_its_type_and_message():
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            raise DomainError("bad domain")
        return b"x"

    with pytest.raises(InvalidInputError) as exc:
        list(ordered_map(fn, range(4), 2))
    assert str(exc.value) == "bad domain"
    assert no_worker_left()


def test_worker_that_dies_is_reported():
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            os._exit(7)
        return b"x"

    with pytest.raises(OSError, match="^worker 1 ended its pipe short$"):
        list(ordered_map(fn, range(4), 2))
    assert no_worker_left()


def test_caller_error_reaps_workers():
    parent = os.getpid()

    def fn(i):
        if os.getpid() == parent and i == 2:
            raise KeyError(i)
        return bytes(1 << 20)  # more than a pipe holds: the worker blocks

    with pytest.raises(KeyError):
        list(ordered_map(fn, range(6), 2))
    assert no_worker_left()


def test_each_result_reaches_the_caller_before_the_next_item():
    # worker 1 computes items 1 and 3; the caller computes item 2 only once
    # it has received item 1, so item 3 waits for the caller's signal
    parent = os.getpid()
    ready, signal = os.pipe()

    def fn(i):
        if os.getpid() == parent and i == 2:
            os.write(signal, b"!")
        elif os.getpid() != parent and i == 3:
            # the bound only ends a worker whose item 1 never reached the caller
            return b"after" if select.select([ready], [], [], 60)[0] else b"before"
        return b"%d" % i

    try:
        assert list(ordered_map(fn, range(4), 2)) == [b"0", b"1", b"2", b"after"]
    finally:
        os.close(ready)
        os.close(signal)
    assert no_worker_left()
