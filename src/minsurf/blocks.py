"""Ordered block map over forked worker processes.

:func:`ordered_map` is the one place where minsurf runs anything in
parallel.  A worker is a copy of the calling process, so it reads the
arrays the caller holds without pickling them, and it sends back only the
``bytes`` of each result.  Forking is safe only from a process that runs a
single Python thread; no minsurf command starts a thread of its own.
"""

from __future__ import annotations

import os

from .errors import InvalidInputError

_HEAD = 8  # bytes of the signed length before each record on a pipe
_INVALID = b"!"  # leads a failure note that is an InvalidInputError's message


def ordered_map(fn, items, workers):
    """Yield ``fn(item)`` for every item, in item order.

    Worker k >= 1 is forked, computes ``items[k::workers]`` and streams each
    result (``bytes``) on its own pipe; the caller computes
    ``items[0::workers]`` itself.  Runs serially when ``workers`` is 1, when
    there are fewer than 2 items, or without ``os.fork``.  A worker's
    :class:`InvalidInputError` is raised again in the caller, with its
    message; any other failure, a non-zero exit or a pipe that ends short
    raises :class:`OSError`, naming the worker.  Every worker is reaped,
    also when the caller stops early or raises.
    """
    items = list(items)
    workers = min(workers, len(items))
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    pipes, pids = [], []
    try:
        for k in range(1, workers):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            pid = os.fork()
            if pid == 0:
                for pipe in pipes:
                    pipe.close()
                _work(fn, items[k::workers], write_fd)
            pids.append(pid)
            os.close(write_fd)
        for i, item in enumerate(items):
            k = i % workers
            yield fn(item) if k == 0 else _receive(pipes[k - 1], k)
    finally:
        for pipe in pipes:
            pipe.close()  # a worker still writing gets EPIPE and exits
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for k, code in enumerate(codes, start=1):
        if code:
            raise OSError(f"worker {k} exited with status {code}")


def _work(fn, items, fd):
    """A forked worker's life: send each result, or the error that stopped
    it as a negative-length record, then leave by ``os._exit`` so that none
    of the caller's exit handlers or buffered output run twice."""
    code = 1
    try:
        with open(fd, "wb") as pipe:
            try:
                for item in items:
                    data = fn(item)
                    pipe.write(len(data).to_bytes(_HEAD, "little", signed=True))
                    pipe.write(data)
                    pipe.flush()  # the caller may be waiting for this record
                code = 0
            except Exception as exc:
                note = (_INVALID + str(exc).encode()
                        if isinstance(exc, InvalidInputError)
                        else f"{type(exc).__name__}: {exc}".encode())
                pipe.write((-len(note)).to_bytes(_HEAD, "little", signed=True))
                pipe.write(note)
    finally:
        os._exit(code)


def _receive(pipe, k):
    """The next result of worker ``k``."""
    head = pipe.read(_HEAD)
    if len(head) == _HEAD:
        size = int.from_bytes(head, "little", signed=True)
        data = pipe.read(abs(size))
        if len(data) == abs(size):
            if size >= 0:
                return data
            if data.startswith(_INVALID):
                raise InvalidInputError(data[len(_INVALID):].decode(errors="replace"))
            raise OSError(f"worker {k} failed: {data.decode(errors='replace')}")
    raise OSError(f"worker {k} ended its pipe short")
