"""Independent parts of one computation, spread over forked worker processes.

``in_order`` runs numbered parts on this process and on workers forked from
it, one process per CPU this process may run on.  A worker sends each part
it runs, a C-contiguous buffer, through a pipe of its own, and this process
takes the parts in order, so what a caller computes does not depend on
which process ran which part or on how many ran.
"""

import os


def worker_count(count: int) -> int:
    """Processes ``in_order`` spreads ``count`` parts over: the least of
    ``count`` and the CPUs this process may run on, and 1 where there is no
    ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(count, cpus))


def _fork(run) -> int:
    """Fork a worker that calls ``run()`` and ends by ``os._exit``: 0 when it
    returns, 1 when it raises, with the traceback written to fd 2."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            run()
            code = 0
        except BaseException:
            import traceback

            # to the descriptor, past the stderr buffer it shares
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)
    return pid


def _wait(pid: int) -> int:
    """The exit code of a worker, once it has ended."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def _kill(pids) -> None:
    import signal

    for pid in pids:
        os.kill(pid, signal.SIGKILL)
    for pid in pids:
        os.waitpid(pid, 0)


def _raise_failed(failed: list, workers: int, name: str) -> None:
    if failed:
        raise RuntimeError(f"{len(failed)} of {workers - 1} {name} workers failed, "
                           f"exit codes {failed}")


def _send(fd: int, data) -> None:
    """Write one C-contiguous part to a pipe: its length in bytes, in 8
    bytes, then its bytes."""
    view = memoryview(data).cast("B")
    os.write(fd, len(view).to_bytes(8, "little"))  # below PIPE_BUF: whole
    while view:
        view = view[os.write(fd, view):]


def _read(fd: int, size: int):
    """The next ``size`` bytes of a pipe, or None where it ends first."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if n == 0:
            return None
        got += n
    return data


def _receive(fd: int):
    """The next part a worker sent, or None where its pipe ends first."""
    head = _read(fd, 8)
    return None if head is None else _read(fd, int.from_bytes(head, "little"))


def in_order(count: int, work, take, name: str) -> None:
    """Call ``take(i, work(i))`` for i = 0, 1, ..., count - 1 in turn, here.

    ``work`` runs on W = worker_count(count) processes, part i on process
    i mod W: this one, 0, and W - 1 workers, each forked once; where W is 1,
    nothing is forked.  ``work(i)`` returns a C-contiguous buffer, which
    ``take`` gets as it is where this process ran it and as a bytearray of
    its bytes where a worker did, so both read alike through
    ``np.frombuffer`` or ``decode``.  A worker blocks while its pipe is
    full, so about one part per process is held at once, and closes every
    pipe end but its own write end, so one that dies ends its pipe.

    Each worker ends by ``os._exit``, flushing no inherited stdio buffer and
    running no exit handler.  Every worker is reaped before this returns or
    raises; the others are killed when one fails, and on any exception
    here, KeyboardInterrupt too.  A failed worker raises RuntimeError, once
    all have ended, with a message that begins "k of W - 1 ``name``
    workers failed".
    """
    workers = worker_count(count)

    def send(w, fd, reads):
        for read in reads:
            os.close(read)
        for i in range(w, count, workers):
            _send(fd, work(i))

    pids, reads, failed = {}, [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pids[w] = _fork(lambda: send(w, write, reads))
            finally:
                os.close(write)
        for i in range(count):
            w = i % workers
            part = work(i) if w == 0 else _receive(reads[w - 1])
            if part is None:
                failed.append(_wait(pids.pop(w)))
                break
            take(i, part)
        else:
            for w in list(pids):
                code = _wait(pids.pop(w))
                if code:
                    failed.append(code)
    finally:
        _kill(list(pids.values()))
        for read in reads:
            os.close(read)
    _raise_failed(failed, workers, name)
