"""Independent parts of one computation, spread over forked worker processes.

``on_workers`` and ``in_order`` run numbered parts on this process and on
workers forked from it, one process per CPU this process may run on.  With
``on_workers`` a part's results reach the caller through memory the
processes share, an anonymous ``mmap`` the caller allocates before the
call; with ``in_order`` each part returns bytes, which a worker sends to
this process through a pipe of its own, and the caller takes the parts in
order.  Either way, what a caller computes does not depend on which process
ran which part or on how many ran.
"""

import os


def worker_count(count: int) -> int:
    """Processes ``on_workers`` and ``in_order`` spread ``count`` parts
    over: the least of ``count`` and the CPUs this process may run on, and
    1 where there is no ``os.fork``."""
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


def on_workers(count: int, work, name: str) -> None:
    """Run ``work(i)`` for i in range(count), spread over W = worker_count(count)
    processes: W - 1 forked workers, worker w taking i = w, w + W, ..., and
    this process taking i = 0, W, ....  Where W is 1, this process runs
    every i in turn and forks nothing.

    ``work`` returns nothing: a worker's results reach this process only
    through memory they share.  Each worker ends by ``os._exit``, so it
    flushes no inherited stdio buffer and runs no exit handler.  Every
    worker is reaped before this returns or raises; on any exception here,
    KeyboardInterrupt too, the workers left are killed first.  A worker
    that fails raises RuntimeError here, after all are reaped, with a
    message that begins "k of W - 1 ``name`` workers failed".
    """
    workers = worker_count(count)

    def run(w):
        for i in range(w, count, workers):
            work(i)

    pids, failed = [], []
    try:
        for w in range(1, workers):
            pids.append(_fork(lambda: run(w)))
        run(0)
        while pids:
            code = _wait(pids[-1])
            if code:
                failed.append(code)
            pids.pop()
    finally:
        _kill(pids)
    _raise_failed(failed, workers, name)


def _send(fd: int, data) -> None:
    """Write one part to a pipe: its length in 8 bytes, then its bytes."""
    view = memoryview(data)
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
    """Call ``take(work(i))`` for i = 0, 1, ..., count - 1 in turn, ``work``
    spread over processes as by ``on_workers`` and ``take`` called here.

    ``work(i)`` returns a bytes-like part.  Each worker is forked once and
    sends its parts through a pipe of its own, blocking while the pipe is
    full, so the parts held at once are about one per process, whatever
    ``count`` is.  A worker closes every pipe end but its own write end, so
    one that dies ends its pipe, and this process reads no further.  A
    failed worker raises RuntimeError here, with the message of
    ``on_workers``, once every worker has ended: the others are killed
    when one fails, and on any exception here.
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
            take(part)
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
