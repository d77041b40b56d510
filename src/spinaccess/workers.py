"""Independent parts of one computation, spread over forked worker processes.

``in_order`` runs numbered parts on this process and on workers forked from
it, one process per CPU this process may run on.  A worker sends each part
it runs, a C-contiguous buffer, as its length in 8 bytes and then its bytes,
through a pipe of its own wrapped in buffered files at both ends, and this
process takes the parts in order, so what a caller computes does not depend
on which process ran which part or on how many ran.
"""

import os
import signal


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


def _receive(pipe):
    """The next part a worker sent, or None where its pipe ends first."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    part = pipe.read(size)
    return part if len(part) == size else None


def in_order(count: int, work, take, name: str) -> None:
    """Call ``take(i, work(i))`` for i = 0, 1, ..., count - 1 in turn, here.

    ``work`` runs on W = worker_count(count) processes, part i on process
    i mod W: this one, 0, and W - 1 workers, each forked once; where W is 1,
    nothing is forked.  ``work(i)`` returns a C-contiguous buffer, which
    ``take`` gets as it is where this process ran it and as bytes where a
    worker did, so both read alike through ``np.frombuffer`` or ``decode``.
    A worker flushes each part it sends and blocks while its pipe is full,
    so about one part per process is held at once, and closes every pipe
    end but its own write end, so one that dies ends its pipe.

    Each worker ends by ``os._exit``, flushing no inherited stdio buffer and
    running no exit handler.  Every worker is reaped before this returns or
    raises; the others are killed when one fails, and on any exception
    here, KeyboardInterrupt too.  A failed worker, or one whose pipe ends
    before its parts do, raises RuntimeError, once all have ended, with a
    message that begins "k of W - 1 ``name`` workers failed".
    """
    workers = worker_count(count)

    def send(w, write):
        """Worker w's whole run: send parts w, w + W, ..., then end by
        ``os._exit``, 0 when all are sent, 1 where one raises, with the
        traceback written to fd 2."""
        code = 1
        try:
            for pipe in pipes:
                pipe.close()
            out = open(write, "wb", closefd=False)
            for i in range(w, count, workers):
                view = memoryview(work(i)).cast("B")
                out.write(len(view).to_bytes(8, "little"))
                out.write(view)
                out.flush()
            code = 0
        except BaseException:
            import traceback

            # to the descriptor, past the stderr buffer it shares
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(code)

    pids, pipes, failed = {}, [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            pipes.append(open(read, "rb"))
            try:
                pids[w] = os.fork()
                if pids[w] == 0:
                    send(w, write)
            finally:
                os.close(write)
        for i in range(count):
            w = i % workers
            part = work(i) if w == 0 else _receive(pipes[w - 1])
            if part is None:  # counted as failed even where it exits 0
                failed.append(os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1]))
                break
            take(i, part)
        else:
            for w in list(pids):
                code = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
                if code:
                    failed.append(code)
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
        for pid in pids.values():
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    if failed:
        raise RuntimeError(f"{len(failed)} of {workers - 1} {name} workers failed, "
                           f"exit codes {failed}")
