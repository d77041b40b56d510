"""Independent parts of one computation, spread over forked worker processes.

``on_workers`` runs numbered parts on this process and on workers forked
from it, one process per CPU this process may run on.  A part's results
reach the caller only through memory the processes share, an anonymous
``mmap`` the caller allocates before the call, so what a caller computes
does not depend on which process ran which part or on how many ran.
"""

import os


def worker_count(count: int) -> int:
    """Processes ``on_workers`` spreads ``count`` parts over: the least of
    ``count`` and the CPUs this process may run on, and 1 where there is
    no ``os.fork``."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(count, cpus))


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
    import signal

    workers = worker_count(count)
    pids, failed = [], []
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    for i in range(w, count, workers):
                        work(i)
                    code = 0
                except BaseException:
                    import traceback

                    # to the descriptor, past the stderr buffer it shares
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            pids.append(pid)
        for i in range(0, count, workers):
            work(i)
        while pids:
            status = os.waitpid(pids[-1], 0)[1]
            if status:
                failed.append(os.waitstatus_to_exitcode(status))
            pids.pop()
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
    if failed:
        raise RuntimeError(f"{len(failed)} of {workers - 1} {name} workers failed, "
                           f"exit codes {failed}")
