"""Helpers for the tests of work spread over forked worker processes."""

import os
import subprocess
import sys

import pytest


def patch_cpus(monkeypatch, count):
    """Let this process see ``count`` available CPUs, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def count_forks(monkeypatch):
    """A list that gains one entry for each ``os.fork`` this process makes."""
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def fail_in_workers(monkeypatch, module, name):
    """Make ``module.name`` raise in any process forked from this one."""
    parent = os.getpid()
    real = getattr(module, name)

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            raise ValueError(f"{name} failed in a worker")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, failing)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def block_buffered_stdout(code, *args, timeout=60):
    """The stdout of ``python -c code args`` on this checkout's package,
    written through a pipe, so block-buffered."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]]
                                                 if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          stdout=subprocess.PIPE, check=True, timeout=timeout).stdout
