"""One pool of forked worker processes for a run's independent tasks.

``run.batch`` hands it (case, seed) backtests, ``PatternAgents`` its blocks
of periods and its numeric agents.  Workers are forked, so they inherit the
loaded modules, the BLAS set-up and the caller's inputs: the task function
reaches each worker once, through the pool's initializer, and is never
pickled.  Only each task's argument and result cross a pipe, and a task's
result equals an in-process call's bit for bit.

On Linux each worker also ends when the process that forked it does, a
killed one included: the pool forks its workers from the calling thread,
and each worker asks the kernel for SIGTERM at its parent's death.

The tasks run in-process, one after another, on one usable core, where
``fork`` is missing, while this process has other Python threads (a forked
child could inherit a lock one of them holds and hang), and inside a
worker, so a worker never forks a pool of its own.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import threading
from concurrent.futures import ProcessPoolExecutor


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count(n_tasks: int, tasks_per_worker: int = 1) -> int:
    """Workers for ``n_tasks`` tasks: one per usable core, each with at
    least ``tasks_per_worker`` tasks, and 1 (in-process) wherever the
    module docstring says the tasks must not fork."""
    if (multiprocessing.parent_process() is not None or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return max(1, min(usable_cores(), n_tasks // tasks_per_worker))


_work = None  # the task function, set once in each worker by _install
_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _install(fn, parent: int):
    global _work
    _work = fn
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
        if os.getppid() != parent:  # the parent died before prctl took effect
            os.kill(os.getpid(), signal.SIGTERM)


def _call(task):
    return _work(task)


def imap(fn, tasks, workers: int):
    """Yield fn(task) for each task, in order, each result as it is read.

    More than one worker runs the tasks in a pool of that many forked
    processes.  A task that raises cancels the tasks not yet started and
    its exception reaches the caller with its type; no worker outlives the
    iteration, whether it ends, raises or is closed, or (on Linux) this
    process is killed.
    """
    if workers <= 1:
        yield from map(fn, tasks)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install, initargs=(fn, os.getpid())) as pool:
        try:
            yield from pool.map(_call, tasks)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
