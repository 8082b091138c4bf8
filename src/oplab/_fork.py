"""One forked worker beside the command, and whether one may start: the
fork plumbing that `oplab.commands.simulate` and `oplab._blocks` share.

Each caller splits its work in two, runs one part here and gives the other
to a worker that ``fork`` copies from this process, so nothing is pickled and
the worker needs no import of its own.  The caller redoes the worker's part
whenever the worker does not exit cleanly, so its result never depends on
the worker.
"""

from __future__ import annotations

import os
import signal
import warnings


def available_cpus() -> int:
    """CPUs this process may run on.  A CPU quota is not seen; pinned to one
    CPU, a ``simulate`` worker changed the command's time by -3 % to +14 % at
    10 000 to 200 000 trials."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def beside(work, own) -> bool:
    """Run ``own()`` here while a forked worker runs ``work()``.

    True when the worker ran ``work()`` to its end and exited 0; False when
    it did not, or when no worker could start, in which case only ``own()``
    ran.  If ``own()`` raises, the worker is killed and reaped before the
    error goes on.  The worker leaves through ``os._exit`` whatever
    ``work()`` does, so it never returns into the caller's stack and never
    flushes buffers it inherited.
    """
    pid = _fork()
    if pid == 0:
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)
    try:
        own()
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    if pid is None:
        return False
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status) == 0


def _fork():
    """``os.fork()``, or None without ``os.fork`` or with fewer than 2 CPUs."""
    if not hasattr(os, "fork") or available_cpus() < 2:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork with other threads alive: numpy's
            # BLAS pool, which only a library caller has, since `oplab.cli`
            # pins BLAS to one thread.  No worker makes a BLAS call.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            return os.fork()
    except OSError:
        return None
