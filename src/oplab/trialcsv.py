"""The rows of a ``TrialLog`` as CSV lines, written with two processes where
it can.

Formatting the floats is most of a ``simulate`` job, and CPython does it on
one core.  ``write_rows`` splits the rows at n // 2 and forks a worker for
the second half, so the ``repr`` calls run on two cores; the file is
byte-identical to the serial loop.  Only ``simulate`` imports this module.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
import warnings
from pathlib import Path

# Fewest trials for which ``write_rows`` forks a worker.  A worker costs about
# 4 ms; on a 2-core VM it broke even at 3 000-4 000 trials and saved 22-29 %
# of the command's time at 10 000 (Python 3.11, fresh processes, 11 and 15
# pairs).
FORK_MIN_TRIALS = 8192


def format_rows(log, start: int = 0, stop=None):
    """The CSV lines of rows [start, stop) of ``log``: one format string per
    row, since float repr never holds a character csv would quote."""
    return ("%d,%d,%d,%r,%r\n" % row for row in log.rows(start, stop))


def available_cpus() -> int:
    """CPUs this process may run on.  A CPU quota is not seen; pinned to one
    CPU, a worker changed the command's time by -3 % to +14 % at 10 000 to
    200 000 trials."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def write_rows(fh, log) -> None:
    """Write every row of ``log`` to ``fh``.

    With two CPUs and at least ``FORK_MIN_TRIALS`` rows, a forked worker
    writes rows [n // 2, n) to an unlinked file next to ``fh`` while this
    process writes rows [0, n // 2); the worker's file is then copied after
    them.  Each process streams its rows, so memory does not grow with n.
    The file is byte-identical to the serial loop, which also runs the
    worker's range whenever the worker does not exit cleanly.
    """
    if log.n < FORK_MIN_TRIALS or available_cpus() < 2 or not hasattr(os, "fork"):
        fh.writelines(format_rows(log))
        return
    split = log.n // 2
    with tempfile.TemporaryFile(dir=Path(fh.name).parent) as tail:
        pid = _fork_worker(tail.fileno(), log, split)
        if pid is None:
            fh.writelines(format_rows(log))
            return
        try:
            fh.writelines(format_rows(log, 0, split))
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) == 0:
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh.buffer)
        else:
            fh.writelines(format_rows(log, split))


def _fork_worker(fd: int, log, split: int):
    """Fork a worker that writes rows [split, n) of ``log`` to ``fd``;
    returns its pid, or None where no worker could start."""
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork with other threads alive (numpy's
            # BLAS pool); the worker only formats rows and makes no BLAS call.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        _worker_exit(fd, log, split)
    return pid


def _worker_exit(fd: int, log, split: int):
    """Body of the forked worker: write rows [split, n) to ``fd`` through its
    own buffer and exit, 0 only if every byte was written.  ``os._exit`` in
    the ``finally`` means the worker never returns into the caller's stack
    and never flushes buffers it inherited, whatever is raised."""
    code = 1
    try:
        with open(fd, "w", encoding="utf-8", newline="") as out:
            out.writelines(format_rows(log, split))
        code = 0
    finally:
        os._exit(code)
