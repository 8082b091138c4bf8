"""The rows of a ``TrialLog`` as CSV lines, written with two processes where
it can.

Formatting the floats is most of a ``simulate`` job, and CPython does it on
one core.  ``write_rows`` splits the rows at n // 2 and forks a worker
(`oplab._fork`) for the second half, so the ``repr`` calls run on two cores;
the file is byte-identical to the serial loop.  Only ``simulate`` imports
this module.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from ._fork import available_cpus, beside

# Fewest trials for which ``write_rows`` forks a worker.  A worker costs about
# 4 ms; on a 2-core VM it broke even at 3 000-4 000 trials and saved 22-29 %
# of the command's time at 10 000 (Python 3.11, fresh processes, 11 and 15
# pairs).
FORK_MIN_TRIALS = 8192


def format_rows(log, start: int = 0, stop=None):
    """The CSV lines of rows [start, stop) of ``log``: one format string per
    row, since float repr never holds a character csv would quote."""
    return ("%d,%d,%d,%r,%r\n" % row for row in log.rows(start, stop))


def write_rows(fh, log) -> None:
    """Write every row of ``log`` to ``fh``.

    With two CPUs and at least ``FORK_MIN_TRIALS`` rows, a forked worker
    writes rows [n // 2, n) to an unlinked file next to ``fh`` while this
    process writes rows [0, n // 2); the worker's file is then copied after
    them.  Each process streams its rows, so memory does not grow with n.
    The file is byte-identical to the serial loop, which also runs the
    worker's range whenever the worker does not exit cleanly.
    """
    if log.n < FORK_MIN_TRIALS or available_cpus() < 2:
        fh.writelines(format_rows(log))
        return
    split = log.n // 2
    with tempfile.TemporaryFile(dir=Path(fh.name).parent) as tail:
        if beside(lambda: _write_to(tail.fileno(), log, split),
                  lambda: fh.writelines(format_rows(log, 0, split))):
            fh.flush()
            tail.seek(0)
            shutil.copyfileobj(tail, fh.buffer)
        else:
            fh.writelines(format_rows(log, split))


def _write_to(fd: int, log, split: int) -> None:
    """The worker's part: rows [split, n) to ``fd``, through its own buffer."""
    with open(fd, "w", encoding="utf-8", newline="") as out:
        out.writelines(format_rows(log, split))
