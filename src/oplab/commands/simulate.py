"""``oplab simulate``: every trial of a seeded ensemble as one CSV row."""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from .._fork import beside
from . import EXIT_OK, _create, _out_path, _trial_log, _write_footer

# Fewest trials for which ``write_rows`` forks a worker.  A worker costs about
# 4 ms; on a 2-core VM it broke even at 3 000-4 000 trials and saved 22-29 %
# of the command's time at 10 000 (Python 3.11, fresh processes, 11 and 15
# pairs).
FORK_MIN_TRIALS = 8192


def run(args, config, inputs, footer):
    log = _trial_log(args, config, inputs, footer)
    path = _out_path(args, config, "simulate.csv")
    with _create(path) as fh:
        fh.write("i,X_i,xi_i,f_i,w_i\n")
        write_rows(fh, log)
        _write_footer(fh, footer)
    return EXIT_OK, [path]


def format_rows(log, start: int = 0, stop=None):
    """The CSV lines of rows [start, stop) of ``log``: one format string per
    row, since float repr never holds a character csv would quote."""
    return ("%d,%d,%d,%r,%r\n" % row for row in log.rows(start, stop))


def write_rows(fh, log) -> None:
    """Write every row of ``log`` to ``fh``.

    Formatting the floats is most of a ``simulate`` job, and CPython does it
    on one core; so with at least ``FORK_MIN_TRIALS`` rows, a forked worker
    writes rows [n // 2, n) to an unlinked file next to ``fh`` while this
    process writes rows [0, n // 2); the worker's file is then copied after
    them.  Each process streams its rows, so memory does not grow with n.
    The file is byte-identical to the serial loop; this process writes the
    worker's range itself whenever no worker starts or it fails.
    """
    if log.n < FORK_MIN_TRIALS:
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
