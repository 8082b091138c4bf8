"""``oplab simulate``: every trial of a seeded ensemble as one CSV row."""

from __future__ import annotations

from ..trialcsv import write_rows
from . import EXIT_OK, _create, _out_path, _trial_log, _write_footer


def run(args, config, inputs, footer):
    log = _trial_log(args, config, inputs, footer)
    path = _out_path(args, config, "simulate.csv")
    with _create(path) as fh:
        fh.write("i,X_i,xi_i,f_i,w_i\n")
        write_rows(fh, log)
        _write_footer(fh, footer)
    return EXIT_OK, [path]
