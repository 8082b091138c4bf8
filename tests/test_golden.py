"""The byte contract across commits: every golden config (``tests/golden``)
gives its pinned exit code and output bytes.  A case that pins a numpy
version other than the installed one gives its pinned exit code and values."""

import json

import numpy

from golden.regenerate import EXPECTED, run, values_close


def test_outputs_match_the_pinned_bytes(tmp_path):
    got = run(tmp_path)
    pins = json.loads(EXPECTED.read_text())
    assert got.keys() == pins.keys()
    for case, pin in pins.items():
        if pin.get("numpy", numpy.__version__) == numpy.__version__:
            assert got[case] == pin, case
        else:
            assert got[case]["exit"] == pin["exit"], case
            assert values_close(got[case]["values"], pin["values"]), case
