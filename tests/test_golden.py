"""The byte contract across commits: every golden config (``tests/golden``)
gives its pinned exit code and output bytes."""

import json

from golden.regenerate import EXPECTED, run


def test_outputs_match_the_pinned_bytes(tmp_path):
    assert run(tmp_path) == json.loads(EXPECTED.read_text())
