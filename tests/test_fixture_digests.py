"""Every bundled-fixture command prints byte-identical output.

``bench/fixture_digests.json`` maps each command of the benchmark's
fixture sweep, text and ``--json``, to the sha256 of its standard output at
a trusted commit.  A refactor that changes any of those bytes fails here,
in tier-1, before the benchmark sees it.  The digests are recorded by
``bench/record_digests.py`` only for intended output changes.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from gorenstein_kit.cli import main

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "bench" / "fixture_digests.json"


def test_fixture_outputs_match_their_recorded_digests():
    if not DIGESTS_PATH.is_file():
        pytest.skip(f"no recorded digests at {DIGESTS_PATH.name}")
    digests = json.loads(DIGESTS_PATH.read_text())
    assert digests
    mismatched = []
    for command, digest in digests.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(command.split())
        actual = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, actual) != (0, digest):
            mismatched.append(f"{command}: exit {code}, sha256 {actual[:12]}")
    assert not mismatched, mismatched
