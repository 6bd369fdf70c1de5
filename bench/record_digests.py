"""Record sha256 digests of every fixture_sweep output, text and ``--json``.

The fixture_sweep oracle compares against these, so they are recorded once
from a trusted commit and committed; re-record only when a change to the
output is intended.  Usage, from the root of a checkout::

    python3 bench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from passrun import import_cli, output, run_jobs
from workloads import DIGESTS_PATH, fixture_argvs

SPOOL = DIGESTS_PATH.parent.parent / ".bench_work" / "record_digests"


def main() -> int:
    jobs = [{"id": " ".join(argv), "argv": argv} for argv in fixture_argvs()]
    shutil.rmtree(SPOOL, ignore_errors=True)
    try:
        result = run_jobs(import_cli(), jobs, SPOOL)
        digests = {}
        for index, job in enumerate(result["jobs"]):
            if job["code"] != 0 or job["witness"] is not None:
                print(f"error: {job['id']}: exit {job['code']}, {job['witness']}", file=sys.stderr)
                return 1
            digests[job["id"]] = hashlib.sha256(output(SPOOL, index).encode()).hexdigest()
    finally:
        shutil.rmtree(SPOOL, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
