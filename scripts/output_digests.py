#!/usr/bin/env python3
"""Print the sha256 of the standard output and standard error, and the exit
code, of a fixed list of gorenstein-kit commands, one line per command, so
that a claim of byte-identical output is one diff between two checkouts.

The commands are:
- every job of the four benchmark workloads, at each input seed given, as
  ``bench/inputs.py`` and ``bench/workloads.py`` define them (this script
  only imports them);
- on every bundled fixture pair: ``molien`` with every twist (trivial, det
  and each irreducible of the group's table), ``descent``, ``sympow`` and
  ``invgen``, in text and with ``--json``.

Each runs in-process through ``gorenstein_kit.cli.main``, imported from the
``PYTHONPATH``.  The workload input files are written under this checkout's
``.bench_work/output_digests`` and removed afterwards; the same checkout
writes them to the same paths for any source tree.  Usage, from the root of
a checkout::

    PYTHONPATH=src python3 scripts/output_digests.py --seeds 3 11 > change.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/output_digests.py --seeds 3 11 > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work" / "output_digests"
SYMPOW_N = (0, 12, 40)
INVGEN_DEGREES = range(0, 49, 4)

sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402
from workloads import FIXTURE_PAIRS, WORKLOADS, jobs_for  # noqa: E402


def fixture_argvs() -> list[list[str]]:
    """The per-pair commands, each in text and with --json."""
    from gorenstein_kit.dataset import load_group_fixture
    from gorenstein_kit.invariants import NoBuiltinCharacterTable, builtin_character_table

    commands = []
    for ring, group_name in FIXTURE_PAIRS:
        group, table = load_group_fixture(group_name).build()
        with contextlib.suppress(NoBuiltinCharacterTable):
            table = table or builtin_character_table(group)
        names = table.names if table else ()
        commands += [["molien", ring, group_name, "--twist", twist] for twist in ("trivial", "det", *names)]
        commands.append(["descent", ring, group_name])
        commands += [["sympow", ring, group_name, "--n", str(n)] for n in SYMPOW_N]
        commands += [["invgen", ring, group_name, "--degree", str(d)] for d in INVGEN_DEGREES]
    return [command + flag for command in commands for flag in ([], ["--json"])]


def digest_line(main, label: str, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    digests = (hashlib.sha256(stream.getvalue().encode()).hexdigest() for stream in (out, err))
    return f"{code} {' '.join(digests)} {label}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="benchmark input seeds")
    args = parser.parse_args(argv)
    from gorenstein_kit import cli

    print(f"gorenstein_kit from {Path(cli.__file__).parent}", file=sys.stderr)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    try:
        for seed in args.seeds:
            paths = inputs.write_inputs(WORK_DIR / f"seed{seed}", seed)
            for workload in WORKLOADS:
                for job in jobs_for(workload, paths):
                    print(digest_line(cli.main, f"{workload} seed {seed}: {job['id']}", job["argv"]))
        for command in fixture_argvs():
            print(digest_line(cli.main, " ".join(command), command))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
