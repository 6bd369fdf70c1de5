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
- long coefficient windows: ``hilbert`` on every bundled ring and
  trivial-twist ``molien`` on every fixture pair, at each
  ``--max-degree`` of ``WINDOW_DEGREES``, in text and with ``--json``.
- a fixed list of commands that fail: a ring path that does not exist
  (for each subcommand that takes a ring), a group with no fixture, an
  unknown ``--twist``, ``sympow`` on a group file with neither a
  ``[character_table]`` nor a built-in table, a bad
  ``GORENSTEIN_KIT_MAX_ORDER``, and three usage errors, which exit 2.
- the same long-window commands at each ``--max-degree`` of
  ``PIECE_DEGREES``.  They come after the others so that the lines before
  them stay comparable with the output of a checkout whose list ended with
  the failing commands.
- last, on a group file with two grading blocks, one of dimension 2 (S_3
  through its standard representation in degree 4 and its sign in degree
  6), and a ring on generators of degrees 4, 4 and 6: ``molien`` with every
  twist, ``descent`` and ``sympow``, in text and with ``--json``.  No
  bundled fixture has a second block, where the det weight is a product
  over the blocks and ``sympow`` divides by each block's factor in turn.
- after those, ``hilbert`` at each ``--max-degree`` of ``SPARSE_DEGREES``,
  in text and with ``--json``, on two ring files: one of Krull dimension 0
  (a generator of degree 2, a relation of degree 4), whose series 1 + t^2
  leaves every piece after the first without a row, and one on generators
  of degrees 3 and 1000, whose later pieces skip irregular runs of zeros.

Each runs in-process through ``gorenstein_kit.cli.main``, imported from the
``PYTHONPATH``.  The workload input files are written under this checkout's
``.bench_work/output_digests`` and removed afterwards; the same checkout
writes them to the same paths for any source tree, and the output and
labels name them relative to the checkout's root, so two checkouts' lines
can be compared directly.  Usage, from the root of a checkout::

    PYTHONPATH=src python3 scripts/output_digests.py --seeds 3 11 > change.txt
    PYTHONPATH=/path/to/parent/src python3 scripts/output_digests.py --seeds 3 11 > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work" / "output_digests"
SYMPOW_N = (0, 12, 40)
INVGEN_DEGREES = range(0, 49, 4)
# Windows of 1023, 1024, 1025 and 2049 coefficients, 23 to 49 coefficients
# into a second or third piece of the 1000 that ``cli`` renders per piece,
# and the window cap.
WINDOW_DEGREES = (1022, 1023, 1024, 2048, 200_000)
# Windows of 999, 1000, 1001, 2000 and 2001 coefficients, on either side of
# the end of the first and the second piece.
PIECE_DEGREES = (998, 999, 1000, 1999, 2000)
# Windows of one piece, of two with one coefficient in the second, of three
# and of 21, on the two sparse ring files.
SPARSE_DEGREES = (999, 1000, 2000, 20000)

sys.path.insert(0, str(ROOT / "bench"))
import inputs  # noqa: E402
from workloads import FIXTURE_PAIRS, WORKLOADS, jobs_for  # noqa: E402


def fixture_argvs() -> list[list[str]]:
    """The per-pair commands, each in text and with --json."""
    from gorenstein_kit.dataset import load_group_fixture
    from gorenstein_kit.invariants import NoBuiltinCharacterTable

    commands = []
    for ring, group_name in FIXTURE_PAIRS:
        record = load_group_fixture(group_name)
        names = ()
        with contextlib.suppress(NoBuiltinCharacterTable):
            names = record.table(record.build()).names
        commands += [["molien", ring, group_name, "--twist", twist] for twist in ("trivial", "det", *names)]
        commands.append(["descent", ring, group_name])
        commands += [["sympow", ring, group_name, "--n", str(n)] for n in SYMPOW_N]
        commands += [["invgen", ring, group_name, "--degree", str(d)] for d in INVGEN_DEGREES]
    return [command + flag for command in commands for flag in ([], ["--json"])]


def window_argvs(degrees: tuple[int, ...]) -> list[list[str]]:
    """The long-window commands at each of ``degrees``, each in text and
    with --json."""
    from gorenstein_kit.dataset import RING_FIXTURES

    commands = [["hilbert", ring] for ring in RING_FIXTURES]
    commands += [["molien", ring, group_name] for ring, group_name in FIXTURE_PAIRS]
    return [
        command + ["--max-degree", str(degree)] + flag
        for command in commands for degree in degrees for flag in ([], ["--json"])
    ]


def error_argvs(work_dir: Path) -> list[tuple[list[str], dict[str, str]]]:
    """(argv, environment overrides) of each failing command; the input files
    they need are written under ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    c3 = work_dir / "c3.group"
    c3.write_text("[group]\nname = c3\nblock = 4 2\n\n[generator]\nrow = 0 -1\nrow = 1 -1\n")
    base = work_dir / "base.ring"
    base.write_text("[ring]\nname = base\ngenerator = x 4\ngenerator = y 4\n")
    missing = str(work_dir / "no_such.ring")
    group_args = {"molien": [], "sympow": ["--n", "2"], "invgen": ["--degree", "4"], "descent": []}
    commands = [([command, missing], {}) for command in ("hilbert", "shift", "duality")]
    commands += [([command, missing, "sigma3_standard", *extra], {}) for command, extra in group_args.items()]
    return commands + [
        (["molien", "tmf2", "no_such_group"], {}),
        (["molien", "tmf2", "sigma3_standard", "--twist", "no_such_twist"], {}),
        (["sympow", str(base), str(c3), "--n", "2"], {}),
        (["molien", "tmf2", "sigma3_standard"], {"GORENSTEIN_KIT_MAX_ORDER": "abc"}),
        (["invgen", "tmf2", "sigma3_standard", "--degree", "-1"], {}),
        (["hilbert", "ku", "--max-degree", "200001"], {}),
        ([], {}),
    ]


def two_block_argvs(work_dir: Path) -> list[list[str]]:
    """The two-block commands, each in text and with --json; the group and
    ring files they read are written under ``work_dir``."""
    from gorenstein_kit.dataset import load_group_fixture

    work_dir.mkdir(parents=True, exist_ok=True)
    group, ring = work_dir / "mixed.group", work_dir / "mixed.ring"
    group.write_text(
        "[group]\nname = mixed\nblock = 4 2\nblock = 6 1\n\n"
        "[generator]\nrow = -1 1 0\nrow = 0 1 0\nrow = 0 0 -1\n\n"
        "[generator]\nrow = 1 0 0\nrow = 1 -1 0\nrow = 0 0 -1\n"
    )
    ring.write_text("[ring]\nname = mixed\ngenerator = a 4\ngenerator = b 4\ngenerator = c 6\n")
    record = load_group_fixture(str(group))
    pair, twists = [str(ring), str(group)], ("trivial", "det", *record.table(record.build()).names)
    commands = [["molien", *pair, "--twist", twist] for twist in twists]
    commands.append(["descent", *pair])
    commands += [["sympow", *pair, "--n", str(n)] for n in SYMPOW_N]
    return [command + flag for command in commands for flag in ([], ["--json"])]


def sparse_argvs(work_dir: Path) -> list[list[str]]:
    """The sparse-window commands, each in text and with --json; the ring
    files they read are written under ``work_dir``."""
    work_dir.mkdir(parents=True, exist_ok=True)
    finite, gaps = work_dir / "finite.ring", work_dir / "gaps.ring"
    finite.write_text("[ring]\nname = finite\ngenerator = x 2\nrelation = f 4\n")
    gaps.write_text("[ring]\nname = gaps\ngenerator = x 3\ngenerator = y 1000\n")
    return [
        ["hilbert", str(ring), "--max-degree", str(degree)] + flag
        for ring in (finite, gaps) for degree in SPARSE_DEGREES for flag in ([], ["--json"])
    ]


def digest_line(main, label: str, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    # Paths under this checkout are hashed relative to its root, so that two
    # checkouts at different places print the same lines.
    texts = (stream.getvalue().replace(f"{ROOT}/", "") for stream in (out, err))
    digests = (hashlib.sha256(text.encode()).hexdigest() for text in texts)
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
        for command in fixture_argvs() + window_argvs(WINDOW_DEGREES):
            print(digest_line(cli.main, " ".join(command), command))
        for command, env in error_argvs(WORK_DIR / "errors"):
            label = " ".join([*(f"{k}={v}" for k, v in env.items()), "gorenstein-kit", *command])
            with mock.patch.dict(os.environ, env):
                print(digest_line(cli.main, label.replace(f"{ROOT}/", ""), command))
        for command in window_argvs(PIECE_DEGREES):
            print(digest_line(cli.main, " ".join(command), command))
        for command in two_block_argvs(WORK_DIR / "two_blocks") + sparse_argvs(WORK_DIR / "sparse"):
            print(digest_line(cli.main, " ".join(command).replace(f"{ROOT}/", ""), command))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
