#!/usr/bin/env python3
"""Time the CLI's start-up in two checkouts, alternating, and print both.

Each sample is a fresh interpreter that runs ``import gorenstein_kit.cli``
and ``cli.build_parser()``, the part of a CLI call that ``bench/setup_probe.py``
times as ``setup_s``, and reports its wall time and the modules it loaded.
The two checkouts take turns, the parent first in even samples.  Each
side's ``src`` is copied to a temporary directory first, so neither
checkout gets any new file and bytecode already in a checkout is not read.
Two ways are measured:

- ``no_bytecode``: with PYTHONDONTWRITEBYTECODE=1, so the package is
  compiled from its sources on every start, as ``setup_s`` sees it; the
  standard library loads its installed bytecode;
- ``bytecode``: with bytecode written under a temporary PYTHONPYCACHEPREFIX
  by one untimed start per side, then read by every timed one.

Standard output is one JSON object: per way and side the median and
quartiles in milliseconds with every sample, and per side the modules the
start-up loaded, with those that only one side loaded.  Usage, from the
root of a checkout::

    python3 scripts/import_cost.py --parent ../parent --samples 21
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = """\
import sys, time
before = set(sys.modules)
start = time.perf_counter()
import gorenstein_kit.cli as cli
cli.build_parser()
elapsed = time.perf_counter() - start
import json
print(json.dumps({"s": elapsed, "modules": sorted(set(sys.modules) - before)}))
"""


def start_once(src: Path, env: dict[str, str]) -> dict:
    """Seconds and modules loaded of one fresh interpreter's start-up."""
    proc = subprocess.run([sys.executable, "-c", PROBE], env={**env, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=30)
    return json.loads(proc.stdout)


def summary(runs_s: list[float]) -> dict:
    runs = [s * 1000 for s in runs_s]
    q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median_ms": round(median, 2), "q1_ms": round(q1, 2), "q3_ms": round(q3, 2),
            "runs_ms": [round(r, 2) for r in runs]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--samples", type=int, default=21, help="timed starts per side and way")
    args = parser.parse_args(argv)
    if args.samples < 1:
        parser.error("--samples must be at least 1")
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    for side, checkout in checkouts.items():
        if not (checkout / "src" / "gorenstein_kit" / "cli.py").is_file():
            parser.error(f"no src/gorenstein_kit/cli.py in the {side} checkout {checkout}")

    bytecode_vars = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    base_env = {k: v for k, v in os.environ.items() if k not in bytecode_vars}
    out: dict = {"probe": "import gorenstein_kit.cli; cli.build_parser()", "samples": args.samples,
                 "python": platform.python_version(), "nproc": os.cpu_count()}
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {}
        for side, checkout in checkouts.items():
            srcs[side] = Path(tmp) / side / "src"
            shutil.copytree(checkout / "src", srcs[side], ignore=shutil.ignore_patterns("__pycache__"))
        ways = {
            "no_bytecode": {**base_env, "PYTHONDONTWRITEBYTECODE": "1"},
            "bytecode": {**base_env, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache")},
        }
        modules = {}
        for way, env in ways.items():
            for side, src in srcs.items():
                # Untimed: names the modules loaded and, in the second way, writes the bytecode.
                modules[side] = start_once(src, env)["modules"]
            runs: dict[str, list[float]] = {"parent": [], "change": []}
            for k in range(args.samples):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    runs[side].append(start_once(srcs[side], env)["s"])
            out[way] = {side: summary(runs[side]) for side in runs}
            out[way]["relative_change"] = round(
                out[way]["change"]["median_ms"] / out[way]["parent"]["median_ms"] - 1, 4)
            print(f"{way}: parent {out[way]['parent']['median_ms']} ms, "
                  f"change {out[way]['change']['median_ms']} ms", file=sys.stderr)
    out["modules"] = {side: {"count": len(names), "loaded": names} for side, names in modules.items()}
    out["modules"]["parent_only"] = sorted(set(modules["parent"]) - set(modules["change"]))
    out["modules"]["change_only"] = sorted(set(modules["change"]) - set(modules["parent"]))
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
