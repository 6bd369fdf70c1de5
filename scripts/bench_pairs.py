#!/usr/bin/env python3
"""Run the benchmark in two checkouts, alternating, and print the pairs.

For each seed given, ``bench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in a parent checkout and once in this one, for every
workload named; even pairs run the parent first, odd pairs this checkout
first.  Before every run the ``__pycache__`` directories of both checkouts
are removed, so that neither side starts with compiled bytecode the other
lacks (``setup_s`` times the import of the package, and compiling its
sources is a large part of it).  Nothing else in either checkout is
changed; each runs its own ``bench/`` on its own ``src/``.

Standard output is one JSON object, the body of a ``BENCH_*.json`` file:
per workload, the attempted and failed job counts of each side and, for
each end-to-end metric of ``BENCHMARK.json``, both sides' runs, medians and
quartiles, and in how many pairs this checkout was better.  Progress goes
to standard error.  Usage, from the root of a checkout::

    python3 scripts/bench_pairs.py --parent ../parent --workloads group_ladder --seeds 1 2 3 4 5
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def clear_bytecode(checkout: Path) -> None:
    for cache in list(checkout.rglob("__pycache__")):
        shutil.rmtree(cache, ignore_errors=True)


def revision(checkout: Path) -> str | None:
    """The checkout's commit, None outside a git repository."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(result line, machine header) of one run of the checkout's bench/run.py."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{checkout.name}: {' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), json.loads(proc.stderr.splitlines()[0])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": round(statistics.median(runs), 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "runs": [round(r, 6) for r in runs]}


def compare(results: list[dict[str, dict]], metrics: list[dict]) -> dict:
    """Both sides' runs of one workload, metric by metric."""
    out: dict = {
        "pairs": len(results),
        "attempted": {side: sum(r[side]["attempted"] for r in results) for side in ("parent", "change")},
        "failed": {side: sum(r[side]["failed"] for r in results) for side in ("parent", "change")},
        "correct": {side: all(r[side]["correct"] for r in results) for side in ("parent", "change")},
        "order": ["parent first" if k % 2 == 0 else "change first" for k in range(len(results))],
        "metrics": {},
    }
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in results]
        change = [r["change"]["metrics"][name]["value"] for r in results]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        base = statistics.median(parent)
        out["metrics"][name] = {
            "parent": summary(parent),
            "change": summary(change),
            f"change_{metric['better']}_in_pairs": f"{wins} of {len(results)}",
            "relative_change": round(statistics.median(change) / base - 1, 4) if base else None,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for side, checkout in sides.items():
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py in the {side} checkout {checkout}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    headers: dict[str, dict] = {}
    workloads = {}
    for workload in args.workloads:
        results = []
        for k, seed in enumerate(args.seeds):
            pair = {}
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                for checkout in sides.values():
                    clear_bytecode(checkout)
                pair[side], headers[side] = run_once(sides[side], workload, seed, args.seconds)
                wall = pair[side]["metrics"]["wall_s"]["value"]
                print(f"{workload} seed {seed} {side}: wall_s {wall:.6f}", file=sys.stderr)
            results.append(pair)
        workloads[workload] = compare(results, metrics)
    for checkout in sides.values():
        clear_bytecode(checkout)

    print(json.dumps({
        "harness": (
            f"python3 bench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0, one"
            f" alternating parent/change pair per seed {args.seeds} (even pairs parent first), each"
            " side in its own checkout, every __pycache__ of both removed before each run"
        ),
        "parent": revision(sides["parent"]),
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "src_lines_total": {side: headers[side]["src_lines_total"] for side in ("parent", "change")},
        "workloads": workloads,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
