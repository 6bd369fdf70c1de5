"""gorenstein-kit benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout::

    python3 bench/run.py --workload group_ladder --seed 1 --seconds 25 --trace 0

The load is a closed loop with one client: each pass is a fresh interpreter
(``passrun.py``) that runs the workload's jobs once each, one at a time, in
an order chosen by the seed, through ``gorenstein_kit.cli.main``.  Passes
repeat until the next one would end after ``--seconds``.  Every output is
checked by the benchmark's own oracles.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Witnesses of failed jobs go to
standard error.  Exit status is 0 when a result was printed, 1 when the
program could not be run at all, 2 for bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

sys.path.insert(0, str(BENCH_DIR))
import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, jobs_for  # noqa: E402

# A run must end within 180 s; passes get what is left of this.
RUN_LIMIT_S = 165.0
MIN_PASSES = 2
SETUP_SAMPLES = 9


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_header() -> dict:
    """Facts a reader needs to compare runs; printed to standard error."""
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((SRC_DIR / "gorenstein_kit").glob("*.py"))}
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_pinning": None, "cache_drop": None,
            "src_lines": lines, "src_lines_total": sum(lines.values())}


def bare_interpreter_s(samples: int) -> list[float]:
    """Wall times of fresh interpreters that do nothing."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=15)
        times.append(time.perf_counter() - t0)
    return times


def cli_setup_s(samples: int) -> list[float]:
    """Import-and-parser times of fresh interpreters at the reference speed."""
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")], env=child_env(),
                              check=True, timeout=15, capture_output=True, text=True)
        times.append(json.loads(proc.stdout)["scaled_s"])
    return times


def run_pass(jobs_path: Path, result_path: Path, trace: bool, deadline_s: float) -> dict:
    """One pass in a fresh interpreter; its result, or SystemExit(1)."""
    cmd = [sys.executable, str(BENCH_DIR / "passrun.py"), str(jobs_path), str(result_path),
           str(jobs_path.parent / "spool"), "--trace", str(int(trace)), "--deadline-s", f"{deadline_s:.3f}"]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                              timeout=deadline_s + 10)
    except subprocess.TimeoutExpired:
        sys.exit("error: a pass did not stop at its deadline")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"error: pass exited with {proc.returncode}")
    return json.loads(result_path.read_text())


def end_to_end(passes: list[dict], setup: list[float]) -> dict:
    """Every time here is at the reference speed of ``speed.py``."""
    job_ms = [job["ms"] for p in passes for job in p["jobs"]]
    return {
        "wall_s": (statistics.median(p["job_s"] for p in passes), "s"),
        "job_p50_ms": (statistics.median(job_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(job_ms, n=10)[8], "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(traced: list[dict], untraced: list[dict], floor: list[float]) -> dict:
    """Counts from the first traced pass; times as medians over the traced
    passes, each scaled by its pass's speed factor (see ``speed.py``)."""
    stats, values = traced[0]["stats"], traced[0]["values"]
    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        calls = stats.get(layer, [0, 0.0])[0]
        self_s = statistics.median(
            p["stats"].get(layer, [0, 0.0])[1] * p["speed_factor"] for p in traced)
        metrics[f"{layer}.{'attempts' if layer == 'series.reduce' else 'calls'}"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for name in tracing.EXTRA_VALUES:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (values.get(name, 0), unit)
    metrics["series.reduce.hit_ratio"] = (
        _ratio(values.get("series.reduce.hits", 0), stats.get("series.reduce", [0])[0]), "ratio")
    metrics["invariants.basis.useful_ratio"] = (
        _ratio(values.get("invariants.basis.dimension", 0),
               values.get("invariants.basis.monomials", 0)), "ratio")
    metrics["trace.wall_s"] = (statistics.median(p["wall_s"] * p["speed_factor"] for p in traced), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(p["raw_job_s"] * p["speed_factor"] for p in traced)
        - statistics.median(p["job_s"] for p in untraced), "s")
    metrics["setup.floor_s"] = (statistics.median(floor), "s")
    return metrics


def layer_metric_names() -> list[str]:
    """Every per-layer metric name, in the order ``per_layer`` emits them."""
    fake = {"stats": {}, "values": {}, "wall_s": 1.0, "job_s": 1.0, "raw_job_s": 1.0,
            "speed_factor": 1.0}
    return list(per_layer([fake], [fake], [1.0]))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gorenstein-kit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC_DIR / "gorenstein_kit" / "cli.py").is_file():
        print(f"error: no gorenstein_kit sources under {SRC_DIR}", file=sys.stderr)
        return 1

    print(json.dumps(machine_header()), file=sys.stderr)
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        paths = inputs.write_inputs(work / "inputs", args.seed)
        jobs = jobs_for(args.workload, paths)
        random.Random(args.seed).shuffle(jobs)
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))

        try:
            # The first import may compile bytecode; it is not a sample.
            cli_setup_s(1)
            # The traced run samples the bare-interpreter floor instead.
            setup = bare_interpreter_s(SETUP_SAMPLES) if args.trace else cli_setup_s(SETUP_SAMPLES)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            print(f"error: cannot import gorenstein_kit.cli: {exc}", file=sys.stderr)
            return 1

        measure_start = time.perf_counter()
        untraced: list[dict] = []
        traced: list[dict] = []
        longest = 0.0
        while True:
            elapsed = time.perf_counter() - measure_start
            rounds = len(traced) if args.trace else len(untraced)
            if rounds >= (1 if args.trace else MIN_PASSES) and elapsed + longest > args.seconds:
                break
            left = RUN_LIMIT_S - (time.perf_counter() - started)
            if left <= 0:
                break
            t0 = time.perf_counter()
            untraced.append(run_pass(jobs_path, work / "untraced.json", False, left))
            if args.trace:
                left = RUN_LIMIT_S - (time.perf_counter() - started)
                traced.append(run_pass(jobs_path, work / "traced.json", True, max(left, 0.0)))
            longest = max(longest, time.perf_counter() - t0)

        done = untraced + traced
        attempted = sum(len(p["jobs"]) for p in done)
        failures = [job for p in done for job in p["jobs"] if job["witness"] is not None]
        for job in failures[:20]:
            field, expected, got = job["witness"]
            print(f"FAILED {args.workload} [{job['id']}]: {field}: expected {expected}, got {got}",
                  file=sys.stderr)

        if args.trace:
            metrics = per_layer(traced, untraced, setup)
            spans = [p.pop("spans") for p in traced]
            (WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
        else:
            metrics = end_to_end(untraced, setup)
        raw = statistics.median(p["raw_job_s"] for p in untraced)
        print(f"{args.workload}: {len(untraced)} untraced and {len(traced)} traced passes "
              f"of {len(untraced[0]['jobs'])} jobs, {attempted} jobs attempted; "
              f"median raw pass time {raw:.4f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
