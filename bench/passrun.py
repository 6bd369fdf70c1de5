"""One timed pass: run every job of a job file once through ``cli.main``.

Runs in a fresh interpreter started by ``run.py``.  Usage::

    python3 bench/passrun.py JOBS.json RESULT.json SPOOL_DIR --trace 0|1 --deadline-s S

Each job gets at most ``JOB_BUDGET_S`` seconds, and no job may end after
``--deadline-s`` seconds from the start of the pass; a job that runs over
is stopped by SIGALRM and counted as failed.  Each job's output goes to
``SPOOL_DIR``; the oracles check it after the loop and after the pass's peak
memory is read, so checking costs neither pass time nor pass memory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from collections.abc import MutableMapping, MutableSequence, MutableSet
from pathlib import Path

import oracles
import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
JOB_BUDGET_S = 60.0


class JobBudgetExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so ``cli.main`` cannot catch it."""


def _on_alarm(signum, frame):
    raise JobBudgetExceeded()


def import_cli():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    from gorenstein_kit import cli

    if Path(cli.__file__).resolve().parent.parent != SRC_DIR.resolve():
        raise ImportError(f"gorenstein_kit imported from {cli.__file__}, not from {SRC_DIR}")
    return cli


def _size(value: object) -> int | None:
    info = getattr(value, "cache_info", None)
    if callable(info):
        return info().currsize
    if isinstance(value, (MutableMapping, MutableSequence, MutableSet)):
        return len(value)
    return None


def module_state() -> dict[str, tuple[int, int | None]]:
    """What a cache kept from one call to the next would change: for every
    attribute of every gorenstein_kit module and of the classes it defines,
    the identity of the value and the size of a mutable container or of a
    functools cache."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != tracing.PACKAGE and not name.startswith(tracing.PACKAGE + "."):
            continue
        namespaces = [(name, vars(module))]
        namespaces += [(f"{name}.{attr}", vars(value)) for attr, value in vars(module).items()
                       if isinstance(value, type) and value.__module__ == name]
        for prefix, namespace in namespaces:
            for attr, value in list(namespace.items()):
                state[f"{prefix}.{attr}"] = (id(value), _size(value))
    return state


def _changed(before: dict, after: dict) -> str | None:
    for name in sorted(before.keys() | after.keys()):
        if before.get(name) != after.get(name):
            return name
    return None


def run_jobs(cli, jobs: list[dict], spool: Path, recorder=None, deadline_s: float = float("inf"),
             clock: speed.SpeedClock | None = None) -> dict:
    """Run each job once; return timings, exit codes and output sizes.

    Job ``n``'s standard output is written to ``spool/n.out`` once its time
    is taken, so the pass holds no earlier job's output in memory.  A job
    that leaves the state of a gorenstein_kit module changed (see
    ``module_state``) gets the witness ``("module state", "unchanged",
    name)``: the passes would then measure a cache no CLI call can use.

    With a recorder, the whole loop is its root span ``bench.harness`` and
    each job's spans carry the job id.  Each job's ``raw_ms`` is its wall
    time; with a speed clock it leaves out the clock's kernel, and ``ms``
    is the job's time at the reference speed (see ``speed.py``).
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    start = time.perf_counter()

    def loop():
        state = module_state()
        for index, job in enumerate(jobs):
            left = deadline_s - (time.perf_counter() - start)
            out, err = io.StringIO(), io.StringIO()
            if recorder is not None:
                recorder.job = job["id"]
            t0 = time.perf_counter()
            if clock is not None:
                raw0, scaled0 = clock.raw_s, clock.scaled_s
            try:
                if left <= 0:
                    raise JobBudgetExceeded()
                signal.setitimer(signal.ITIMER_REAL, min(JOB_BUDGET_S, left))
                if clock is not None:
                    clock.start()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(job["argv"])
            except JobBudgetExceeded:
                code = "budget"
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if clock is not None:
                    clock.stop()
            if clock is None:
                ms = raw_ms = (time.perf_counter() - t0) * 1000
            else:
                ms, raw_ms = (clock.scaled_s - scaled0) * 1000, (clock.raw_s - raw0) * 1000
            data = out.getvalue().encode()
            (spool / f"{index}.out").write_bytes(data)
            if recorder is not None:
                recorder.add("cli.output_bytes", len(data))
            after = module_state()
            changed = _changed(state, after)
            state = after
            results.append({"id": job["id"], "ms": ms, "raw_ms": raw_ms, "code": code,
                            "witness": None if changed is None else ("module state", "unchanged", changed),
                            "stdout_bytes": len(data), "stderr": err.getvalue()[-500:]})
            del data  # not held while the next job runs

    spool.mkdir(parents=True, exist_ok=True)
    try:
        if recorder is None:
            loop()
        else:
            recorder.run("bench.harness", loop)
            recorder.job = None
    finally:
        signal.signal(signal.SIGALRM, previous)
    return {
        "wall_s": time.perf_counter() - start,
        "job_s": sum(job["ms"] for job in results) / 1000,
        "raw_job_s": sum(job["raw_ms"] for job in results) / 1000,
        "jobs": results,
    }


def output(spool: Path, index: int) -> str:
    return (spool / f"{index}.out").read_text(encoding="utf-8")


def check(jobs: list[dict], result: dict, spool: Path) -> None:
    """Set each finished job's witness: its first failed oracle check, or
    else the module state it changed, or None."""
    for index, (job, done) in enumerate(zip(jobs, result["jobs"])):
        witness = oracles.verdict(job, done["code"], output(spool, index)) or done["witness"]
        done["witness"] = None if witness is None else [str(x)[:200] for x in witness]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("jobs")
    parser.add_argument("result")
    parser.add_argument("spool")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline-s", type=float, required=True)
    args = parser.parse_args()
    jobs = json.loads(Path(args.jobs).read_text())
    cli = import_cli()

    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        recorder.install(tracing.TARGETS)
    # Inside a traced pass the speed kernel would land in the spans, so the
    # pass is scaled as a whole by kernels run just before and after it.
    clock = None if args.trace else speed.SpeedClock()
    before = speed.factor()
    try:
        result = run_jobs(cli, jobs, Path(args.spool), recorder, args.deadline_s, clock)
    finally:
        if recorder is not None:
            recorder.uninstall()
    result["speed_factor"] = (before + speed.factor()) / 2
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(jobs, result, Path(args.spool))
    if recorder is not None:
        result["stats"] = {k: [v.calls, v.self_s] for k, v in recorder.stats.items()}
        result["values"] = recorder.values
        result["spans"] = recorder.spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
