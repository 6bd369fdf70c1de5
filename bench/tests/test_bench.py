"""Tests of the benchmark's own code.  Run from the root of a checkout::

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import oracles  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = passrun.import_cli()

# A few jobs from every layer the traced run reports, small enough to run
# several times in a test.
SAMPLE_IDS = (
    "descent S4",
    "molien S4 --twist sign",
    "sympow S4 --n 24",
    "invgen B3 --degree 12",
    "duality taf_d6 --json",
    "hilbert taf_d15",
    "table --json",
)


def sample_jobs(directory: Path, seed: int) -> list[dict]:
    paths = inputs.write_inputs(directory, seed)
    jobs = {j["id"]: j for w in workloads.WORKLOADS for j in workloads.jobs_for(w, paths)}
    return [jobs[i] for i in SAMPLE_IDS]


def traced_pass(jobs: list[dict], spool: Path) -> tuple[dict, tracing.Recorder]:
    recorder = tracing.Recorder()
    recorder.install(tracing.TARGETS)
    try:
        result = passrun.run_jobs(cli, jobs, spool, recorder)
    finally:
        recorder.uninstall()
    passrun.check(jobs, result, spool)
    return result, recorder


def verdicts(result: dict) -> list:
    return [r["witness"] for r in result["jobs"]]


def counts(recorder: tracing.Recorder) -> dict:
    return {
        "calls": {k: v.calls for k, v in recorder.stats.items()},
        "values": dict(recorder.values),
        "spans": [(name, parent, job) for name, _, _, parent, job in recorder.spans],
    }


def test_recorder_restores_every_wrapped_name():
    before = passrun.module_state()
    recorder = tracing.Recorder()
    recorder.install(tracing.TARGETS)
    wrapped = {k for k, v in passrun.module_state().items() if before[k] != v}
    recorder.uninstall()
    # Names copied by ``from .x import y`` are wrapped too.
    assert "gorenstein_kit.cli.molien_series" in wrapped
    assert "gorenstein_kit.records.generate_group" in wrapped
    assert "gorenstein_kit.series.LaurentPolynomial.__rmul__" in wrapped
    assert passrun.module_state() == before


def test_restored_even_when_a_job_is_stopped(tmp_path):
    before = passrun.module_state()
    jobs = sample_jobs(tmp_path, 1)[:1]
    recorder = tracing.Recorder()
    recorder.install(tracing.TARGETS)
    try:
        result = passrun.run_jobs(cli, jobs, tmp_path / "spool", recorder, deadline_s=0.0)
    finally:
        recorder.uninstall()
    assert result["jobs"][0]["code"] == "budget"
    assert oracles.verdict(jobs[0], "budget", "") == ("exit code", 0, "budget")
    assert passrun.module_state() == before


def test_job_budget_stops_a_running_job(tmp_path, monkeypatch):
    job = next(j for j in sample_jobs(tmp_path, 1) if j["id"] == "descent S4")
    monkeypatch.setattr(passrun, "JOB_BUDGET_S", 0.01)
    result = passrun.run_jobs(cli, [job, job], tmp_path / "spool")
    assert [r["code"] for r in result["jobs"]] == ["budget", "budget"]
    assert result["wall_s"] < 1.0


def test_traced_runs_repeat_counts_and_self_times_sum_to_wall(tmp_path):
    jobs = sample_jobs(tmp_path, 1)
    first, rec1 = traced_pass(jobs, tmp_path / "spool1")
    second, rec2 = traced_pass(jobs, tmp_path / "spool2")
    assert verdicts(first) == [None] * len(jobs)
    assert counts(rec1) == counts(rec2)
    for result, rec in ((first, rec1), (second, rec2)):
        name, start, end, parent, _ = rec.spans[0]
        assert (name, parent) == ("bench.harness", -1)
        span_layers = {t.layer for t in tracing.TARGETS if t.span} | {"bench.harness"}
        total = sum(s.self_s for k, s in rec.stats.items() if k in span_layers)
        assert total == pytest.approx(end - start, rel=1e-9)
        assert end - start <= result["wall_s"]
    # Every span of a job carries that job's id.
    assert {job for *_, job in rec1.spans[1:]} == set(SAMPLE_IDS)


def test_two_seeds_give_the_same_verdicts_and_counts(tmp_path):
    jobs1 = sample_jobs(tmp_path / "s1", 1)
    jobs2 = sample_jobs(tmp_path / "s2", 2)
    assert (tmp_path / "s1" / "S4.group").read_text() != (tmp_path / "s2" / "S4.group").read_text()
    result1, rec1 = traced_pass(jobs1, tmp_path / "spool1")
    result2, rec2 = traced_pass(jobs2, tmp_path / "spool2")
    assert verdicts(result1) == verdicts(result2) == [None] * len(jobs1)
    assert counts(rec1) == counts(rec2)


def test_a_cache_kept_across_jobs_is_caught(tmp_path, monkeypatch):
    jobs = sample_jobs(tmp_path / "inputs", 1)
    real = cli.parse_ring_record
    seen: dict = {}

    def remembered(text, source="<ring>"):
        return seen.setdefault(text, real(text, source=source))

    # Once as a functools cache, once as a module-level dict.
    for plant, name in ((functools.lru_cache(real), "parse_ring_record"), (remembered, "_SEEN")):
        monkeypatch.setattr(cli, "parse_ring_record", plant)
        monkeypatch.setattr(cli, "_SEEN", seen, raising=False)
        result = passrun.run_jobs(cli, jobs, tmp_path / name)
        passrun.check(jobs, result, tmp_path / name)
        assert ["module state", "unchanged", f"gorenstein_kit.cli.{name}"] in verdicts(result)
        # Oracles still pass: only the changed state fails those jobs.
        assert all(w is None or w[0] == "module state" for w in verdicts(result))


def test_oracles_report_the_first_differing_field(tmp_path):
    job = next(j for j in sample_jobs(tmp_path, 1) if j["id"] == "descent S4")
    passrun.run_jobs(cli, [job], tmp_path / "spool")
    payload = json.loads(passrun.output(tmp_path / "spool", 0))
    payload["descent"]["solomon_supplement"] += 1
    witness = oracles.verdict(job, 0, json.dumps(payload))
    assert witness == ("solomon_supplement", -12, -11)


def test_speed_clock_leaves_out_its_kernel_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGVTALRM)
    clock = speed.SpeedClock()
    t0 = time.perf_counter()
    clock.start()
    while time.perf_counter() - t0 < 0.3:
        pass
    clock.stop()
    wall = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGVTALRM) is before
    # About six ticks ran the kernel inside the interval; raw time omits them.
    assert 0.2 < clock.raw_s < wall
    assert clock.scaled_s > 0
    clock.stop()  # stopping twice is harmless


def test_monomial_counts_match_partitions():
    # S_4 invariants sit in degrees 2, 4, 6, 8: dimension in degree 2k is
    # the number of partitions of k into parts of size at most 4.
    counts = oracles.monomial_counts([2, 4, 6, 8], [], 20)
    assert [counts[2 * k] for k in range(11)] == [oracles.partitions_bounded(k, 4) for k in range(11)]
    # degree 48 in x:8, y:12, z:24 has 6 monomials; the relation removes one
    assert oracles.monomial_counts([8, 12, 24], [48], 48)[48] == 6 - 1


def test_relabelled_groups_keep_their_class_structure():
    for seed in (1, 2, 3):
        for spec in inputs.GROUPS.values():
            gens = inputs.conjugated_generators(spec, seed)
            for g in gens:
                # a signed permutation matrix: one nonzero +-1 per row and column
                assert all(sorted(map(abs, row)) == [0] * (spec.n - 1) + [1] for row in g)
                assert all(sorted(map(abs, col)) == [0] * (spec.n - 1) + [1] for col in zip(*g))
    sizes = [size for _, size in inputs.canonical_cycle_types(5)]
    assert sizes == [1, 10, 15, 20, 30, 24, 20]


def test_benchmark_json_lists_exactly_the_metrics_the_runs_print():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.layer_metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"]]
    fake = {"job_s": 1.0, "peak_rss_mb": 1.0, "jobs": [{"ms": 1.0}, {"ms": 2.0}]}
    assert names == list(run.end_to_end([fake], [1.0]))
    rationale = json.loads((BENCH_DIR / "rationale.json").read_text())
    predicted = {m for entry in rationale["predictions"] for m in entry["per_layer"]}
    assert predicted <= set(run.layer_metric_names())
