"""Job lists of the four workloads.

A job is a dict: ``id`` (unique within its workload), ``argv`` (the
arguments passed to ``gorenstein_kit.cli.main``) and ``checks``, a list of
``(oracle name, parameters)`` pairs understood by ``oracles.verdict``.

- ``fixture_sweep``: every bundled fixture command, text and ``--json``,
  each checked against the digest of its output at a trusted commit.
  Fixed per-call costs dominate; groups have order at most 6.
- ``group_ladder``: descent, Molien and symmetric powers on S_4, S_5, B_3.
  Closure, conjugacy classes, per-element Molien terms, Solomon checks,
  series addition and canonical reduction dominate.
- ``long_series``: 20000-degree windows.  One long series expansion and
  rendering per job.
- ``invariant_basis``: ``invgen`` on the synthetic groups.  Reynolds
  averaging and row reduction dominate.
"""

from __future__ import annotations

import json
from pathlib import Path

from inputs import GENERATOR_DEGREE, GROUPS, canonical_cycle_types
from oracles import partitions_bounded

DIGESTS_PATH = Path(__file__).resolve().parent / "fixture_digests.json"

# Generator and relation degrees of the bundled rings, by name.
FIXTURE_RINGS = {
    "ku": ([2], []),
    "tmf2": ([4, 4], []),
    "taf_d6": ([8, 12, 24], [48]),
    "taf_d6_al_alpha": ([8, 24, 24], [48]),
    "taf_d6_al_beta": ([8, 12], []),
    "taf_d6_al_alphabeta": ([16, 24, 44], [88]),
    "taf_d14": ([4, 16], []),
    "taf_d10_sqrt2": ([4, 4, 12], [24]),
    "taf_d15": ([2, 6, 12], [24]),
}
FIXTURE_PAIRS = [
    ("ku", "c2_negation"),
    ("tmf2", "sigma3_standard"),
    ("taf_d6", "taf_d6_alpha"),
    ("taf_d6", "taf_d6_beta"),
    ("taf_d6", "taf_d6_alphabeta"),
]
HILBERT_DEFAULT_MAX_DEGREE = 40
LONG_WINDOW = 20000

WORKLOADS = ("fixture_sweep", "group_ladder", "long_series", "invariant_basis")


def fixture_argvs() -> list[list[str]]:
    """The fixture_sweep commands, each as text and with --json."""
    commands = [["table"]]
    for ring in FIXTURE_RINGS:
        commands += [["hilbert", ring], ["shift", ring], ["duality", ring]]
    for ring, group in FIXTURE_PAIRS:
        commands += [
            ["molien", ring, group],
            ["molien", ring, group, "--twist", "det"],
            ["sympow", ring, group, "--n", "12"],
            ["invgen", ring, group, "--degree", "24"],
            ["descent", ring, group],
        ]
    return [command + flag for command in commands for flag in ([], ["--json"])]


def _fixture_sweep(paths: dict[str, Path]) -> list[dict]:
    digests = json.loads(DIGESTS_PATH.read_text())
    jobs = []
    for argv in fixture_argvs():
        key = " ".join(argv)
        checks = [("digest", {"sha256": digests[key]})]
        if argv[0] == "hilbert":
            gens, rels = FIXTURE_RINGS[argv[1]]
            checks.append(("hilbert", {
                "degrees": gens, "relations": rels,
                "hi": HILBERT_DEFAULT_MAX_DEGREE, "json_mode": "--json" in argv,
            }))
        jobs.append({"id": key, "argv": argv, "checks": checks})
    return jobs


def _synthetic(paths: dict[str, Path], key: str) -> list[str]:
    return [str(paths[f"{key}.ring"]), str(paths[key])]


def _twist_shift(key: str) -> int:
    spec = GROUPS[key]
    return sum(spec.invariant_degrees) - sum(spec.generator_degrees)


def _molien_job(paths: dict[str, Path], key: str, twist: str) -> dict:
    spec = GROUPS[key]
    return {
        "id": f"molien {key} --twist {twist}",
        "argv": ["molien", *_synthetic(paths, key), "--twist", twist, "--json"],
        "checks": [("molien", {
            "order": spec.order, "reflections": spec.reflections,
            "invariant_degrees": list(spec.invariant_degrees), "hi": 48,
            "shift": _twist_shift(key),
        })],
    }


def _sympow_job(paths: dict[str, Path], key: str, n: int) -> dict:
    spec = GROUPS[key]
    identity = canonical_cycle_types(spec.n)[0][0]
    names = list(spec.characters)
    return {
        "id": f"sympow {key} --n {n}",
        "argv": ["sympow", *_synthetic(paths, key), "--n", str(n), "--json"],
        "checks": [("sympow", {
            "names": names, "dims": [spec.characters[c][identity] for c in names],
            "rank": spec.n, "n": n,
        })],
    }


def _group_ladder(paths: dict[str, Path]) -> list[dict]:
    jobs = []
    for key in ("S4", "S5", "B3"):
        spec = GROUPS[key]
        jobs.append({
            "id": f"descent {key}",
            "argv": ["descent", *_synthetic(paths, key), "--json"],
            "checks": [("descent", {
                "order": spec.order,
                "generator_degrees": list(spec.generator_degrees),
                "invariant_degrees": list(spec.invariant_degrees),
            })],
        })
    jobs += [
        _molien_job(paths, "S4", "det"),
        _molien_job(paths, "B3", "det"),
        # On a permutation representation the sign character is det.
        _molien_job(paths, "S4", "sign"),
        _sympow_job(paths, "S4", 24),
        _sympow_job(paths, "S5", 12),
    ]
    return jobs


def _long_series(paths: dict[str, Path]) -> list[dict]:
    jobs = []
    for ring, json_mode in (("taf_d6", True), ("taf_d15", False), ("taf_d10_sqrt2", True), ("ku", False)):
        gens, rels = FIXTURE_RINGS[ring]
        argv = ["hilbert", ring, "--max-degree", str(LONG_WINDOW)] + (["--json"] if json_mode else [])
        jobs.append({
            "id": " ".join(argv),
            "argv": argv,
            "checks": [("hilbert", {
                "degrees": gens, "relations": rels, "hi": LONG_WINDOW, "json_mode": json_mode,
            })],
        })
    argv = ["molien", "tmf2", "sigma3_standard", "--max-degree", str(LONG_WINDOW), "--json"]
    jobs.append({
        "id": " ".join(argv),
        "argv": argv,
        # S_3 on its reflection representation in degree 4: invariants in
        # degrees 8 and 12, three reflections.
        "checks": [("molien", {
            "order": 6, "reflections": 3, "invariant_degrees": [8, 12],
            "hi": LONG_WINDOW, "shift": 0,
        })],
    })
    return jobs


def _invariant_basis(paths: dict[str, Path]) -> list[dict]:
    jobs = []
    for key, degrees in (("S4", (8, 10, 12, 14, 16)), ("B3", (12, 16)), ("S5", (8, 10))):
        spec = GROUPS[key]
        step = spec.invariant_degrees[0]
        for degree in degrees:
            # S_n in degree 2k: partitions of k into parts <= n.
            # B_n in degree d: partitions of d/4 into parts <= n.
            dimension = partitions_bounded(degree // step, spec.n) if degree % step == 0 else 0
            jobs.append({
                "id": f"invgen {key} --degree {degree}",
                "argv": ["invgen", *_synthetic(paths, key), "--degree", str(degree), "--json"],
                "checks": [("invgen", {
                    "degree": degree, "dimension": dimension,
                    "generator_degrees": [GENERATOR_DEGREE] * spec.n,
                })],
            })
    return jobs


_BUILDERS = {
    "fixture_sweep": _fixture_sweep,
    "group_ladder": _group_ladder,
    "long_series": _long_series,
    "invariant_basis": _invariant_basis,
}


def jobs_for(workload: str, paths: dict[str, Path]) -> list[dict]:
    """The workload's jobs, in definition order, against generated inputs."""
    jobs = _BUILDERS[workload](paths)
    ids = [job["id"] for job in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"{workload}: duplicate job ids")
    return jobs
