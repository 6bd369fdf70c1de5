"""Seeded synthetic inputs: S_n and B_n acting on polynomial rings.

The groups are written as gorenstein-kit group files, the rings as ring
files.  Every generator of every ring sits in degree 2.  The seed picks a
signed permutation matrix P, and each group generator g is written as
P^-1 g P, so entries stay in {-1, 0, 1} and the group is only relabelled:
group order, invariant degrees, class sizes and characters are unchanged,
which is what keeps the oracles in ``oracles.py`` valid for every seed.

Nothing here imports gorenstein_kit.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path

GENERATOR_DEGREE = 2

# Rational character tables of S_4 and S_5, keyed by cycle type.  Every
# irreducible character of S_n is integer valued.
_S4_CHARACTERS = {
    "triv": {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    "sign": {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
    "std": {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    "std_sign": {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    "two": {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
}
_S5_TYPES = ((1, 1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 1), (3, 1, 1), (4, 1), (5,), (3, 2))
_S5_CHARACTERS = {
    name: dict(zip(_S5_TYPES, values))
    for name, values in (
        ("triv", (1, 1, 1, 1, 1, 1, 1)),
        ("sign", (1, -1, 1, 1, -1, 1, -1)),
        ("std", (4, 2, 0, 1, 0, -1, -1)),
        ("std_sign", (4, -2, 0, 1, 0, -1, 1)),
        ("five", (5, 1, 1, -1, -1, 0, 1)),
        ("five_sign", (5, -1, 1, -1, 1, 0, -1)),
        ("six", (6, 0, -2, 0, 0, 1, 0)),
    )
}
CHARACTERS = {4: _S4_CHARACTERS, 5: _S5_CHARACTERS}


@dataclass(frozen=True)
class GroupSpec:
    """What the oracles know about one synthetic group."""

    name: str
    family: str  # "S" or "B"
    n: int

    @property
    def order(self) -> int:
        return math.factorial(self.n) * (2 ** self.n if self.family == "B" else 1)

    @property
    def invariant_degrees(self) -> tuple[int, ...]:
        step = GENERATOR_DEGREE * (2 if self.family == "B" else 1)
        return tuple(step * k for k in range(1, self.n + 1))

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return (GENERATOR_DEGREE,) * self.n

    @property
    def reflections(self) -> int:
        return self.n * self.n if self.family == "B" else self.n * (self.n - 1) // 2

    @property
    def characters(self) -> dict[str, dict[tuple[int, ...], int]] | None:
        return CHARACTERS.get(self.n) if self.family == "S" else None


GROUPS = {
    "S4": GroupSpec("S4", "S", 4),
    "S5": GroupSpec("S5", "S", 5),
    "B3": GroupSpec("B3", "B", 3),
}

Matrix = list[list[int]]


def _permutation_matrix(perm: list[int]) -> Matrix:
    """Matrix sending coordinate j to coordinate perm[j]."""
    n = len(perm)
    m = [[0] * n for _ in range(n)]
    for j, i in enumerate(perm):
        m[i][j] = 1
    return m


def _mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def base_generators(spec: GroupSpec) -> list[Matrix]:
    """A transposition, an n-cycle and, for B_n, one sign flip."""
    n = spec.n
    transposition = _permutation_matrix([1, 0] + list(range(2, n)))
    cycle = _permutation_matrix([(j + 1) % n for j in range(n)])
    gens = [transposition, cycle]
    if spec.family == "B":
        flip = _permutation_matrix(list(range(n)))
        flip[0][0] = -1
        gens.append(flip)
    return gens


def relabelling(n: int, rng: random.Random) -> tuple[Matrix, Matrix]:
    """A seed-chosen signed permutation matrix P and its inverse P^T."""
    perm = list(range(n))
    rng.shuffle(perm)
    p = _permutation_matrix(perm)
    for i in range(n):
        if rng.random() < 0.5:
            p[i] = [-x for x in p[i]]
    p_inv = [list(row) for row in zip(*p)]
    return p, p_inv


def conjugated_generators(spec: GroupSpec, seed: int) -> list[Matrix]:
    rng = random.Random(f"{spec.name}:{seed}")
    p, p_inv = relabelling(spec.n, rng)
    return [_mul(_mul(p_inv, g), p) for g in base_generators(spec)]


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen: set[int] = set()
    lengths = []
    for start in range(len(perm)):
        if start in seen:
            continue
        length, j = 0, start
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def canonical_cycle_types(n: int) -> list[tuple[tuple[int, ...], int]]:
    """Cycle types of S_n with class sizes, in gorenstein-kit's canonical
    class order: by element order, then class size.  Within S_4 and S_5 no
    two classes share both, so the entry tie-break never decides, and the
    order is the same for every relabelling."""
    sizes: dict[tuple[int, ...], int] = {}
    for perm in itertools.permutations(range(n)):
        ct = _cycle_type(perm)
        sizes[ct] = sizes.get(ct, 0) + 1
    keyed = sorted(sizes.items(), key=lambda item: (math.lcm(*item[0]), item[1]))
    keys = [(math.lcm(*ct), size) for ct, size in keyed]
    if len(set(keys)) != len(keys):
        raise ValueError(f"S_{n} has classes tied on (order, size)")
    return keyed


def group_text(spec: GroupSpec, seed: int) -> str:
    lines = [
        f"# {spec.family}_{spec.n}, relabelled by a seed-chosen signed permutation",
        "[group]",
        f"name = {spec.name}",
        f"block = {GENERATOR_DEGREE} {spec.n}",
    ]
    for g in conjugated_generators(spec, seed):
        # Fixed-width entries keep the file size the same for every seed.
        lines += ["", "[generator]"] + ["row =" + "".join(f"{x:3d}" for x in row) for row in g]
    if spec.characters is not None:
        classes = canonical_cycle_types(spec.n)
        lines += ["", "[character_table]"]
        lines.append("class_sizes = " + " ".join(str(size) for _, size in classes))
        for name, values in spec.characters.items():
            lines.append(
                f"irreducible = {name} " + " ".join(str(values[ct]) for ct, _ in classes)
            )
    return "\n".join(lines) + "\n"


def ring_text(spec: GroupSpec) -> str:
    lines = ["[ring]", f"name = poly{spec.n}", "coefficients = Q"]
    lines += [f"generator = x{i + 1} {GENERATOR_DEGREE}" for i in range(spec.n)]
    lines.append("regular = yes")
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path, seed: int) -> dict[str, Path]:
    """Write every synthetic ring and group file; map ``S4``/``S4.ring``
    style keys to their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for key, spec in GROUPS.items():
        group_path = directory / f"{key}.group"
        group_path.write_text(group_text(spec, seed))
        ring_path = directory / f"{key}.ring"
        ring_path.write_text(ring_text(spec))
        paths[key] = group_path
        paths[f"{key}.ring"] = ring_path
    return paths
