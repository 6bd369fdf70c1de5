"""Bundled dataset: the twelve-row table of worked ring spectra and the
fixture files shipped with the package.

Each table row carries only degree data plus the published Gorenstein shift;
recomputation uses the degrees alone, and the expected value is consulted
only when rendering a PASS/FAIL comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .graded_ring import RingPresentation
from .records import GroupInputRecord, parse_group_record, parse_ring_record

DATA_DIR = Path(__file__).resolve().parent / "data"

_GENERATOR_SYMBOLS = ("x", "y", "z")


@dataclass(frozen=True)
class PaperTableRow:
    """One tabulated example: a named ring, its degree data, and the
    published shift value used only for comparison at render time."""

    name: str
    prime_label: str
    group_label: str
    generator_degrees: tuple[int, ...]
    relation_degree: int | None
    expected_shift_a: int

    def presentation(self) -> RingPresentation:
        generators = tuple(
            (sym, deg) for sym, deg in zip(_GENERATOR_SYMBOLS, self.generator_degrees)
        )
        relations = (
            (("f", self.relation_degree),) if self.relation_degree is not None else ()
        )
        return RingPresentation(
            name=self.name,
            coefficient_label=f"p = {self.prime_label}",
            generators=generators,
            relations=relations,
        )


TABLE_ROWS: tuple[PaperTableRow, ...] = (
    PaperTableRow("tmf(3)", "2", "BT_48", (2, 2), None, -6),
    PaperTableRow("tmf_1(3)", "2", "C_2", (2, 6), None, -10),
    PaperTableRow("tmf(2)", "3", "Sigma_3", (4, 4), None, -10),
    PaperTableRow("tmf_0(2)", "3", "", (4, 8), None, -14),
    PaperTableRow("taf_d6", "5", "two C_2", (8, 12, 24), 48, 2),
    PaperTableRow("taf_d6^ALalpha", "5", "", (8, 24, 24), 48, -10),
    PaperTableRow("taf_d6^ALbeta", "5", "", (8, 12), None, -22),
    PaperTableRow("taf_d6", "+-1 mod 24", "C_2 x C_2", (8, 12, 24), 48, 2),
    PaperTableRow("taf_d6^ALalphabeta", "+-1 mod 24", "", (16, 24, 44), 88, 2),
    PaperTableRow("taf_d14", "3", "", (4, 16), None, -22),
    PaperTableRow("taf_d10_sqrt2", "3", "C_3", (4, 4, 12), 24, 2),
    PaperTableRow("taf_d15", "2", "C_8 x C_2", (2, 6, 12), 24, 2),
)

RING_FIXTURES = (
    "ku",
    "tmf2",
    "taf_d6",
    "taf_d6_al_alpha",
    "taf_d6_al_beta",
    "taf_d6_al_alphabeta",
    "taf_d14",
    "taf_d10_sqrt2",
    "taf_d15",
)

GROUP_FIXTURES = (
    "c2_negation",
    "sigma3_standard",
    "taf_d6_alpha",
    "taf_d6_beta",
    "taf_d6_alphabeta",
)


def fixture_path(name: str) -> Path:
    """Path of a bundled fixture, by bare name or name with extension."""
    candidates = [name] if "." in name else [f"{name}.ring", f"{name}.group"]
    for candidate in candidates:
        path = DATA_DIR / candidate
        if path.is_file():
            return path
    available = ", ".join(sorted(p.name for p in DATA_DIR.iterdir()))
    raise FileNotFoundError(f"no bundled fixture {name!r}; available: {available}")


def load_ring_fixture(name: str) -> RingPresentation:
    path = fixture_path(name if "." in name else f"{name}.ring")
    return parse_ring_record(path.read_text(), source=path.name)


def load_group_fixture(name: str) -> GroupInputRecord:
    path = fixture_path(name if "." in name else f"{name}.group")
    return parse_group_record(path.read_text(), source=path.name)
