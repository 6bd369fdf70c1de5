"""Bundled dataset: the twelve-row table of worked ring spectra, the
fixture files shipped with the package, and the one rule from a
command-line argument to an input file.

Each table row carries only degree data plus the published Gorenstein shift;
recomputation uses the degrees alone, and the expected value is consulted
only when rendering a PASS/FAIL comparison.  The fixture lists are read off
``DATA_DIR``: every ``<name>.ring`` and ``<name>.group`` file in it.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .graded_ring import RingPresentation
from .records import GroupInputRecord, parse_group_record, parse_ring_record

DATA_DIR = Path(__file__).resolve().parent / "data"

_FILE_NAMES = sorted(path.name for path in DATA_DIR.iterdir())
RING_FIXTURES = tuple(n.removesuffix(".ring") for n in _FILE_NAMES if n.endswith(".ring"))
GROUP_FIXTURES = tuple(n.removesuffix(".group") for n in _FILE_NAMES if n.endswith(".group"))


class PaperTableRow(NamedTuple):
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
            (f"x{i}", deg) for i, deg in enumerate(self.generator_degrees, start=1)
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

def fixture_path(file_name: str) -> Path:
    """Path of the bundled fixture with this file name, such as ``ku.ring``."""
    if file_name not in _FILE_NAMES:
        available = ", ".join(_FILE_NAMES)
        raise FileNotFoundError(f"no bundled fixture {file_name!r}; available: {available}")
    return DATA_DIR / file_name


def _input_path(arg: str, suffix: str) -> Path:
    path = Path(arg)
    if path.is_file():
        return path
    return fixture_path(arg if path.suffix else arg + suffix)


def load_ring_fixture(arg: str) -> RingPresentation:
    """The ring in the file at path ``arg`` if there is one, else the bundled
    fixture ``arg``, read as ``<arg>.ring`` when ``arg`` has no suffix.  Parse
    errors name the file as ``str(path)``."""
    path = _input_path(arg, ".ring")
    return parse_ring_record(path.read_text(), source=str(path))


def load_group_fixture(arg: str) -> GroupInputRecord:
    """As ``load_ring_fixture``, for a group; the bundled file is ``<arg>.group``."""
    path = _input_path(arg, ".group")
    return parse_group_record(path.read_text(), source=str(path))
