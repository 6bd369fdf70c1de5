"""Line-oriented input records for rings and groups.

The format is sectioned text with one ``key = value`` pair per line:

    [ring]
    name = taf_d6
    coefficients = Z[1/6]
    generator = x 8
    generator = y 12
    generator = z 24
    relation = f 48
    regular = yes

    [group]
    name = sigma3
    block = 4 2

    [generator]
    row = -1 1
    row = 0 1

    [generator]
    row = 1 0
    row = 1 -1

    [character_table]
    class_sizes = 1 3 2
    irreducible = triv 1 1 1
    irreducible = sign 1 -1 1
    irreducible = std 2 0 -1

Blank lines and ``#`` comments are ignored.  Matrix rows are the rows of the
full block-diagonal matrix, columns giving the images of the graded
generators; entries and character values are exact rationals written as
integers or ``p/q``, so no floating point enters the pipeline anywhere.
Character values are listed per conjugacy class in the canonical class order
(by element order, then class size, then matrix entries of the least
member).  A single-valued key or section given twice is refused on its
second line.  A ring file parses straight to a ``RingPresentation``, a group
file to a ``GroupInputRecord``, both immutable records (named tuples);
parsing then re-serializing either is a fixpoint.  ``GroupInputRecord.build``
enumerates the group and reads no character table; ``table`` checks the
file's table against the group, or gives the built-in one, and only the
callers that read a table call it.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .graded_ring import RingPresentation
from .invariants import (
    DEFAULT_ORDER_CAP,
    GradedGroupRep,
    NoBuiltinCharacterTable,
    RationalCharacterTable,
    builtin_character_table,
    character_table,
    conjugacy_classes,
    generate_group,
)
from .linalg import Scalar, quotient


class ParseError(ValueError):
    def __init__(self, source: str, line: int | None, message: str):
        where = f"{source}:{line}" if line is not None else source
        super().__init__(f"{where}: {message}")


def _logical_lines(text: str) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def _split_sections(
    text: str, source: str
) -> list[tuple[str, int, list[tuple[int, str, str]]]]:
    sections: list[tuple[str, int, list[tuple[int, str, str]]]] = []
    current: list[tuple[int, str, str]] | None = None
    for number, line in _logical_lines(text):
        if line.startswith("[") and line.endswith("]"):
            header = line[1:-1].strip()
            if not header:
                raise ParseError(source, number, "empty section header")
            current = []
            sections.append((header, number, current))
            continue
        if current is None:
            raise ParseError(source, number, f"content before any section: {line!r}")
        if "=" not in line:
            raise ParseError(source, number, f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        current.append((number, key.strip(), value.strip()))
    return sections


def _once(seen: dict[str, int], what: str, source: str, line: int) -> None:
    """Refuse a second use of a symbol, single-valued key or section."""
    if seen.setdefault(what, line) != line:
        raise ParseError(source, line, f"{what} already used on line {seen[what]}")


def parse_rational(token: str, source: str = "<value>", line: int | None = None) -> Scalar:
    """An exact rational from an integer or ``p/q`` string, in :func:`exact` form."""
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return quotient(int(num.strip()), int(den.strip()))
        return int(token.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(source, line, f"bad rational {token!r}: {exc}") from exc


def _parse_int(token: str, source: str, line: int, what: str) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise ParseError(source, line, f"bad {what} {token!r}") from exc


def parse_ring_record(text: str, source: str = "<ring>") -> RingPresentation:
    """A ring file as a presentation; each defect is reported with its line."""
    sections = _split_sections(text, source)
    if len(sections) != 1 or sections[0][0] != "ring":
        raise ParseError(source, None, "a ring file is a single [ring] section")
    _, header_line, entries = sections[0]
    name: str | None = None
    coefficients = ""
    generators: list[tuple[str, int]] = []
    relations: list[tuple[str, int]] = []
    regular = True
    seen: dict[str, int] = {}
    for line, key, value in entries:
        if key in ("name", "coefficients", "regular"):
            _once(seen, f"key {key!r}", source, line)
        if key == "name":
            name = value
        elif key == "coefficients":
            coefficients = value
        elif key in ("generator", "relation"):
            parts = value.split()
            if len(parts) != 2:
                raise ParseError(source, line, f"expected '{key} = SYMBOL DEGREE'")
            symbol, degree = parts[0], _parse_int(parts[1], source, line, "degree")
            _once(seen, f"symbol {symbol!r}", source, line)
            minimum = 1 if key == "generator" else 2
            if degree < minimum:
                raise ParseError(
                    source, line, f"{key} degree must be >= {minimum}, got {degree}"
                )
            (generators if key == "generator" else relations).append((symbol, degree))
        elif key == "regular":
            if value not in ("yes", "no"):
                raise ParseError(source, line, "regular must be 'yes' or 'no'")
            regular = value == "yes"
        else:
            raise ParseError(source, line, f"unknown key {key!r} in [ring]")
    if name is None:
        raise ParseError(source, header_line, "missing 'name' in [ring]")
    if not generators:
        raise ParseError(source, header_line, "a ring needs at least one generator")
    if len(relations) > len(generators):
        raise ParseError(source, header_line, "more relations than generators")
    return RingPresentation(
        name=name,
        coefficient_label=coefficients,
        generators=tuple(generators),
        relations=tuple(relations),
        regular_sequence_asserted=regular,
    )


def serialize_ring_record(p: RingPresentation) -> str:
    lines = ["[ring]", f"name = {p.name}"]
    if p.coefficient_label:
        lines.append(f"coefficients = {p.coefficient_label}")
    for symbol, degree in p.generators:
        lines.append(f"generator = {symbol} {degree}")
    for symbol, degree in p.relations:
        lines.append(f"relation = {symbol} {degree}")
    lines.append(f"regular = {'yes' if p.regular_sequence_asserted else 'no'}")
    return "\n".join(lines) + "\n"


class GroupInputRecord(NamedTuple):
    """Parsed form of a group file: grading blocks, generator matrices, and
    an optional character table (values per canonical conjugacy class),
    unchecked until :meth:`table` reads it."""

    name: str
    blocks: tuple[tuple[int, int], ...]
    generators: tuple[tuple[tuple[Scalar, ...], ...], ...]
    character_rows: tuple[tuple[str, tuple[Scalar, ...]], ...] | None = None
    class_sizes: tuple[int, ...] | None = None

    def build(self, cap: int = DEFAULT_ORDER_CAP) -> GradedGroupRep:
        """Enumerate the group; the character table is left unchecked."""
        return generate_group(self.generators, self.blocks, cap=cap, name=self.name)

    def table(self, group: GradedGroupRep) -> RationalCharacterTable:
        """The file's character table, checked against ``group`` (declared
        class sizes first), else the built-in one."""
        if self.character_rows is None:
            try:
                return builtin_character_table(group)
            except NoBuiltinCharacterTable as exc:
                raise NoBuiltinCharacterTable(
                    f"{exc}; supply a [character_table] section in the group file"
                ) from exc
        if self.class_sizes is not None:
            actual = tuple(len(c) for c in conjugacy_classes(group))
            if actual != self.class_sizes:
                raise ValueError(
                    f"{self.name}: declared class sizes {self.class_sizes} "
                    f"but the group has {actual}"
                )
        return character_table(group, self.character_rows)


def parse_group_record(text: str, source: str = "<group>") -> GroupInputRecord:
    sections = _split_sections(text, source)
    if not sections or sections[0][0] != "group":
        raise ParseError(source, None, "a group file starts with a [group] section")
    name: str | None = None
    blocks: list[tuple[int, int]] = []
    matrices: list[tuple[tuple[Scalar, ...], ...]] = []
    character_rows: list[tuple[str, tuple[Scalar, ...]]] | None = None
    class_sizes: tuple[int, ...] | None = None
    seen: dict[str, int] = {}
    for header, header_line, entries in sections:
        if header in ("group", "character_table"):
            _once(seen, f"section [{header}]", source, header_line)
        if header == "group":
            for line, key, value in entries:
                if key == "name":
                    _once(seen, "key 'name'", source, line)
                    name = value
                elif key == "block":
                    parts = value.split()
                    if len(parts) != 2:
                        raise ParseError(source, line, "expected 'block = DEGREE DIMENSION'")
                    degree = _parse_int(parts[0], source, line, "block degree")
                    dim = _parse_int(parts[1], source, line, "block dimension")
                    if degree < 1 or dim < 1:
                        raise ParseError(
                            source, line, "block degree and dimension must be >= 1"
                        )
                    blocks.append((degree, dim))
                else:
                    raise ParseError(source, line, f"unknown key {key!r} in [group]")
        elif header == "generator":
            if not blocks:
                raise ParseError(source, header_line, "[generator] before any block")
            n = sum(dim for _, dim in blocks)
            rows: list[tuple[Scalar, ...]] = []
            for line, key, value in entries:
                if key != "row":
                    raise ParseError(source, line, f"unknown key {key!r} in [generator]")
                entries_row = tuple(
                    parse_rational(tok, source, line) for tok in value.split()
                )
                if len(entries_row) != n:
                    raise ParseError(
                        source,
                        line,
                        f"matrix row has {len(entries_row)} entries, expected {n}",
                    )
                rows.append(entries_row)
            if len(rows) != n:
                raise ParseError(
                    source, header_line, f"matrix has {len(rows)} rows, expected {n}"
                )
            matrices.append(tuple(rows))
        elif header == "character_table":
            character_rows = []
            for line, key, value in entries:
                if key == "class_sizes":
                    _once(seen, "key 'class_sizes'", source, line)
                    class_sizes = tuple(
                        _parse_int(tok, source, line, "class size") for tok in value.split()
                    )
                elif key == "irreducible":
                    parts = value.split()
                    if len(parts) < 2:
                        raise ParseError(
                            source, line, "expected 'irreducible = NAME VALUE...'"
                        )
                    values = tuple(
                        parse_rational(tok, source, line) for tok in parts[1:]
                    )
                    character_rows.append((parts[0], values))
                else:
                    raise ParseError(
                        source, line, f"unknown key {key!r} in [character_table]"
                    )
        else:
            raise ParseError(source, header_line, f"unknown section [{header}]")
    if name is None:
        raise ParseError(source, None, "missing 'name' in [group]")
    if not blocks:
        raise ParseError(source, None, "a group needs at least one block")
    return GroupInputRecord(
        name=name,
        blocks=tuple(blocks),
        generators=tuple(matrices),
        character_rows=tuple(character_rows) if character_rows is not None else None,
        class_sizes=class_sizes,
    )


def serialize_group_record(record: GroupInputRecord) -> str:
    lines = ["[group]", f"name = {record.name}"]
    for degree, dim in record.blocks:
        lines.append(f"block = {degree} {dim}")
    for matrix in record.generators:
        lines.append("")
        lines.append("[generator]")
        for row in matrix:
            lines.append("row = " + " ".join(str(x) for x in row))
    if record.character_rows is not None:
        lines.append("")
        lines.append("[character_table]")
        if record.class_sizes is not None:
            lines.append("class_sizes = " + " ".join(str(s) for s in record.class_sizes))
        for name, values in record.character_rows:
            lines.append(f"irreducible = {name} " + " ".join(str(v) for v in values))
    return "\n".join(lines) + "\n"
