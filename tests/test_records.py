"""Input-record parsing, diagnostics, and the serialize fixpoint."""

from fractions import Fraction

import pytest
from conftest import in_exact_form
from hypothesis import given, strategies as st

from gorenstein_kit.dataset import (
    GROUP_FIXTURES,
    RING_FIXTURES,
    fixture_path,
    load_group_fixture,
    load_ring_fixture,
)
from gorenstein_kit.graded_ring import RingPresentation
from gorenstein_kit.records import (
    ParseError,
    parse_group_record,
    parse_rational,
    parse_ring_record,
    serialize_group_record,
    serialize_ring_record,
)

RING_TEXT = """\
# a comment
[ring]
name = demo
coefficients = Z[1/6]
generator = x 8
generator = y 12
relation = f 48
regular = yes
"""

GROUP_TEXT = """\
[group]
name = demo
block = 2 1

[generator]
row = -1

[character_table]
class_sizes = 1 1
irreducible = triv 1 1
irreducible = sign 1 -1
"""


def test_parse_ring_record():
    assert parse_ring_record(RING_TEXT, "demo.ring") == RingPresentation(
        name="demo",
        coefficient_label="Z[1/6]",
        generators=(("x", 8), ("y", 12)),
        relations=(("f", 48),),
        regular_sequence_asserted=True,
    )


def test_parse_group_record():
    record = parse_group_record(GROUP_TEXT, "demo.group")
    assert record.blocks == ((2, 1),)
    assert record.generators == (((Fraction(-1),),),)
    group = record.build()
    assert group.order == 2
    assert record.table(group).names == ("triv", "sign")


@pytest.mark.parametrize("name", RING_FIXTURES)
def test_ring_serialization_fixpoint(name):
    record = load_ring_fixture(name)
    text = serialize_ring_record(record)
    reparsed = parse_ring_record(text, name)
    assert reparsed == record
    assert serialize_ring_record(reparsed) == text


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_group_serialization_fixpoint(name):
    record = load_group_fixture(name)
    text = serialize_group_record(record)
    reparsed = parse_group_record(text, name)
    assert reparsed == record
    assert serialize_group_record(reparsed) == text


def test_rational_parsing():
    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("-5") == Fraction(-5)
    # One scalar rule: an int exactly when integral.
    for token in ("3/2", "-5", "4/2", "6/-4"):
        assert in_exact_form(parse_rational(token))
    assert parse_rational("6/-4") == Fraction(-3, 2)
    with pytest.raises(ParseError):
        parse_rational("1.5")
    with pytest.raises(ParseError):
        parse_rational("1/0")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("generator = x 2", "content before any section"),
        ("[ring]\nname = a\ngeneratorx 2", "expected 'key = value'"),
        ("[ring]\nname = a\ngenerator = x", "expected 'generator = SYMBOL DEGREE'"),
        ("[ring]\nname = a\ngenerator = x q", "bad degree"),
        ("[ring]\nname = a\ngenerator = x 2\ngenerator = x 4", "already used on line 3"),
        ("[ring]\nname = a\ngenerator = x 2\nrelation = f 1", "degree must be >= 2"),
        ("[ring]\ngenerator = x 2", "missing 'name'"),
        ("[ring]\nname = a", "at least one generator"),
        ("[ring]\nname = a\ngenerator = x 2\nregular = maybe", "'yes' or 'no'"),
        ("[ring]\nname = a\nwhat = ever", "unknown key"),
        ("[]\nname = a", "bad.ring:1: empty section header"),
        (
            "[ring]\nname = a\ngenerator = x 2\nrelation = f 4\nrelation = g 6",
            "bad.ring:1: more relations than generators",
        ),
        ("[ring]\nname = a\nname = b\ngenerator = x 2", "bad.ring:3: key 'name' already used on line 2"),
        (
            "[ring]\nname = a\ncoefficients = Z\ngenerator = x 2\ncoefficients = Q",
            "bad.ring:5: key 'coefficients' already used on line 3",
        ),
        (
            "[ring]\nname = a\ngenerator = x 2\nregular = yes\nregular = no",
            "bad.ring:5: key 'regular' already used on line 4",
        ),
    ],
)
def test_ring_diagnostics(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_ring_record(text, "bad.ring")
    assert fragment in str(err.value)
    assert str(err.value).startswith("bad.ring")


def test_ring_diagnostic_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_ring_record("[ring]\nname = a\ngenerator = x zero", "bad.ring")
    assert "bad.ring:3" in str(err.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[group]\nblock = 2 1", "missing 'name'"),
        ("[group]\nname = g", "at least one block"),
        ("[group]\nname = g\nblock = 2", "expected 'block = DEGREE DIMENSION'"),
        ("[group]\nname = g\nblock = 0 1", "must be >= 1"),
        ("[group]\nname = g\nblock = 2 1\n[generator]\nrow = 1 0", "has 2 entries, expected 1"),
        ("[group]\nname = g\nblock = 2 1\n[generator]\nrow = 1\nrow = 1", "has 2 rows, expected 1"),
        ("[generator]\nrow = 1", "starts with a [group] section"),
        ("[group]\nname = g\nblock = 2 1\n[mystery]\nrow = 1", "unknown section"),
        ("[group]\nname = g\nblock = 2 1\n[generator]\nrow = 1/0", "bad rational"),
        ("[group]\nname = g\ncolour = red\nblock = 2 1", "bad.group:3: unknown key 'colour' in [group]"),
        ("[group]\nname = g\nblock = 2 1\n[generator]\ncol = 1", "bad.group:5: unknown key 'col' in [generator]"),
        (
            "[group]\nname = g\nblock = 2 1\n[character_table]\nclass = 1",
            "bad.group:5: unknown key 'class' in [character_table]",
        ),
        ("[group]\nname = g\n[generator]\nrow = 1", "bad.group:3: [generator] before any block"),
        ("[group]\nname = g\nname = h\nblock = 2 1", "bad.group:3: key 'name' already used on line 2"),
        (
            "[group]\nname = g\nblock = 2 1\n[generator]\nrow = -1\n[group]\nblock = 2 1",
            "bad.group:6: section [group] already used on line 1",
        ),
        (
            "[group]\nname = g\nblock = 2 1\n[generator]\nrow = -1\n"
            "[character_table]\nirreducible = triv 1 1\n[character_table]\nirreducible = sign 1 -1",
            "bad.group:8: section [character_table] already used on line 6",
        ),
        (
            "[group]\nname = g\nblock = 2 1\n[character_table]\nclass_sizes = 1 1\nclass_sizes = 2",
            "bad.group:6: key 'class_sizes' already used on line 5",
        ),
    ],
)
def test_group_diagnostics(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_group_record(text, "bad.group")
    assert fragment in str(err.value)


def test_declared_class_sizes_must_match():
    text = GROUP_TEXT.replace("class_sizes = 1 1", "class_sizes = 2")
    record = parse_group_record(text, "bad.group")
    group = record.build()
    with pytest.raises(ValueError):
        record.table(group)


def test_fixture_path_resolution():
    # Each loader looks a bare name up among the fixtures of its own kind.
    assert load_ring_fixture("ku").name == "ku"
    assert load_group_fixture("sigma3_standard").name == "sigma3"
    assert fixture_path("ku.ring").name == "ku.ring"
    assert fixture_path("sigma3_standard.group").name == "sigma3_standard.group"
    for lookup in (fixture_path, load_ring_fixture, load_group_fixture):
        with pytest.raises(FileNotFoundError):
            lookup("nonexistent")
    with pytest.raises(FileNotFoundError, match="'ku'"):
        fixture_path("ku")
    with pytest.raises(FileNotFoundError, match="'sigma3_standard.ring'"):
        load_ring_fixture("sigma3_standard")


# -- fuzzing: mutated fixture text ----------------------------------------------

FIXTURE_TEXTS = [
    fixture_path(name).read_text()
    for name in (*(f"{r}.ring" for r in RING_FIXTURES), *(f"{g}.group" for g in GROUP_FIXTURES))
]
fragments = st.one_of(
    st.sampled_from([
        "[ring]", "[group]", "[generator]", "[character_table]", "[]", "=", " = ", "\n",
        "#", "/", "-", "0", "1/0", "-1", "2/4", "9" * 30, "name", "generator", "relation",
        "block", "row", "class_sizes", "irreducible", "regular", "yes", "no", "coefficients",
        "x", " ", "\t", "\r\n",
    ]),
    st.text(max_size=4),
)
edits = st.lists(
    st.tuples(st.sampled_from(["insert", "delete", "replace", "duplicate line"]),
              st.integers(min_value=0), st.integers(min_value=0, max_value=12), fragments),
    min_size=1, max_size=4,
)


def _mutate(text, edits):
    for kind, at, width, fragment in edits:
        at %= len(text) + 1
        if kind == "insert":
            text = text[:at] + fragment + text[at:]
        elif kind == "delete":
            text = text[:at] + text[at + width:]
        elif kind == "replace":
            text = text[:at] + fragment + text[at + width:]
        else:
            start = text.rfind("\n", 0, at) + 1
            end = text.find("\n", at) + 1 or len(text)
            text = text[:end] + text[start:end] + text[end:]
    return text


@given(st.sampled_from(FIXTURE_TEXTS), edits)
def test_mutated_fixture_text_parses_to_a_fixpoint_or_is_refused(text, edits):
    text = _mutate(text, edits)
    for parse, serialize in ((parse_ring_record, serialize_ring_record),
                             (parse_group_record, serialize_group_record)):
        try:
            record = parse(text, "fuzz")
        except ValueError:  # ParseError and the other ValueErrors are the allowed refusals
            continue
        serialized = serialize(record)
        reparsed = parse(serialized, "fuzz")
        assert reparsed == record
        assert serialize(reparsed) == serialized
