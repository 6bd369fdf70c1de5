"""The bundled example table and fixture files."""

import pytest

from gorenstein_kit.dataset import (
    GROUP_FIXTURES,
    RING_FIXTURES,
    TABLE_ROWS,
    PaperTableRow,
    fixture_path,
    load_group_fixture,
    load_ring_fixture,
)
from gorenstein_kit.graded_ring import gorenstein_shift_formula


def test_table_has_twelve_rows():
    assert len(TABLE_ROWS) == 12


@pytest.mark.parametrize("row", TABLE_ROWS, ids=lambda r: f"{r.name}@{r.prime_label}")
def test_recorded_shift_matches_degree_formula(row):
    assert gorenstein_shift_formula(row.presentation()) == row.expected_shift_a


def test_a_row_with_four_degrees_counts_every_degree():
    row = PaperTableRow("four", "2", "", (2, 4, 6, 8), None, -24)
    p = row.presentation()
    assert p.generators == (("x1", 2), ("x2", 4), ("x3", 6), ("x4", 8))
    assert gorenstein_shift_formula(p) == -(2 + 4 + 6 + 8) - 4 == row.expected_shift_a


def test_expected_column_in_table_order():
    assert [row.expected_shift_a for row in TABLE_ROWS] == [
        -6, -10, -10, -14, 2, -10, -22, 2, 2, -22, 2, 2,
    ]


@pytest.mark.parametrize("name", RING_FIXTURES)
def test_ring_fixtures_are_valid_presentations(name):
    p = load_ring_fixture(name)
    assert p.name == name


def test_fixture_degree_data():
    degrees = {
        name: (
            load_ring_fixture(name).generator_degrees,
            load_ring_fixture(name).relation_degrees,
        )
        for name in RING_FIXTURES
    }
    assert degrees["ku"] == ((2,), ())
    assert degrees["tmf2"] == ((4, 4), ())
    assert degrees["taf_d6"] == ((8, 12, 24), (48,))
    assert degrees["taf_d6_al_alpha"] == ((8, 24, 24), (48,))
    assert degrees["taf_d6_al_beta"] == ((8, 12), ())
    assert degrees["taf_d6_al_alphabeta"] == ((16, 24, 44), (88,))
    assert degrees["taf_d14"] == ((4, 16), ())
    assert degrees["taf_d10_sqrt2"] == ((4, 4, 12), (24,))
    assert degrees["taf_d15"] == ((2, 6, 12), (24,))


# The table rows whose ring is bundled, by row name, and that fixture.
ROW_FIXTURES = {
    "tmf(2)": "tmf2",
    "taf_d6": "taf_d6",
    "taf_d6^ALalpha": "taf_d6_al_alpha",
    "taf_d6^ALbeta": "taf_d6_al_beta",
    "taf_d6^ALalphabeta": "taf_d6_al_alphabeta",
    "taf_d14": "taf_d14",
    "taf_d10_sqrt2": "taf_d10_sqrt2",
    "taf_d15": "taf_d15",
}
BUNDLED_ROWS = [row for row in TABLE_ROWS if row.name in ROW_FIXTURES]


def test_every_bundled_row_is_cross_checked():
    # tmf(2), both taf_d6 rows, the three Atkin-Lehner rows, taf_d14, taf_d10_sqrt2, taf_d15.
    assert len(BUNDLED_ROWS) == 9
    assert set(ROW_FIXTURES) <= {row.name for row in TABLE_ROWS}
    assert set(ROW_FIXTURES.values()) <= set(RING_FIXTURES)


@pytest.mark.parametrize("row", BUNDLED_ROWS, ids=lambda r: f"{r.name}@{r.prime_label}")
def test_table_row_degrees_match_the_bundled_fixture(row):
    # The table and the fixture files hold two copies of these degrees.
    table, fixture = row.presentation(), load_ring_fixture(ROW_FIXTURES[row.name])
    assert table.generator_degrees == fixture.generator_degrees
    assert table.relation_degrees == fixture.relation_degrees


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_group_fixtures_enumerate(name):
    group = load_group_fixture(name).build()
    expected_orders = {
        "c2_negation": 2,
        "sigma3_standard": 6,
        "taf_d6_alpha": 2,
        "taf_d6_beta": 2,
        "taf_d6_alphabeta": 4,
    }
    assert group.order == expected_orders[name]


def test_input_files_load_by_a_path_relative_to_the_working_directory(tmp_path, monkeypatch):
    (tmp_path / "c2.group").write_text(fixture_path("c2_negation.group").read_text())
    (tmp_path / "line.ring").write_text(fixture_path("ku.ring").read_text())
    monkeypatch.chdir(tmp_path)
    assert load_group_fixture("c2.group") == load_group_fixture("c2_negation")
    assert load_ring_fixture("line.ring") == load_ring_fixture("ku")
