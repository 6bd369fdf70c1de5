"""End-to-end command-line behaviour over the bundled fixtures."""

import json
import time
import tracemalloc
from itertools import groupby

import pytest
from conftest import FIXTURE_PAIRS, shifted, signed_permutation_group

from gorenstein_kit import cli, descent, duality, invariants, records
from gorenstein_kit.cli import (
    MAX_SYMPOW_N,
    MAX_WINDOW_DEGREE,
    main,
    sympow_power,
    window_degree,
)
from gorenstein_kit.dataset import RING_FIXTURES, TABLE_ROWS, load_group_fixture, load_ring_fixture
from gorenstein_kit.graded_ring import gorenstein_shift_stanley, hilbert_series


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert out.endswith("\n")
    return code, json.loads(out), err


def test_table_passes_and_exits_zero(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert out.count("PASS") == 12
    assert "FAIL" not in out


def test_table_json(capsys):
    code, payload, _ = run_json(capsys, "table")
    assert code == 0
    assert payload["schema"] == "gorenstein-kit/table/1"
    assert payload["all_pass"] is True
    shifts = [row["computed_shift"] for row in payload["rows"]]
    assert shifts == [-6, -10, -10, -14, 2, -10, -22, 2, 2, -22, 2, 2]
    assert all(row["pass"] for row in payload["rows"])


def test_shift_on_bundled_fixture(capsys):
    code, payload, _ = run_json(capsys, "shift", "taf_d15")
    assert code == 0
    assert payload["shift_by_formula"] == 2
    assert payload["shift_by_series"] == 2
    assert payload["agree"] is True


def test_hilbert_geometric_table(capsys):
    code, payload, _ = run_json(capsys, "hilbert", "ku", "--max-degree", "6")
    assert code == 0
    assert payload["series"]["display"] == "1/(1 - t^2)"
    assert payload["coefficients"] == [[0, "1"], [1, "0"], [2, "1"], [3, "0"], [4, "1"], [5, "0"], [6, "1"]]


def test_duality_report_json(capsys):
    code, payload, _ = run_json(capsys, "duality", "taf_d6")
    assert code == 0
    assert payload["gorenstein_shift"] == 2
    assert payload["anderson_shift_exponent"] == -3
    assert payload["anderson_selfdual_display"] == 3
    assert payload["splitting"] == "parity-disjoint"
    assert payload["recovery_hypotheses_hold"] is False
    assert payload["cech_dual_part"]["shift"] == 3
    assert payload["cech_dual_part"]["dualized"] is True


def test_molien_command(capsys):
    code, payload, _ = run_json(capsys, "molien", "tmf2", "sigma3_standard", "--max-degree", "68")
    assert code == 0
    coeffs = [int(c) for _, c in payload["coefficients"]]
    assert coeffs[::4] == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3, 3, 3]
    assert payload["polynomial_degrees"] == [8, 12]
    assert payload["pseudoreflection_count"] == 3
    assert payload["relations_ignored"] is False


def test_molien_det_twist(capsys):
    code, payload, _ = run_json(capsys, "molien", "ku", "c2_negation", "--twist", "det")
    assert code == 0
    assert payload["series"]["display"] == "t^2/(1 - t^4)"


def test_molien_named_twist(capsys):
    code, payload, _ = run_json(capsys, "molien", "ku", "c2_negation", "--twist", "sign")
    assert code == 0
    assert payload["series"]["display"] == "t^2/(1 - t^4)"


def test_molien_on_hypersurface_notes_free_ring(capsys):
    code, payload, _ = run_json(capsys, "molien", "taf_d6", "taf_d6_alpha")
    assert code == 0
    assert payload["relations_ignored"] is True


def test_sympow_command(capsys):
    code, payload, _ = run_json(capsys, "sympow", "tmf2", "sigma3_standard", "--n", "5")
    assert code == 0
    assert payload["irreducibles"] == ["triv", "sign", "std"]
    assert payload["multiplicities"] == [
        [0, [1, 0, 0]],
        [1, [0, 0, 1]],
        [2, [1, 0, 1]],
        [3, [1, 1, 1]],
        [4, [1, 0, 2]],
        [5, [1, 1, 2]],
    ]


def test_sympow_uses_builtin_table_when_file_has_none(capsys):
    code, payload, _ = run_json(capsys, "sympow", "taf_d6", "taf_d6_alphabeta", "--n", "2")
    assert code == 0
    assert payload["irreducibles"] == ["triv", "chi1", "chi2", "chi3"]


def test_named_twist_uses_the_builtin_table_like_sympow(capsys):
    code, payload, _ = run_json(capsys, "molien", "taf_d6", "taf_d6_alphabeta", "--twist", "chi1")
    assert code == 0
    assert payload["twist"] == "chi1"


def test_only_named_twists_resolve_a_table(capsys, monkeypatch):
    def refuse(group):
        raise AssertionError("built-in character table computed")

    monkeypatch.setattr(records, "builtin_character_table", refuse)
    for argv in (
        ["molien", "taf_d6", "taf_d6_alphabeta"],
        ["molien", "taf_d6", "taf_d6_alphabeta", "--twist", "det"],
        ["invgen", "taf_d6", "taf_d6_alphabeta", "--degree", "24"],
    ):
        assert run(capsys, *argv)[0] == 0, argv


SIGMA3_GENERATORS = (
    "[group]\nname = sigma3\nblock = 4 2\n\n"
    "[generator]\nrow = -1 1\nrow = 0 1\n\n"
    "[generator]\nrow = 1 0\nrow = 1 -1\n"
)
# sigma3_standard's generators under a table that each check refuses, with
# the error line that sympow and a named twist print for it.
BAD_SIGMA3_TABLES = {
    "non_orthogonal": (
        "class_sizes = 1 3 2\nirreducible = triv 1 1 1\n"
        "irreducible = sign 1 -1 1\nirreducible = std 2 0 1\n",
        "error: ValueError: characters 'triv', 'std' fail orthogonality: <,> = 2/3\n",
    ),
    "wrong_class_sizes": (
        "class_sizes = 1 2 3\nirreducible = triv 1 1 1\n"
        "irreducible = sign 1 -1 1\nirreducible = std 2 0 -1\n",
        "error: ValueError: sigma3: declared class sizes (1, 2, 3) but the group has (1, 3, 2)\n",
    ),
    "incomplete": (
        "class_sizes = 1 3 2\nirreducible = triv 1 1 1\nirreducible = sign 1 -1 1\n",
        "error: ValueError: incomplete character table: 2 irreducibles for 3 classes,"
        " sum of chi(1)^2 = 2 for a group of order 6\n",
    ),
}
TABLE_FREE_ARGVS = [
    ["invgen", "--degree", "12"],
    ["descent"],
    ["molien"],
    ["molien", "--twist", "det"],
]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", TABLE_FREE_ARGVS, ids=" ".join)
@pytest.mark.parametrize("bad", BAD_SIGMA3_TABLES)
def test_commands_that_read_no_table_ignore_a_bad_one(tmp_path, capsys, bad, argv, flags):
    # Nothing these print depends on the table, so a bad one changes no byte.
    plain = tmp_path / "plain.group"
    plain.write_text(SIGMA3_GENERATORS)
    tabled = tmp_path / "tabled.group"
    tabled.write_text(SIGMA3_GENERATORS + "\n[character_table]\n" + BAD_SIGMA3_TABLES[bad][0])
    expected = run(capsys, argv[0], "tmf2", str(plain), *argv[1:], *flags)
    assert expected[0] == 0
    assert run(capsys, argv[0], "tmf2", str(tabled), *argv[1:], *flags) == expected


@pytest.mark.parametrize("argv", [["sympow", "--n", "4"], ["molien", "--twist", "sign"]], ids=" ".join)
@pytest.mark.parametrize("bad", BAD_SIGMA3_TABLES)
def test_commands_that_read_the_table_refuse_a_bad_one(tmp_path, capsys, bad, argv):
    group = tmp_path / "tabled.group"
    group.write_text(SIGMA3_GENERATORS + "\n[character_table]\n" + BAD_SIGMA3_TABLES[bad][0])
    assert run(capsys, argv[0], "tmf2", str(group), *argv[1:]) == (1, "", BAD_SIGMA3_TABLES[bad][1])


@pytest.mark.parametrize("argv", TABLE_FREE_ARGVS, ids=" ".join)
def test_commands_that_read_no_table_build_no_classes_for_it(capsys, monkeypatch, argv):
    # The table check is the only reader of the classes in records.
    def refuse(*args):
        raise AssertionError("character table checked")

    monkeypatch.setattr(records, "conjugacy_classes", refuse)
    monkeypatch.setattr(records, "character_table", refuse)
    assert run(capsys, argv[0], "tmf2", "sigma3_standard", *argv[1:])[0] == 0


@pytest.mark.parametrize("ring,group", FIXTURE_PAIRS)
def test_the_class_pass_runs_once_per_command_when_the_group_is_built(capsys, monkeypatch, ring, group):
    # The closure finds the classes with the group, and nothing else does:
    # reading them off a built group runs no class pass, every command that
    # builds a group runs one, and invgen and descent on a base with
    # relations, which build none, run none.
    record = load_group_fixture(group)
    built = record.build()
    table = record.table(built)
    calls = []
    original = invariants._conjugacy_classes
    monkeypatch.setattr(invariants, "_conjugacy_classes", lambda *a: calls.append(a) or original(*a))
    assert invariants.conjugacy_classes(built) == built.classes
    assert invariants.class_representatives(built) == built.representatives
    assert invariants.character_table(built, table.irreducibles) == table
    assert not calls
    argvs = [["molien", ring, group, "--twist", twist] for twist in ("trivial", "det", *table.names)]
    argvs += [["sympow", ring, group, "--n", "6"], ["descent", ring, group], ["invgen", ring, group, "--degree", "8"]]
    relations = bool(load_ring_fixture(ring).relations)
    for argv in argvs:
        calls.clear()
        assert run(capsys, *argv)[0] == 0, argv
        builds = argv[0] != "invgen" and not (argv[0] == "descent" and relations)
        assert len(calls) == builds, argv


def test_invgen_command(capsys):
    code, payload, _ = run_json(capsys, "invgen", "tmf2", "sigma3_standard", "--degree", "8")
    assert code == 0
    assert payload["dimension"] == 1
    assert payload["basis"][0]["display"] == "x^2 + x*y + y^2"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_invgen_renders_each_polynomial_once(capsys, monkeypatch, flags):
    # Only the printed form is built: one rendering per basis polynomial.
    calls = []
    original = cli.format_polynomial
    monkeypatch.setattr(cli, "format_polynomial", lambda *a: calls.append(1) or original(*a))
    code, out, _ = run(capsys, "invgen", "taf_d6", "taf_d6_alphabeta", "--degree", "48", *flags)
    assert code == 0
    lines = out.splitlines()
    dimension = json.loads(out)["dimension"] if flags else sum(line.startswith("    ") for line in lines)
    assert dimension > 1 and len(calls) == dimension


def test_descent_command(capsys):
    code, payload, _ = run_json(capsys, "descent", "ku", "c2_negation")
    assert code == 0
    descent = payload["descent"]
    assert descent["base_shift"] == -3
    assert descent["solomon_supplement"] == -2
    assert descent["descended_gorenstein_shift"] == -5
    assert descent["descended_anderson_shift"] == -4
    assert descent["solomon_verified"] is True
    assert descent["cross_check"] is True


@pytest.mark.parametrize(
    "twist, witness",
    [
        (lambda s: shifted(s, 3), "the det-twisted series is t^3 times the untwisted one, not t^2"),
        (lambda s: shifted(s, 2) * -1, "the det-twisted series is -t^2 times the untwisted one, not t^2"),
        (lambda s: shifted(s, 2) + 1, "t^2 has coefficient 1 in the first numerator and 0 in t^0"),
    ],
    ids=["wrong-power", "wrong-sign", "not-monomial"],
)
def test_failed_solomon_verification_names_its_witness(
    capsys, monkeypatch, failing_solomon, twist, witness
):
    monkeypatch.setattr(descent, "verify_solomon", failing_solomon(twist))
    code, out, _ = run(capsys, "descent", "ku", "c2_negation")
    assert code == 0
    assert "  solomon supplement b = -2  (FAILED verification: " in out and witness in out
    code, payload, _ = run_json(capsys, "descent", "ku", "c2_negation")
    assert payload["descent"]["solomon_verified"] is False


def test_cross_check_mismatch_names_the_prediction_and_both_routes(capsys, monkeypatch):
    monkeypatch.setattr(
        duality, "gorenstein_shift_stanley", lambda s, dim: gorenstein_shift_stanley(s, dim) + 1
    )
    code, out, _ = run(capsys, "descent", "ku", "c2_negation")
    assert code == 0
    assert (
        "  cross-check of the invariant ring's shift: MISMATCH"
        " (predicted a+b = -5, functional equation -4)\n"
    ) in out
    code, payload, _ = run_json(capsys, "descent", "ku", "c2_negation")
    assert payload["descent"]["cross_check"] is False


def test_descent_out_of_regime_gives_base_report(capsys):
    code, payload, _ = run_json(capsys, "descent", "taf_d6", "taf_d6_alpha")
    assert code == 0
    assert payload["descent"] is None
    assert "out of regime" in payload["note"]
    assert payload["base_duality"]["gorenstein_shift"] == 2


def test_missing_input_is_an_error(capsys):
    code, out, err = run(capsys, "shift", "no_such_ring")
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_a_bare_name_is_looked_up_among_the_fixtures_of_its_kind(capsys):
    # tmf2 names a ring fixture; in the group slot it is tmf2.group, which is
    # not bundled, not the ring file read as a group.
    code, out, err = run(capsys, "molien", "tmf2", "tmf2")
    assert (code, out) == (1, "")
    assert err.startswith("error: FileNotFoundError: no bundled fixture 'tmf2.group'; ")
    assert err.count("\n") == 1


def test_parse_error_reports_location(tmp_path, capsys):
    bad = tmp_path / "broken.ring"
    bad.write_text("[ring]\nname = broken\ngenerator = x two\n")
    code, _, err = run(capsys, "shift", str(bad))
    assert code == 1
    assert "broken.ring:3" in err


def test_block_mismatch_is_an_error(capsys):
    code, _, err = run(capsys, "molien", "ku", "sigma3_standard")
    assert code == 1
    assert "does not match" in err


def test_descent_checks_the_grading_before_the_relations(capsys):
    # taf_d6 has relations, so descent would fall back to the base-ring
    # report; the one-coordinate group is refused first, as molien does.
    expected = (
        "error: BlockMismatch: group grading [2] does not match"
        " generator degrees [8, 12, 24] of taf_d6\n"
    )
    for command in ("descent", "molien"):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, command, "taf_d6", "c2_negation", *extra)
            assert (code, out, err) == (1, "", expected), (command, extra)


def test_descent_on_a_relation_base_builds_no_group(capsys, monkeypatch):
    argvs = [["descent", "taf_d6", "taf_d6_alpha", *extra] for extra in ([], ["--json"])]
    expected = [run(capsys, *argv) for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("group enumerated")

    monkeypatch.setattr(records, "generate_group", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected
    assert expected[0][0] == 0


@pytest.mark.parametrize(
    "rows, message",
    [
        (("0 0 0", "0 1 0", "0 0 1"), "ValueError: generator is singular"),
        (("1 1 0", "0 1 0", "0 0 1"), "ValueError: generator is not block-diagonal for the given grading"),
        (("2 0 0", "0 1 0", "0 0 1"), "OrderCapExceeded: group closure exceeds the cap of 10000 elements"),
    ],
    ids=["singular", "not-block-diagonal", "infinite"],
)
def test_relation_base_descent_refuses_a_group_that_cannot_be_built(
    tmp_path, capsys, monkeypatch, rows, message
):
    # taf_d6 has relations, so descent prints no group data; the generators
    # are still checked, as molien checks them, and the group refused if
    # infinite, without enumerating the group.
    group = tmp_path / "bad.group"
    group.write_text(
        "[group]\nname = bad\nblock = 8 1\nblock = 12 1\nblock = 24 1\n\n[generator]\n"
        + "".join(f"row = {row}\n" for row in rows)
    )
    expected = (1, "", f"error: {message}\n")
    assert run(capsys, "molien", "taf_d6", str(group)) == expected

    def refuse(*args, **kwargs):
        raise AssertionError("group enumerated")

    monkeypatch.setattr(records, "generate_group", refuse)
    for extra in ([], ["--json"]):
        assert run(capsys, "descent", "taf_d6", str(group), *extra) == expected, extra


@pytest.mark.parametrize(
    "block, message",
    [
        (("2 4", "1 2"), "generator is singular"),
        (("1 1/2", "2 1"), "generator is singular"),
        (("0 -1", "1 -1"), None),
    ],
    ids=["dense-singular", "singular-with-a-half", "dense-nonsingular"],
)
def test_generators_with_a_dense_block_are_checked_by_rank(tmp_path, capsys, block, message):
    # taf_d6_al_alpha has two degree-24 generators and a relation: molien
    # builds the group, and descent only checks the generators.
    group = tmp_path / "dense.group"
    group.write_text(
        "[group]\nname = dense\nblock = 8 1\nblock = 24 2\n\n[generator]\nrow = 1 0 0\n"
        + "".join(f"row = 0 {row}\n" for row in block)
    )
    for command in ("molien", "descent"):
        for extra in ([], ["--json"]):
            code, out, err = run(capsys, command, "taf_d6_al_alpha", str(group), *extra)
            if message is None:
                assert (code, err) == (0, "") and out, (command, extra)
            else:
                assert (code, out, err) == (1, "", f"error: ValueError: {message}\n"), (command, extra)


def test_unknown_twist_name_is_one_plain_line(capsys):
    expected = (
        "error: UnknownCharacter: no character named 'chi1' in the table;"
        " its characters are triv, sign\n"
    )
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "molien", "ku", "c2_negation", "--twist", "chi1", *extra)
        assert (code, out, err) == (1, "", expected), extra


def test_grading_is_checked_before_the_group_is_built(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("group enumerated")

    monkeypatch.setattr(records, "generate_group", refuse)
    for argv in (
        ["molien", "ku", "sigma3_standard"],
        ["sympow", "ku", "sigma3_standard", "--n", "2"],
        ["invgen", "ku", "sigma3_standard", "--degree", "2"],
        ["descent", "ku", "sigma3_standard"],
        ["descent", "taf_d6", "sigma3_standard"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error: BlockMismatch: group grading [4, 4]"), argv


def test_block_order_must_follow_generator_order(tmp_path, capsys):
    # Same degrees as the ring, listed in the other order: the matrix
    # columns would pair x with degree 12.
    ring = tmp_path / "xy.ring"
    ring.write_text("[ring]\nname = xy\ngenerator = x 8\ngenerator = y 12\n")
    group = tmp_path / "swapped.group"
    group.write_text(
        "[group]\nname = swapped\nblock = 12 1\nblock = 8 1\n\n"
        "[generator]\nrow = -1 0\nrow = 0 1\n"
    )
    for command in ("descent", "molien", "invgen"):
        argv = [command, str(ring), str(group)] + (["--degree", "8"] if command == "invgen" else [])
        code, _, err = run(capsys, *argv)
        assert code == 1, command
        assert "does not match" in err and "of xy" in err, command


def test_order_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GORENSTEIN_KIT_MAX_ORDER", "1")
    code, _, err = run(capsys, "molien", "tmf2", "sigma3_standard")
    assert code == 1
    assert "cap" in err


def test_order_cap_env_validation(capsys, monkeypatch):
    monkeypatch.setenv("GORENSTEIN_KIT_MAX_ORDER", "zero")
    code, _, err = run(capsys, "molien", "tmf2", "sigma3_standard")
    assert code == 1
    assert "GORENSTEIN_KIT_MAX_ORDER" in err


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_order_cap_env_refuses_a_cap_below_one(capsys, monkeypatch, raw):
    monkeypatch.setenv("GORENSTEIN_KIT_MAX_ORDER", raw)
    code, out, err = run(capsys, "molien", "tmf2", "sigma3_standard")
    assert (code, out) == (1, "")
    assert f"GORENSTEIN_KIT_MAX_ORDER must be a positive integer, got {raw!r}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["hilbert", "ku", "--max-degree", "-3"],
        ["molien", "tmf2", "sigma3_standard", "--max-degree", "-1"],
        ["sympow", "tmf2", "sigma3_standard", "--n", "-1"],
        ["invgen", "tmf2", "sigma3_standard", "--degree", "-4"],
        ["hilbert", "ku", "--max-degree", str(MAX_WINDOW_DEGREE + 1)],
        ["molien", "tmf2", "sigma3_standard", "--max-degree", str(MAX_WINDOW_DEGREE + 1)],
        ["sympow", "tmf2", "sigma3_standard", "--n", str(MAX_SYMPOW_N + 1)],
        ["invgen", "ku", "c2_negation", "--degree", str(MAX_WINDOW_DEGREE + 1)],
    ],
    ids=[
        "unknown-command", "hilbert-max-degree", "molien-max-degree", "sympow-n", "invgen-degree",
        "hilbert-window-cap", "molien-window-cap", "sympow-n-cap", "invgen-degree-cap",
    ],
)
def test_usage_error_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_window_cap_is_inclusive():
    assert window_degree(str(MAX_WINDOW_DEGREE)) == MAX_WINDOW_DEGREE


def test_invgen_degree_cap_is_inclusive(capsys):
    code, out, _ = run(capsys, "invgen", "ku", "c2_negation", "--degree", str(MAX_WINDOW_DEGREE))
    assert code == 0
    assert out.splitlines()[-1] == f"    v^{MAX_WINDOW_DEGREE // 2}"


def test_main_does_not_rebuild_the_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("main built a new parser")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "shift", "ku")[0] == 0


def test_sympow_cap_is_inclusive(capsys):
    assert sympow_power(str(MAX_SYMPOW_N)) == MAX_SYMPOW_N
    code, out, _ = run(capsys, "sympow", "ku", "c2_negation", "--n", str(MAX_SYMPOW_N))
    assert code == 0
    # -1 on a line: even powers are trivial, odd powers the sign.
    assert out.splitlines()[-1] == f"    Sym^{MAX_SYMPOW_N}: (10)  (degree {2 * MAX_SYMPOW_N})"


@pytest.mark.parametrize("ring", RING_FIXTURES)
def test_duality_text_prints_the_ring_series(capsys, ring):
    code, out, _ = run(capsys, "duality", ring)
    assert code == 0
    series = hilbert_series(load_ring_fixture(ring))
    assert f"  hilbert series: {series}\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "taf_d6"],
        ["duality", "taf_d6"],
        ["sympow", "tmf2", "sigma3_standard", "--n", "6"],
        ["descent", "tmf2", "sigma3_standard"],
        ["descent", "taf_d6", "taf_d6_alpha"],  # a base with relations: its duality report only
    ],
    ids=" ".join,
)
def test_text_output_builds_no_json_payload(capsys, monkeypatch, argv):
    expected = run(capsys, *argv)
    assert expected[0] == 0

    def refuse(*args):
        raise AssertionError("text output built a JSON payload")

    for helper in ("_ring_json", "_series_json", "_module_json", "_duality_json"):
        monkeypatch.setattr(cli, helper, refuse)
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv",
    [["hilbert", "taf_d6"], ["molien", "tmf2", "sigma3_standard"]],
    ids=["hilbert", "molien"],
)
def test_text_and_json_print_the_same_coefficients(capsys, argv):
    window = ["--max-degree", "300"]
    code, out, _ = run(capsys, *argv, *window)
    assert code == 0
    text_rows = [
        [int(line.split(":")[0].strip()[2:]), line.split(": ")[1]]
        for line in out.splitlines()
        if line.startswith("    t^")
    ]
    code, payload, _ = run_json(capsys, *argv, *window)
    assert code == 0
    assert [k for k, _ in payload["coefficients"]] == list(range(301))
    assert text_rows == [[k, c] for k, c in payload["coefficients"] if c != "0"]
    assert len(text_rows) > 10


def test_external_file_roundtrip(tmp_path, capsys):
    ring = tmp_path / "poly.ring"
    ring.write_text("[ring]\nname = poly\ngenerator = u 6\n")
    code, payload, _ = run_json(capsys, "shift", str(ring))
    assert code == 0
    assert payload["shift_by_formula"] == -7


def test_json_outputs_are_newline_terminated(capsys):
    for argv in (["table"], ["shift", "ku"], ["duality", "ku"]):
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert out.endswith("\n") and out.count("\n") == 1


# One passing command line per subcommand; all but table take a ring first.
SUBCOMMANDS = {
    "hilbert": ["hilbert", "ku"],
    "shift": ["shift", "ku"],
    "duality": ["duality", "ku"],
    "molien": ["molien", "tmf2", "sigma3_standard"],
    "sympow": ["sympow", "tmf2", "sigma3_standard", "--n", "4"],
    "invgen": ["invgen", "tmf2", "sigma3_standard", "--degree", "8"],
    "descent": ["descent", "tmf2", "sigma3_standard"],
    "table": ["table"],
}
RING_SUBCOMMANDS = [command for command in SUBCOMMANDS if command != "table"]
GROUP_SUBCOMMANDS = ["molien", "sympow", "invgen", "descent"]


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_writes_one_newline_terminated_output(capsys, command, flags):
    code, out, err = run(capsys, *SUBCOMMANDS[command], *flags)
    assert (code, err) == (0, "")
    assert out.endswith("\n") and not out.endswith("\n\n")
    if flags:
        assert out.count("\n") == 1
        assert json.loads(out)["schema"] == f"gorenstein-kit/{command}/1"


def test_the_parser_says_which_subcommands_take_a_ring_and_a_group():
    parsed = {command: cli._PARSER.parse_args(argv) for command, argv in SUBCOMMANDS.items()}
    assert [command for command, args in parsed.items() if "ring" in args] == RING_SUBCOMMANDS
    assert [command for command, args in parsed.items() if "group" in args] == GROUP_SUBCOMMANDS


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("command", RING_SUBCOMMANDS)
def test_a_missing_ring_is_one_error_line(capsys, tmp_path, command, flags):
    missing = tmp_path / "missing.ring"
    argv = [command, str(missing), *SUBCOMMANDS[command][2:]]
    code, out, err = run(capsys, *argv, *flags)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: FileNotFoundError: no bundled fixture '{missing}'; ")
    assert err.endswith("\n") and err.count("\n") == 1


@pytest.mark.parametrize("command", GROUP_SUBCOMMANDS)
def test_a_missing_ring_is_reported_before_a_missing_group(capsys, tmp_path, command):
    ring, group = tmp_path / "missing.ring", tmp_path / "missing.group"
    code, out, err = run(capsys, command, str(ring), str(group), *SUBCOMMANDS[command][3:])
    assert (code, out) == (1, "")
    assert f"'{ring}'" in err and "missing.group" not in err


def test_a_bad_degree_exits_two_before_any_file_is_read(capsys, monkeypatch):
    def refuse(arg):
        raise AssertionError(f"read {arg} before the arguments were checked")

    monkeypatch.setattr(cli, "load_ring_fixture", refuse)
    monkeypatch.setattr(cli, "load_group_fixture", refuse)
    with pytest.raises(SystemExit) as exc:
        main(["invgen", "tmf2", "sigma3_standard", "--degree", "-1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_computation_errors_carry_their_name(capsys):
    code, _, err = run(capsys, "descent", "tmf2", "c2_negation")
    assert code == 1
    assert "BlockMismatch" in err


def test_torsion_check_failure_carries_its_name_and_witness(capsys, monkeypatch):
    # A ring's series starts in degree 0, so its torsion cannot fail; 7*t^-5
    # times taf_d6's series has shift 2 - 10 = -8 and torsion 7 in degree -3.
    monkeypatch.setattr(duality, "hilbert_series", lambda p: 7 * shifted(hilbert_series(p), -5))
    code, out, err = run(capsys, "duality", "taf_d6")
    assert code == 1
    assert out == ""
    assert "TorsionNotVanishing" in err and "7 in degree -3, above the shift -8" in err


def test_cap_error_carries_its_name(capsys, monkeypatch):
    monkeypatch.setenv("GORENSTEIN_KIT_MAX_ORDER", "2")
    code, _, err = run(capsys, "molien", "tmf2", "sigma3_standard")
    assert code == 1
    assert "OrderCapExceeded" in err


def test_invgen_enumerates_no_group(tmp_path, capsys, monkeypatch):
    pairs = [("ku", "c2_negation"), ("tmf2", "sigma3_standard"),
             *(("taf_d6", f"taf_d6_{g}") for g in ("alpha", "beta", "alphabeta"))]
    argvs = [["invgen", ring, group, "--degree", str(degree)] for ring, group in pairs for degree in (12, 24)]
    for n, signed in ((4, False), (3, True)):
        built = signed_permutation_group(n, signed)
        group, ring = tmp_path / f"{built.name}.group", tmp_path / f"{built.name}.ring"
        group.write_text(records.serialize_group_record(
            records.GroupInputRecord(built.name, built.blocks, built.generators)
        ))
        ring.write_text(f"[ring]\nname = {built.name}\n" + "".join(f"generator = x{k} 2\n" for k in range(n)))
        argvs += [["invgen", str(ring), str(group), "--degree", str(degree)] for degree in (8, 12)]
    argvs = [argv + flags for argv in argvs for flags in ([], ["--json"])]
    expected = [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out and not err for code, out, err in expected)

    def refuse(*args, **kwargs):
        raise AssertionError("group enumerated")

    monkeypatch.setattr(invariants, "generate_group", refuse)
    monkeypatch.setattr(records, "generate_group", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected


@pytest.mark.parametrize(
    "ring, group",
    [
        ("ku", "[group]\nname = doubling\nblock = 2 1\n\n[generator]\nrow = 2\n"),
        ("tmf2", "[group]\nname = unipotent\nblock = 4 2\n\n[generator]\nrow = 1 1\nrow = 0 1\n"),
    ],
    ids=["doubling", "unipotent"],
)
def test_invgen_refuses_an_infinite_group(tmp_path, capsys, ring, group):
    path = tmp_path / "infinite.group"
    path.write_text(group)
    expected = (1, "", "error: OrderCapExceeded: group closure exceeds the cap of 10000 elements\n")
    for flags in ([], ["--json"]):
        assert run(capsys, "invgen", ring, str(path), "--degree", "8", *flags) == expected, flags


def test_invgen_is_capped_by_the_orbit_not_the_order(capsys, monkeypatch):
    # sigma3 has order 6 > 5, but its basis orbit of 6 vectors is within 2 * 5.
    monkeypatch.setenv("GORENSTEIN_KIT_MAX_ORDER", "5")
    code, out, err = run(capsys, "invgen", "tmf2", "sigma3_standard", "--degree", "8")
    assert (code, err) == (0, "") and "x^2 + x*y + y^2" in out
    code, out, err = run(capsys, "molien", "tmf2", "sigma3_standard")
    assert (code, out) == (1, "")
    assert err == "error: OrderCapExceeded: group closure exceeds the cap of 5 elements\n"


def test_invgen_monomial_bound(capsys, monkeypatch):
    # The bound counts the monomials of the degree, 1/prod(1 - t^{d_i}),
    # before any is enumerated, and is read on every call.
    code, out, err = run(capsys, "invgen", "tmf2", "sigma3_standard", "--degree", "20000")
    assert (code, out) == (1, "")
    assert err == "error: MonomialBoundExceeded: 5001 monomials at degree 20000 (bound 5000)\n"
    # taf_d6 has generators of degrees 8, 12 and 24: 4950 monomials at 2352.
    argv = ["invgen", "taf_d6", "taf_d6_alphabeta", "--degree"]
    code, out, err = run(capsys, *argv, "2352")
    assert (code, err) == (0, "") and out
    code, out, err = run(capsys, *argv, "2376")
    assert (code, out) == (1, "")
    assert err == "error: MonomialBoundExceeded: 5050 monomials at degree 2376 (bound 5000)\n"
    monkeypatch.setattr(invariants, "DEFAULT_MONOMIAL_BOUND", 5050)
    code, payload, err = run_json(capsys, *argv, "2376")
    assert (code, err) == (0, "")
    molien = invariants.molien_series(load_group_fixture("taf_d6_alphabeta").build()).series
    assert payload["dimension"] == molien.coefficient(2376) == 1275


def test_sympow_without_any_table_is_an_error(tmp_path, capsys):
    group = tmp_path / "c3.group"
    group.write_text(
        "[group]\nname = c3\nblock = 4 2\n\n[generator]\nrow = 0 -1\nrow = 1 -1\n"
    )
    ring = tmp_path / "base.ring"
    ring.write_text("[ring]\nname = base\ngenerator = x 4\ngenerator = y 4\n")
    code, _, err = run(capsys, "sympow", str(ring), str(group), "--n", "2")
    assert code == 1
    assert "NoBuiltinCharacterTable" in err and "character_table" in err


def test_named_twist_without_any_table_is_an_error(tmp_path, capsys):
    group = tmp_path / "c3.group"
    group.write_text(
        "[group]\nname = c3\nblock = 4 2\n\n[generator]\nrow = 0 -1\nrow = 1 -1\n"
    )
    ring = tmp_path / "base.ring"
    ring.write_text("[ring]\nname = base\ngenerator = x 4\ngenerator = y 4\n")
    expected = (
        "error: NoBuiltinCharacterTable: no built-in rational character table for a group"
        " of order 3; supply a [character_table] section in the group file\n"
    )
    for argv in (["molien", "--twist", "chi1"], ["sympow", "--n", "2"]):
        code, out, err = run(capsys, argv[0], str(ring), str(group), *argv[1:])
        assert (code, out, err) == (1, "", expected), argv


def test_sympow_refuses_an_incomplete_character_table(tmp_path, capsys):
    # The bundled sigma3 file without its std row: triv and sign are
    # orthonormal, so only completeness can reject the table.
    group = tmp_path / "sigma3_partial.group"
    group.write_text(
        "[group]\nname = sigma3\nblock = 4 2\n\n"
        "[generator]\nrow = -1 1\nrow = 0 1\n\n"
        "[generator]\nrow = 1 0\nrow = 1 -1\n\n"
        "[character_table]\nclass_sizes = 1 3 2\n"
        "irreducible = triv 1 1 1\nirreducible = sign 1 -1 1\n"
    )
    code, out, err = run(capsys, "sympow", "tmf2", str(group), "--n", "4")
    assert code == 1
    assert out == ""
    assert "incomplete character table: 2 irreducibles for 3 classes" in err


def test_twisted_molien_refuses_a_non_integral_character_table(tmp_path, capsys):
    # Orthonormal and complete for C_2, but 7/5 is no character value.
    group = tmp_path / "c2_fractional.group"
    group.write_text(
        "[group]\nname = c2\nblock = 2 1\n\n[generator]\nrow = -1\n\n"
        "[character_table]\nclass_sizes = 1 1\n"
        "irreducible = a 7/5 1/5\nirreducible = b -1/5 7/5\n"
    )
    code, out, err = run(capsys, "molien", "ku", str(group), "--twist", "a")
    assert code == 1
    assert out == ""
    assert "character 'a' has the non-integral value 7/5 on class 0" in err


def test_series_json_reconstructs_the_series(capsys):
    from fractions import Fraction

    from gorenstein_kit.graded_ring import gorenstein_shift_stanley, hilbert_series
    from gorenstein_kit.dataset import load_ring_fixture
    from gorenstein_kit.series import HilbertSeries, LaurentPolynomial

    code, payload, _ = run_json(capsys, "hilbert", "taf_d6")
    assert code == 0
    blob = payload["series"]
    rebuilt = HilbertSeries(
        LaurentPolynomial({e: Fraction(c) for e, c in blob["numerator"]}),
        blob["denominator_degrees"],
    )
    assert rebuilt == hilbert_series(load_ring_fixture("taf_d6"))


def test_table_flags_wrong_expectations_at_render_time(capsys, monkeypatch):
    import gorenstein_kit.cli as cli_mod

    rows = list(cli_mod.TABLE_ROWS)
    rows[0] = rows[0]._replace(expected_shift_a=99)
    monkeypatch.setattr(cli_mod, "TABLE_ROWS", tuple(rows))
    code, payload, _ = run_json(capsys, "table")
    assert code == 1
    assert payload["all_pass"] is False
    # the computed column is untouched by the (wrong) expectation
    assert payload["rows"][0]["computed_shift"] == -6
    assert payload["rows"][0]["pass"] is False
    assert all(row["pass"] for row in payload["rows"][1:])


NON_REGULAR_RING = """\
[ring]
name = bogus
generator = x 2
generator = y 2
relation = f 3
regular = yes
"""

# (1 - t^3)/(1 - t^2)^2 is -1 in degree 3, so the asserted regular sequence
# fails its check; the reports are printed as for any other ring.
NON_REGULAR_STDOUT = {
    "duality": [
        "  hilbert series: (1 - t^3)/(1 - t^2)(1 - t^2)",
        "  krull dimension 1, gorenstein shift a = -2",
        "  torsion part:   pi_*(Gamma r)  = Sigma^-2 dual(r_*)",
        "  localized ring: r_* (+) Sigma^-1 dual(r_*)   [vanishing-range]",
        "  anderson: K^R = Sigma^1 R, i.e. Anderson self-dual of shift -1",
        "  duality recovery range (shift <= -2, torsion vanishing above it): yes",
    ],
    "descent": [
        "  note: base ring is not polynomial; descent prediction out of regime,"
        " base-ring report follows",
        "  gorenstein shift a = -2",
        "  anderson: K^R = Sigma^1 R, i.e. Anderson self-dual of shift -1",
    ],
}


# The bundled c2_negation acts on one degree-2 coordinate; this one negates
# both generators of the ring above, so descent passes the grading check.
NEGATION_GROUP = (
    "[group]\nname = c2_negation\nblock = 2 2\n\n[generator]\nrow = -1 0\nrow = 0 -1\n"
)


@pytest.mark.parametrize("argv", [["duality"], ["descent", "c2_negation"]])
def test_failed_regularity_check_warns_once_on_one_line(tmp_path, capsys, argv):
    ring = tmp_path / "bogus.ring"
    ring.write_text(NON_REGULAR_RING)
    group = tmp_path / "c2_negation.group"
    group.write_text(NEGATION_GROUP)
    rest = [str(group) if arg == "c2_negation" else arg for arg in argv[1:]]
    code, out, err = run(capsys, argv[0], str(ring), *rest)
    assert code == 0
    header = ["ring bogus", "  generators: x:2 y:2", "  relations:  f:3"]
    assert out.splitlines() == header + NON_REGULAR_STDOUT[argv[0]]
    assert err == (
        "warning: RegularSequenceWarning: bogus: asserted regular sequence, but"
        " the series has a negative coefficient -1 at degree 3\n"
    )


def test_molien_and_descent_on_a_degree_million_generator(capsys, tmp_path):
    # Invariant degrees come from exact division, so a huge generator degree
    # costs no coefficient window.
    ring = tmp_path / "big.ring"
    ring.write_text("[ring]\nname = big\ncoefficients = Z\ngenerator = v 1000000\nregular = yes\n")
    group = tmp_path / "minus.group"
    group.write_text("[group]\nname = minus\nblock = 1000000 1\n\n[generator]\nrow = -1\n")
    code, payload, _ = run_json(capsys, "molien", str(ring), str(group), "--max-degree", "2")
    assert code == 0
    assert payload["polynomial_degrees"] == [2000000]
    code, out, err = run(capsys, "descent", str(ring), str(group))
    assert code == 0 and err == ""
    assert "  base gorenstein shift a = -1000001\n" in out
    assert "  solomon supplement b = -1000000  (verified)\n" in out
    assert "  descended gorenstein shift a+b = -2000001\n" in out
    assert "  cross-check of the invariant ring's shift: ok\n" in out


@pytest.mark.parametrize("wide", [10**6, 10**9])
def test_degree_two_beside_a_huge_degree_costs_no_array_over_the_span(capsys, tmp_path, wide):
    # Generator and relation degrees 2 and `wide` side by side: every product
    # and quotient by a factor 1 - t^d stays a few terms, so the commands
    # allocate nothing proportional to `wide`.
    ring = tmp_path / "mixed.ring"
    ring.write_text(
        f"[ring]\nname = mixed\ncoefficients = Z\ngenerator = x 2\ngenerator = y {wide}\nregular = yes\n"
    )
    trivial = tmp_path / "trivial.group"
    trivial.write_text(
        f"[group]\nname = trivial\nblock = 2 1\nblock = {wide} 1\n\n[generator]\nrow = 1 0\nrow = 0 1\n"
    )
    complete = tmp_path / "complete.ring"
    complete.write_text(
        f"[ring]\nname = complete\ncoefficients = Z\ngenerator = x 2\ngenerator = y {wide}\n"
        f"generator = z {wide}\nrelation = f 2\nrelation = g {wide}\nregular = yes\n"
    )
    single = tmp_path / "single.ring"
    single.write_text(f"[ring]\nname = single\ncoefficients = Z\ngenerator = v {wide}\nregular = yes\n")
    minus = tmp_path / "minus.group"
    minus.write_text(f"[group]\nname = minus\nblock = {wide} 1\n\n[generator]\nrow = -1\n")
    tracemalloc.start()
    try:
        code, payload, _ = run_json(capsys, "molien", str(ring), str(trivial), "--max-degree", "4")
        assert code == 0 and payload["polynomial_degrees"] == [2, wide]
        code, out, err = run(capsys, "descent", str(ring), str(trivial))
        assert code == 0 and err == ""
        assert f"  base gorenstein shift a = {-wide - 4}\n" in out
        assert "  solomon supplement b = 0  (verified)\n" in out
        code, out, err = run(capsys, "duality", str(complete))
        assert code == 0 and err == ""
        assert f"  hilbert series: 1/(1 - t^{wide})\n" in out
        assert f"  krull dimension 1, gorenstein shift a = {-wide - 1}\n" in out
        code, payload, _ = run_json(capsys, "molien", str(single), str(minus), "--max-degree", "4")
        assert code == 0 and payload["polynomial_degrees"] == [2 * wide]
        code, out, err = run(capsys, "descent", str(single), str(minus))
        assert code == 0 and err == ""
        assert f"  descended gorenstein shift a+b = {-2 * wide - 1}\n" in out
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_swapping_two_generators_of_degree_a_billion(capsys, tmp_path):
    # The class pass adds 1/(1 - t^d)^2 and (1 - t^2d)/(1 - t^2d)^2 over the
    # lcm (1 - t^d)^2(1 - t^2d), d = 10^9: a few terms each, so it is
    # immediate; a kernel sized by the exponent span would need 10^9 entries.
    ring = tmp_path / "wide.ring"
    ring.write_text(
        "[ring]\nname = wide\ncoefficients = Z\ngenerator = x 1000000000\ngenerator = y 1000000000\n"
        "regular = yes\n"
    )
    group = tmp_path / "swap.group"
    group.write_text("[group]\nname = swap\nblock = 1000000000 2\n\n[generator]\nrow = 0 1\nrow = 1 0\n")
    started = time.perf_counter()
    code, payload, err = run_json(capsys, "molien", str(ring), str(group))
    assert code == 0 and err == ""
    assert payload["series"]["display"] == "1/(1 - t^1000000000)(1 - t^2000000000)"
    assert payload["polynomial_degrees"] == [1000000000, 2000000000]
    code, out, err = run(capsys, "descent", str(ring), str(group))
    assert code == 0 and err == ""
    assert "  invariant degrees: [1000000000, 2000000000]\n" in out
    assert "  solomon supplement b = -1000000000  (verified)\n" in out
    assert time.perf_counter() - started < 0.5


def test_descent_names_why_the_invariants_are_not_polynomial(capsys, tmp_path):
    # -1 on both generators of tmf2: the Molien series is
    # (1 + t^8)/(1 - t^8)^2, and 1 + t^8 does not divide (1 - t^8)^2, but
    # -1 lies in SL(V), so M_det = M and R^G is Gorenstein with b = 0.
    group = tmp_path / "minus.group"
    group.write_text("[group]\nname = minus\nblock = 4 2\n\n[generator]\nrow = -1 0\nrow = 0 -1\n")
    code, out, err = run(capsys, "descent", "tmf2", str(group))
    assert code == 0 and err == ""
    assert (
        "  invariants are not polynomial at this rank\n"
        "  solomon supplement b = 0  (verified)\n"
        "  descended gorenstein shift a+b = -10\n"
    ) in out
    assert "  cross-check of the invariant ring's shift: ok\n" in out


def _diagonal(*entries):
    return [[e if i == j else 0 for j in range(len(entries))] for i, e in enumerate(entries)]


def _descent_files(tmp_path, ring, generators):
    """(ring, group) arguments for ``descent``: ``ring`` is a bundled name or
    the generator degrees of a relation-free base ring named ``base``, and
    the group ``g`` is generated by ``generators``, one grading block per
    run of equal degrees."""
    if isinstance(ring, str):
        degrees = load_ring_fixture(ring).generator_degrees
    else:
        degrees, path = ring, tmp_path / "base.ring"
        path.write_text(
            "[ring]\nname = base\n" + "".join(f"generator = x{i} {d}\n" for i, d in enumerate(ring))
        )
        ring = str(path)
    blocks = "".join(f"block = {d} {len(list(run))}\n" for d, run in groupby(degrees))
    rows = "".join(
        "\n[generator]\n" + "".join(f"row = {' '.join(map(str, row))}\n" for row in m)
        for m in generators
    )
    group = tmp_path / "g.group"
    group.write_text(f"[group]\nname = g\n{blocks}{rows}")
    return ring, str(group)


@pytest.mark.parametrize(
    "ring, generators, shift",
    [
        pytest.param("tmf2", [[[0, -1], [1, -1]]], -10, id="c3-in-sigma3-on-tmf2"),
        pytest.param((2, 6), [_diagonal(-1, -1)], -10, id="minus-on-tmf_1(3)-degrees"),
        pytest.param((2,) * 4, [_diagonal(-1, -1, -1, -1)], -12, id="minus-on-four"),
        pytest.param((2, 2), [[[0, -1], [1, 0]]], -6, id="c4-rotation"),
        pytest.param((2, 2, 2), [_diagonal(-1, -1, 1)], -9, id="diag(-1,-1,1)"),
        pytest.param("tmf2", [_diagonal(-1, -1)], -10, id="minus-on-tmf2"),
    ],
)
def test_descent_reports_gorenstein_invariants_that_are_not_polynomial(
    capsys, tmp_path, ring, generators, shift
):
    # Each group lies in SL(V) and has no pseudoreflection: by Watanabe R^G
    # is Gorenstein, and M_det = M gives b = 0, so R^G has the base shift.
    code, payload, err = run_json(capsys, "descent", *_descent_files(tmp_path, ring, generators))
    assert code == 0 and err == ""
    d = payload["descent"]
    assert d["invariant_degrees"] is None and d["invariant_ring"] is None
    assert d["base_shift"] == d["descended_gorenstein_shift"] == shift
    assert d["solomon_supplement"] == 0 and d["solomon_verified"] is True
    assert d["cross_check"] is True


@pytest.mark.parametrize("n", range(2, 7))
def test_veronese_invariants_are_gorenstein_exactly_for_even_n(capsys, tmp_path, n):
    # -1 on n degree-2 coordinates: R^G is the second Veronese ring, which is
    # Gorenstein iff 2 | n (Goto-Watanabe), with shift -3n when it is.
    ring, group = _descent_files(tmp_path, (2,) * n, [_diagonal(*[-1] * n)])
    code, out, err = run(capsys, "descent", ring, group, "--json")
    if n % 2:
        assert (code, out) == (1, "")
        assert err.startswith("error: NotGorensteinSeries: base^g is not Gorenstein: ")
        assert "is not a signed power of t: over the common denominator, t^2 has coefficient" in err
        assert err.count("\n") == 1
    else:
        assert code == 0 and err == ""
        d = json.loads(out)["descent"]
        assert d["descended_gorenstein_shift"] == -3 * n and d["invariant_degrees"] is None


def test_one_transposition_of_sigma3_descends_to_the_tmf_0_2_row(capsys, tmp_path):
    # tmf(2) -> tmf_0(2) in the table's tower: tmf2 under the C_2 generated
    # by the first transposition of sigma3_standard.
    transposition = load_group_fixture("sigma3_standard").generators[0]
    assert transposition == ((-1, 1), (0, 1))
    code, out, err = run(capsys, "descent", *_descent_files(tmp_path, "tmf2", [transposition]))
    assert code == 0 and err == ""
    assert (
        "  invariant degrees: [4, 8]\n"
        "  solomon supplement b = -4  (verified)\n"
        "  descended gorenstein shift a+b = -14\n"
    ) in out
    assert "  cross-check of the invariant ring's shift: ok\n" in out
    (row,) = [row for row in TABLE_ROWS if row.name == "tmf_0(2)"]
    assert row.expected_shift_a == -14
