"""The input front end against the code it replaced: argument dispatch,
input-file resolution and the record splitter each give what the older
route gave, byte for byte, on a fixed corpus and on drawn texts."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from gorenstein_kit import cli, dataset, records
from gorenstein_kit.cli import MAX_SYMPOW_N, MAX_WINDOW_DEGREE
from gorenstein_kit.dataset import fixture_path, load_group_fixture, load_ring_fixture
from gorenstein_kit.records import ParseError, parse_ring_record

# Usage errors, help, and one valid line per subcommand.
ARGVS = [
    [],
    ["-h"],
    ["hilbert", "--help"],
    ["shift", "ku", "-h"],
    ["no-such-command"],
    ["--json", "shift", "ku"],
    ["hilbert"],
    ["molien", "tmf2"],
    ["shift", "ku", "extra"],
    ["shift", "ku", "--bogus"],
    ["hilbert", "ku", "--max", "5"],
    ["hilbert", "--", "ku"],
    ["hilbert", "--", "--json"],
    ["sympow", "tmf2", "sigma3_standard"],
    ["hilbert", "ku", "--max-degree", "-3"],
    ["molien", "tmf2", "sigma3_standard", "--max-degree", "-1"],
    ["sympow", "tmf2", "sigma3_standard", "--n", "-1"],
    ["invgen", "tmf2", "sigma3_standard", "--degree", "-4"],
    ["hilbert", "ku", "--max-degree", str(MAX_WINDOW_DEGREE + 1)],
    ["molien", "tmf2", "sigma3_standard", "--max-degree", str(MAX_WINDOW_DEGREE + 1)],
    ["sympow", "tmf2", "sigma3_standard", "--n", str(MAX_SYMPOW_N + 1)],
    ["invgen", "ku", "c2_negation", "--degree", str(MAX_WINDOW_DEGREE + 1)],
    ["hilbert", "ku", "--max-degree", "12"],
    ["shift", "taf_d15", "--json"],
    ["duality", "taf_d6"],
    ["molien", "tmf2", "sigma3_standard", "--twist", "det", "--json"],
    ["sympow", "tmf2", "sigma3_standard", "--n", "4"],
    ["invgen", "ku", "c2_negation", "--degree", "6"],
    ["descent", "taf_d6", "taf_d6_alpha"],
    ["table", "--json"],
]


def run_main(monkeypatch, capsys, argv, parse):
    """(exit code, stdout, stderr, namespaces parsed) of ``cli.main(argv)``
    with ``parse`` in place of its argument parsing."""
    parsed = []

    def recording(args):
        parsed.append(parse(args))
        return parsed[-1]

    monkeypatch.setattr(cli, "_parse_args", recording)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, parsed


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_dispatch_matches_the_top_parser(monkeypatch, capsys, argv):
    dispatch = cli._parse_args
    new = run_main(monkeypatch, capsys, list(argv), dispatch)
    old = run_main(monkeypatch, capsys, list(argv), cli._PARSER.parse_args)
    assert new == old


@pytest.mark.parametrize("argv", [["shift", "ku"], ["shift", "ku", "--bogus"], []])
def test_dispatch_reads_sys_argv_when_given_none(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "argv", ["gorenstein-kit", *argv])
    dispatch = cli._parse_args
    new = run_main(monkeypatch, capsys, None, dispatch)
    old = run_main(monkeypatch, capsys, None, cli._PARSER.parse_args)
    assert new == old


def test_main_parses_a_subcommand_with_its_own_parser(capsys, monkeypatch):
    def refuse(args=None, namespace=None):
        raise AssertionError("main parsed through the top parser")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    assert cli.main(["shift", "ku"]) == 0
    assert "agreement: yes" in capsys.readouterr().out


def test_loading_a_bundled_fixture_builds_no_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a pathlib.Path")

    monkeypatch.setattr(dataset, "Path", refuse)
    assert load_ring_fixture("ku").name == "ku"
    assert load_ring_fixture("tmf2.ring").name == "tmf2"
    assert load_group_fixture("c2_negation").build().order == 2


def old_input_path(arg, suffix):
    """The resolution rule as it was written on ``pathlib``."""
    path = Path(arg)
    if path.is_file():
        return path
    return fixture_path(arg if path.suffix else arg + suffix)


def resolved(resolve, arg, suffix):
    try:
        return str(resolve(arg, suffix))
    except OSError as exc:
        return type(exc), str(exc)


EDGE_ARGS = [
    "ku", "ku.ring", "./ku.ring", "ku/", "ku/.", "./ku", "tmf2", "tmf2.ring", "c2_negation",
    "c2_negation.group", "sigma3_standard.ring", "x.", "x", ".ring", ".hidden", "", ".", "..",
    "a.b", "a.b/", "a.b/c", "a.b/c.ring", "a.b/.", "ku.txt", "no_such", "taf_d6.ring",
    "data/ku.ring", "data//ku.ring",
]


@pytest.mark.parametrize("shadowed", [False, True], ids=["empty-cwd", "shadowing-cwd"])
@pytest.mark.parametrize("suffix", [".ring", ".group"])
def test_input_resolution_matches_the_pathlib_rule(tmp_path, monkeypatch, shadowed, suffix):
    if shadowed:
        # Files named like fixtures, a directory named like one, a dotted directory.
        for name in ("ku", "tmf2.ring", "c2_negation", "x.", "ku.txt", "a.b/c", "data/ku.ring"):
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text("[ring]\nname = shadow\n")
        (tmp_path / "taf_d6.ring").mkdir()
    monkeypatch.chdir(tmp_path)
    for arg in EDGE_ARGS:
        new = resolved(lambda a, s: dataset._read_input(a, s)[0], arg, suffix)
        assert new == resolved(old_input_path, arg, suffix), arg


def test_a_bundled_fixture_reads_as_the_pathlib_rule_read_it():
    for name in ("ku", "taf_d6", "c2_negation", "sigma3_standard"):
        suffix = ".group" if name in dataset.GROUP_FIXTURES else ".ring"
        path = old_input_path(name, suffix)
        assert dataset._read_input(name, suffix) == (str(path), path.read_text())


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_other_line_ends_read_as_newlines_did(tmp_path, end):
    good = fixture_path("ku.ring").read_text().replace("\n", end)
    bad = "[ring]\nname = x\n\ngenerator = x two\n".replace("\n", end)
    for name, text in (("good.ring", good), ("bad.ring", bad)):
        path = tmp_path / name
        path.write_bytes(text.encode())
        try:
            expected = parse_ring_record(path.read_text(), source=str(path))
        except ParseError as exc:
            expected = str(exc)
        try:
            got = load_ring_fixture(str(path))
        except ParseError as exc:
            got = str(exc)
        assert got == expected


def old_logical_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line


def old_split_sections(text, source):
    """The splitter as it was written on ``old_logical_lines``."""
    sections = []
    current = None
    for number, line in old_logical_lines(text):
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


def split(splitter, text):
    try:
        return splitter(text, "t.ring")
    except ParseError as exc:
        return str(exc)


LINES = st.one_of(
    st.sampled_from([
        "[ring]", "[group]", " [ generator ] ", "[]", "[ ]", "[ # ]", "[a] # note", "[[x]]", "[", "]",
        "name = x", "a=b", " key =  value = more ", "=", "= v", "k =", "no equals", "# comment",
        "   # indented comment", "x = 1 # trailing", "#[ring]", "", "   ", "\t", "row = 1 -1",
    ]),
    st.text(alphabet="[]#= ab\t", max_size=8),
)
ENDS = st.sampled_from(["\n", "\r\n", "\r", "\v", "\x85"])


@given(st.lists(st.tuples(LINES, ENDS), max_size=12), st.booleans())
def test_one_loop_splitter_matches_the_generator_splitter(lines, closed):
    text = "".join(line + end for line, end in lines)
    if not closed and lines:
        text = text[: -len(lines[-1][1])]
    assert split(records._split_sections, text) == split(old_split_sections, text)


@given(st.text(alphabet="[]#=ab \t\r\n", max_size=40))
def test_one_loop_splitter_matches_on_any_text(text):
    assert split(records._split_sections, text) == split(old_split_sections, text)
