"""The coefficient window of ``hilbert`` and ``molien``.

The window is rendered and written in pieces of ``cli._WINDOW_CHUNK``
coefficients, not through ``json.dumps`` and never as one string.  The
references here are the renderers the window had before: for ``--json``,
a list of ``[k, str(c)]`` pairs under ``"coefficients"``, dumped with the
rest of the payload by one ``json.dumps(..., sort_keys=True)``; in text,
one ``"\\n".join`` of the rows ``    t^k: c`` with zeros skipped.  Their
coefficients come from the library's series, not from the output under
test.
"""

import json
import tracemalloc
from fractions import Fraction

import pytest
from conftest import FIXTURE_PAIRS

from gorenstein_kit import cli
from gorenstein_kit.cli import main
from gorenstein_kit.dataset import RING_FIXTURES, load_group_fixture, load_ring_fixture
from gorenstein_kit.graded_ring import hilbert_series
from gorenstein_kit.invariants import molien_series
from gorenstein_kit.series import HilbertSeries, LaurentPolynomial

CHUNK = cli._WINDOW_CHUNK
# Windows of one coefficient short of a piece, one piece, one over, and two
# pieces and one coefficient; --max-degree is one less than the window size.
STRADDLING_SIZES = (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1)
# Windows that end 23 to 25 coefficients into a second piece, and 49 into a
# third.
PARTIAL_SIZES = (1023, 1024, 1025, 2049)
# Windows of 10, 11, 100 and 101 coefficients: the first piece's rows come
# from the digit passes for indices below 10, 100 and 1000, and these sizes
# end on and just past the boundaries between them.
PASS_SIZES = (10, 11, 100, 101)
MAX_DEGREES = (0, 1, 40, 20000, *(n - 1 for n in PASS_SIZES + STRADDLING_SIZES + PARTIAL_SIZES))
TEXT_MAX_DEGREES = (0, 40, *(n - 1 for n in PASS_SIZES + STRADDLING_SIZES + PARTIAL_SIZES))
# Rings the text tests write: Krull dimension 0, whose series 1 + t^2
# leaves every piece after the first empty, and generators of degrees 3 and
# 1000, whose gcd 1 leaves irregular runs of zeros inside later pieces.
WRITTEN_RINGS = {
    "finite": "[ring]\nname = finite\ngenerator = x 2\nrelation = f 4\n",
    "gaps": "[ring]\nname = gaps\ngenerator = x 3\ngenerator = y 1000\n",
}
# 100000 reaches piece 100, the first piece number with three digits.
WRITTEN_RING_MAX_DEGREES = (*TEXT_MAX_DEGREES, 100 * CHUNK)
# The rows `main` hands `cli._window_pieces` for a text and a --json window.
TEXT_ROW = "\n    t^@: %s"
JSON_ROW = ', [@, "%s"]'


def old_render(out: str, coefficients: list) -> str:
    """The payload as one ``json.dumps`` of the old structure wrote it."""
    payload = json.loads(out)
    payload["coefficients"] = [[k, str(c)] for k, c in enumerate(coefficients)]
    return json.dumps(payload, sort_keys=True) + "\n"


def json_window(coefficients: list) -> str:
    """The --json window as `main` writes it: its pieces in brackets, without
    the ", " ahead of the first pair."""
    return "[" + "".join(cli._window_pieces(coefficients, JSON_ROW))[2:] + "]"


def old_text_window(hi: int, coefficients: list) -> str:
    """The text window as one join of its rows wrote it, from its heading on."""
    rows = [f"    t^{k}: {c}" for k, c in enumerate(coefficients) if c]
    return "\n".join([f"  coefficients 0..{hi}:", *rows]) + "\n"


def keys_in_order(out: str) -> list[list[str]]:
    """The keys of every JSON object in ``out``, in the order written."""
    orders = []

    def hook(pairs):
        orders.append([k for k, _ in pairs])
        return dict(pairs)

    json.loads(out, object_pairs_hook=hook)
    return orders


def run(capsys, argv: list[str]) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    return captured.out


def check_payload(out: str, coefficients: list) -> None:
    assert out == old_render(out, coefficients)
    for keys in keys_in_order(out):
        assert keys == sorted(keys)
    assert keys_in_order(out)[-1][0] == "coefficients"


def check_text(capsys, argv: list[str], hi: int, coefficients: list) -> None:
    """The text output is the lines before the window, as printed with a
    window of degree 0, then the window as one join wrote it."""
    head = run(capsys, [*argv, "--max-degree", "0"]).split("  coefficients 0..0:")[0]
    out = run(capsys, [*argv, "--max-degree", str(hi)])
    assert out == head + old_text_window(hi, coefficients)


@pytest.mark.parametrize("hi", MAX_DEGREES)
@pytest.mark.parametrize("ring", RING_FIXTURES)
def test_hilbert_json_window_matches_one_json_dumps(capsys, ring, hi):
    out = run(capsys, ["hilbert", ring, "--max-degree", str(hi), "--json"])
    check_payload(out, hilbert_series(load_ring_fixture(ring)).expand(0, hi))


@pytest.mark.parametrize("hi", MAX_DEGREES)
@pytest.mark.parametrize("ring,group", FIXTURE_PAIRS)
def test_molien_json_window_matches_one_json_dumps(capsys, ring, group, hi):
    built = load_group_fixture(group).build()
    expected = molien_series(built).series.expand(0, hi)
    check_payload(run(capsys, ["molien", ring, group, "--max-degree", str(hi), "--json"]), expected)
    if hi <= 40:
        expected = molien_series(built, twist="det").series.expand(0, hi)
        argv = ["molien", ring, group, "--twist", "det", "--max-degree", str(hi), "--json"]
        check_payload(run(capsys, argv), expected)


def test_hilbert_json_window_at_the_cap_matches_one_json_dumps(capsys):
    # Pieces 100..200 of the window: indices with a three-digit piece number.
    hi = cli.MAX_WINDOW_DEGREE
    out = run(capsys, ["hilbert", "tmf2", "--max-degree", str(hi), "--json"])
    check_payload(out, hilbert_series(load_ring_fixture("tmf2")).expand(0, hi))


@pytest.mark.parametrize("hi", TEXT_MAX_DEGREES)
@pytest.mark.parametrize("ring", RING_FIXTURES)
def test_hilbert_text_window_matches_one_join(capsys, ring, hi):
    check_text(capsys, ["hilbert", ring], hi, hilbert_series(load_ring_fixture(ring)).expand(0, hi))


@pytest.mark.parametrize("hi", TEXT_MAX_DEGREES)
@pytest.mark.parametrize("ring,group", FIXTURE_PAIRS)
def test_molien_text_window_matches_one_join(capsys, ring, group, hi):
    built = load_group_fixture(group).build()
    check_text(capsys, ["molien", ring, group], hi, molien_series(built).series.expand(0, hi))
    expected = molien_series(built, twist="det").series.expand(0, hi)
    check_text(capsys, ["molien", ring, group, "--twist", "det"], hi, expected)


@pytest.mark.parametrize("hi", WRITTEN_RING_MAX_DEGREES)
@pytest.mark.parametrize("name", WRITTEN_RINGS)
def test_hilbert_text_window_on_written_rings_matches_one_join(capsys, tmp_path, name, hi):
    path = tmp_path / f"{name}.ring"
    path.write_text(WRITTEN_RINGS[name])
    coefficients = hilbert_series(load_ring_fixture(str(path))).expand(0, hi)
    check_text(capsys, ["hilbert", str(path)], hi, coefficients)
    later = cli._window_pieces(coefficients, TEXT_ROW, skip_zeros=True)[1:]
    if name == "finite":
        assert later == [""] * len(later)
    else:  # 3a + 1000b misses degrees up to 1997, so no piece is empty
        assert "" not in later


@pytest.mark.parametrize("head,tail", [(", [", ', "%s"]'), ("\n    t^", ": %s\0")])
def test_literal_index_template_writes_every_index_in_order(head, tail):
    # The JSON pair and the text row, NUL-ended so that the output splits
    # into its rows.  Pieces 0, 1 and 2, each index k written in the row of
    # the coefficient k + 1; no coefficient is zero, so skipping zeros keeps
    # every row.
    size = 3 * CHUNK
    rows = [f"{head}{k}{tail}" % (k + 1) for k in range(size)]
    for skip_zeros in (False, True):
        pieces = cli._window_pieces(list(range(1, size + 1)), f"{head}@{tail}", skip_zeros)
        assert pieces == ["".join(rows[lo:lo + CHUNK]) for lo in range(0, size, CHUNK)]
        if tail.endswith("\0"):
            assert "".join(pieces).split("\0") == [row[:-1] for row in rows] + [""]


def fraction_window(hi: int) -> list:
    # (1/2 - 3t^3 - 5/7 t^4) / (1 - t^2) = 1/2 + 1/2 t^2 - 3t^3 - 3/14 t^4 - ...:
    # Fractions, negative integers and negative Fractions, and zeros.
    numerator = LaurentPolynomial({0: Fraction(1, 2), 3: -3, 4: Fraction(-5, 7)})
    return HilbertSeries(numerator, (2,)).expand(0, hi)


def test_window_json_renders_fractions_and_negative_coefficients():
    window = fraction_window(60)
    assert any(type(c) is Fraction for c in window)
    assert any(c < 0 and type(c) is int for c in window)
    assert any(c < 0 and type(c) is Fraction for c in window)
    assert 0 in window
    assert json_window(window) == json.dumps([[k, str(c)] for k, c in enumerate(window)])
    assert cli._window_pieces([], JSON_ROW) == []
    assert json_window([]) == json.dumps([])


def test_window_lines_skip_zeros():
    rows = cli._window_pieces([1, 0, -2, Fraction(1, 3)], TEXT_ROW, skip_zeros=True)
    assert "".join(rows) == "\n    t^0: 1\n    t^2: -2\n    t^3: 1/3"


@pytest.mark.parametrize("size", (1, *PASS_SIZES, *STRADDLING_SIZES, *PARTIAL_SIZES, 100 * CHUNK + 1))
def test_window_pieces_hold_at_most_one_chunk(size):
    # Positive and negative Fractions, negative ints and zeros; the longest
    # window's last piece is piece 100, the first with a three-digit number.
    window = fraction_window(size - 1)
    assert json_window(window) == json.dumps([[k, str(c)] for k, c in enumerate(window)])
    pieces = cli._window_pieces(window, JSON_ROW)
    chunks = -(-size // CHUNK)
    assert len(pieces) == chunks
    assert [piece.count("[") for piece in pieces] == [min(CHUNK, size - lo) for lo in range(0, size, CHUNK)]
    rows = cli._window_pieces(window, TEXT_ROW, skip_zeros=True)
    assert "".join(rows) == "".join(f"\n    t^{k}: {c}" for k, c in enumerate(window) if c)
    assert len(rows) == chunks
    assert max(row.count("\n") for row in rows) <= CHUNK


def traced_peak_at_the_cap(capsys, argv: list[str]) -> tuple[int, str]:
    """(tracemalloc's peak, captured output) of one command at the window cap."""
    tracemalloc.start()
    try:
        code = main([*argv, "--max-degree", str(cli.MAX_WINDOW_DEGREE)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0
    return peak, out


def test_window_at_the_cap_holds_no_container_per_coefficient(capsys):
    # tracemalloc's peak here, the captured 3 MB output included, was about
    # 41 MB while each coefficient became its own [k, str(c)] list for
    # json.dumps, about 18.1 MB with the window one formatted string copied
    # twice on its way out, and is about 9.6 MB with it written in pieces
    # (3.2 MB of it the coefficient list, 3.3 MB the captured output).  The
    # bound is that measurement plus 1.5 MB.
    peak, out = traced_peak_at_the_cap(capsys, ["hilbert", "taf_d6", "--json"])
    assert len(out) == 3055992
    assert peak < 11_100_000


def test_text_window_at_the_cap_is_never_one_string(capsys):
    # The 0.94 MB text window at the cap peaked at about 10.7 MB while its
    # rows were one list, then one joined string, then that string and a
    # newline.  Written in pieces, every piece after the first formatted
    # from the 1000 literal-index rows, it peaks at about 5.14 MB, the
    # captured output included.  The bound is that measurement plus 1.5 MB.
    peak, out = traced_peak_at_the_cap(capsys, ["hilbert", "taf_d6"])
    assert len(out) == 939082
    assert peak < 6_650_000
