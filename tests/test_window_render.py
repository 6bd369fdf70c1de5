"""The ``--json`` coefficient window of ``hilbert`` and ``molien``.

The window ``[[k, "c_k"], ...]`` is rendered as text in one format call,
not through ``json.dumps``.  The reference here is the structure the
payload held before: a list of ``[k, str(c)]`` pairs under
``"coefficients"``, dumped with the rest of the payload by one
``json.dumps(..., sort_keys=True)``.  Its coefficients come from the
library's series, not from the output under test.
"""

import json
import tracemalloc
from fractions import Fraction

import pytest

from gorenstein_kit import cli
from gorenstein_kit.cli import main
from gorenstein_kit.dataset import RING_FIXTURES, load_group_fixture, load_ring_fixture
from gorenstein_kit.graded_ring import hilbert_series
from gorenstein_kit.invariants import molien_series
from gorenstein_kit.series import HilbertSeries, LaurentPolynomial

FIXTURE_PAIRS = [
    ("ku", "c2_negation"),
    ("tmf2", "sigma3_standard"),
    ("taf_d6", "taf_d6_alpha"),
    ("taf_d6", "taf_d6_beta"),
    ("taf_d6", "taf_d6_alphabeta"),
]
MAX_DEGREES = (0, 1, 40, 20000)


def old_render(out: str, coefficients: list) -> str:
    """The payload as one ``json.dumps`` of the old structure wrote it."""
    payload = json.loads(out)
    payload["coefficients"] = [[k, str(c)] for k, c in enumerate(coefficients)]
    return json.dumps(payload, sort_keys=True) + "\n"


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


def test_window_json_renders_fractions_and_negative_coefficients():
    # (1/2 - 3t^3 - 5/7 t^4) / (1 - t^2) = 1/2 + 1/2 t^2 - 3t^3 - 3/14 t^4 - ...:
    # Fractions, negative integers and negative Fractions, and zeros.
    numerator = LaurentPolynomial({0: Fraction(1, 2), 3: -3, 4: Fraction(-5, 7)})
    window = HilbertSeries(numerator, (2,)).expand(0, 60)
    assert any(type(c) is Fraction for c in window)
    assert any(c < 0 and type(c) is int for c in window)
    assert any(c < 0 and type(c) is Fraction for c in window)
    assert 0 in window
    assert cli._window_json(window) == json.dumps([[k, str(c)] for k, c in enumerate(window)])
    assert cli._window_json([]) == json.dumps([])


def test_window_lines_skip_zeros():
    assert cli._window_lines([1, 0, -2, Fraction(1, 3)]) == ["    t^0: 1", "    t^2: -2", "    t^3: 1/3"]


def test_window_at_the_cap_holds_no_container_per_coefficient(capsys):
    # tracemalloc's peak here, the captured 3 MB output included, was about
    # 41 MB while each coefficient became its own [k, str(c)] list for
    # json.dumps, and is about 18 MB with the window one formatted string.
    tracemalloc.start()
    try:
        code = main(["hilbert", "taf_d6", "--max-degree", str(cli.MAX_WINDOW_DEGREE), "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert code == 0 and len(out) == 3055992
    assert peak < 26_000_000
