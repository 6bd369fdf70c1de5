"""Presentations, their series, and the two Gorenstein shift computations."""

import warnings

import pytest
from hypothesis import given, settings, strategies as st

from gorenstein_kit.dataset import RING_FIXTURES, load_ring_fixture
from gorenstein_kit.graded_ring import (
    GradedModuleSeries,
    NotGorensteinSeries,
    RegularSequenceWarning,
    RingPresentation,
    brute_force_hilbert,
    gorenstein_shift_formula,
    gorenstein_shift_stanley,
    hilbert_series,
    krull_dimension,
)
from gorenstein_kit import series as series_module
from gorenstein_kit.series import HilbertSeries, prod_one_minus


@st.composite
def presentations(draw):
    n = draw(st.integers(1, 5))
    gen_degrees = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n))
    n_rel = draw(st.integers(0, min(2, n)))
    top = max(gen_degrees)
    rel_degrees = draw(
        st.lists(st.integers(top + 1, top + 60), min_size=n_rel, max_size=n_rel)
    )
    return RingPresentation(
        name="random",
        coefficient_label="Q",
        generators=tuple((f"g{i}", d) for i, d in enumerate(gen_degrees)),
        relations=tuple((f"r{i}", d) for i, d in enumerate(rel_degrees)),
        regular_sequence_asserted=False,
    )


# -- validation -----------------------------------------------------------------


def test_presentation_requires_a_generator():
    with pytest.raises(ValueError):
        RingPresentation("bad", "", ())


def test_presentation_rejects_excess_relations():
    with pytest.raises(ValueError):
        RingPresentation("bad", "", (("x", 2),), (("f", 4), ("g", 6)))


def test_presentation_rejects_degree_one_relation():
    with pytest.raises(ValueError):
        RingPresentation("bad", "", (("x", 2),), (("f", 1),))


def test_presentation_rejects_duplicate_symbols():
    with pytest.raises(ValueError):
        RingPresentation("bad", "", (("x", 2), ("x", 4)))
    with pytest.raises(ValueError):
        RingPresentation("bad", "", (("x", 2),), (("x", 4),))


# -- hilbert series -----------------------------------------------------------------


def test_series_of_two_degree_four_generators(tmf2):
    assert hilbert_series(tmf2) == HilbertSeries(1, [4, 4])


def test_series_of_hypersurface(taf_d6):
    expected = HilbertSeries(prod_one_minus([48]), [8, 12, 24])
    assert hilbert_series(taf_d6) == expected


def test_series_of_one_generator(ku):
    assert hilbert_series(ku) == HilbertSeries(1, [2])


def test_regularity_warning_on_bogus_assertion():
    bogus = RingPresentation("bogus", "", (("x", 2),), (("f", 3),))
    with pytest.warns(RegularSequenceWarning, match="negative coefficient -1 at degree 3"):
        hilbert_series(bogus)


def test_no_warning_for_genuine_fixture(taf_d6):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hilbert_series(taf_d6)


# -- dimensions and shifts ------------------------------------------------------------


def test_krull_dimension_examples(tmf2, taf_d6):
    assert krull_dimension(tmf2) == 2
    assert krull_dimension(taf_d6) == 2
    point = RingPresentation("pt", "", (("x", 2),), (("f", 4),))
    assert krull_dimension(point) == 0


def test_shift_formula_examples(taf_d6):
    assert gorenstein_shift_formula(taf_d6) == 2
    beta = RingPresentation("beta", "", (("x", 8), ("y", 12)))
    assert gorenstein_shift_formula(beta) == -22
    alphabeta = RingPresentation(
        "alphabeta", "", (("X", 16), ("Y", 24), ("T", 44)), (("g", 88),)
    )
    assert gorenstein_shift_formula(alphabeta) == 2


def test_shift_from_series_examples(ku, tmf2, taf_d6):
    assert gorenstein_shift_stanley(hilbert_series(ku), 1) == -3
    assert gorenstein_shift_stanley(hilbert_series(tmf2), 2) == -10
    assert gorenstein_shift_stanley(hilbert_series(taf_d6), 2) == 2


@pytest.mark.parametrize("name", RING_FIXTURES)
def test_shift_from_series_multiplies_by_no_denominator_factor(name, monkeypatch):
    # t -> 1/t keeps the denominator multiset, so the functional equation
    # compares the two numerators as they stand.
    ring = load_ring_fixture(name)
    series = hilbert_series(ring)
    factor_lists = []
    lift = series_module._lift

    def recording(terms, degrees, scale=1):
        degrees = list(degrees)
        factor_lists.append(degrees)
        return lift(terms, degrees, scale)

    monkeypatch.setattr(series_module, "_lift", recording)
    gorenstein_shift_stanley(series, krull_dimension(ring))
    assert factor_lists and not any(factor_lists)


def test_shift_from_series_rejects_wrong_sign():
    series = HilbertSeries(1, [2])
    with pytest.raises(NotGorensteinSeries):
        gorenstein_shift_stanley(series, 2)  # true dimension is 1


def test_shift_from_series_rejects_non_gorenstein():
    series = HilbertSeries(1, [1]) + 1
    with pytest.raises(NotGorensteinSeries):
        gorenstein_shift_stanley(series, 1)


def test_shift_from_series_rejects_zero():
    with pytest.raises(NotGorensteinSeries):
        gorenstein_shift_stanley(HilbertSeries(0), 1)


@given(presentations())
def test_shift_routes_agree(p):
    a = gorenstein_shift_formula(p)
    assert gorenstein_shift_stanley(hilbert_series(p), krull_dimension(p)) == a


# -- brute-force oracle -----------------------------------------------------------------


def test_brute_force_two_degree_four_generators(tmf2):
    assert brute_force_hilbert(tmf2, 16) == [
        1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5,
    ]


def test_brute_force_single_generator(ku):
    assert brute_force_hilbert(ku, 4) == [1, 0, 1, 0, 1]


def test_brute_force_refuses_a_window_below_degree_zero(ku):
    with pytest.raises(ValueError, match="window must end at a nonnegative degree"):
        brute_force_hilbert(ku, -1)


def test_brute_force_matches_expansion_on_hypersurface(taf_d6):
    series = hilbert_series(taf_d6)
    assert brute_force_hilbert(taf_d6, 48) == series.expand(0, 48)


@given(presentations())
@settings(max_examples=60)
def test_brute_force_matches_expansion(p):
    n = 80
    assert brute_force_hilbert(p, n) == hilbert_series(p).expand(0, n)


# -- graded module series ------------------------------------------------------------------


def test_point_module_is_self_dual():
    point = GradedModuleSeries(HilbertSeries(1), label="K")
    assert point.dual().expand(-3, 3) == point.expand(-3, 3)


def test_dual_of_polynomial_series_lives_downstairs(ku):
    dual = GradedModuleSeries(hilbert_series(ku), label="r_*").dual()
    window = dual.expand(-8, 2)
    assert window == [1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0]


def test_dual_reverses_degrees(taf_d6):
    m = GradedModuleSeries(hilbert_series(taf_d6), shift=5, dualized=False)
    d = m.dual()
    for k in range(-60, 60, 7):
        assert d.coefficient(k) == m.coefficient(-k)


module_series = st.builds(
    GradedModuleSeries,
    st.sampled_from(
        [
            HilbertSeries(1, [2]),
            HilbertSeries(1, [4, 4]),
            HilbertSeries(prod_one_minus([48]), [8, 12, 24]),
            HilbertSeries(1),
        ]
    ),
    st.integers(-12, 12),
    st.booleans(),
)


@given(module_series)
def test_dual_is_an_involution(m):
    assert m.dual().dual() == m


@given(module_series, st.integers(-6, 6), st.integers(0, 10))
def test_effective_series_matches_directed_expansion_on_rational_level(m, lo, width):
    # The effective series is the same rational function, so multiplying out
    # the claimed window identity must hold: compare via the dual direction.
    hi = lo + width
    assert m.dual().expand(lo, hi) == m.expand(-hi, -lo)[::-1]


def test_effective_coefficients_are_nonnegative_integers(taf_d6):
    m = GradedModuleSeries(hilbert_series(taf_d6), shift=3, dualized=True)
    for c in m.expand(-100, 100):
        assert c.denominator == 1 and c >= 0
