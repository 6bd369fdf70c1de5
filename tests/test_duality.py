"""Local cohomology bookkeeping, torsion/localized series, duality reports."""

import pytest
from hypothesis import given, strategies as st

import gorenstein_kit.duality as duality_mod
from gorenstein_kit.dataset import load_group_fixture
from gorenstein_kit.duality import (
    DualityReport,
    ShiftMismatch,
    Splitting,
    TorsionNotVanishing,
    ZeroDimensional,
    duality_report,
    local_cohomology_series,
    ring_duality_report,
)
from gorenstein_kit.graded_ring import (
    GradedModuleSeries,
    NotGorensteinSeries,
    RingPresentation,
    gorenstein_shift_formula,
    hilbert_series,
    krull_dimension,
)
from gorenstein_kit.invariants import molien_series
from gorenstein_kit.series import HilbertSeries, LaurentPolynomial, prod_one_minus


def _local_cohomology(p):
    """(cohomological degree, module) of a presented ring, series-first."""
    dim = krull_dimension(p)
    return dim, local_cohomology_series(hilbert_series(p), dim, p.name)


def _report(p):
    """The series-first report of a presented ring, without the shift cross-check."""
    return duality_report(hilbert_series(p), krull_dimension(p), p.name)


def _cech(p):
    """The localized ring's two summands and their splitting tag."""
    report = _report(p)
    return report.cech_ring_part, report.cech_dual_part, report.splitting


def test_local_cohomology_of_hypersurface(taf_d6):
    degree, module = _local_cohomology(taf_d6)
    assert degree == 2
    assert module.shift == 4 and module.dualized
    assert module.series == hilbert_series(taf_d6)


def test_local_cohomology_of_one_generator(ku):
    degree, module = _local_cohomology(ku)
    assert degree == 1
    # support {-2, -4, -6, ...} with rank one everywhere
    window = module.expand(-8, 0)
    assert window == [1, 0, 1, 0, 1, 0, 1, 0, 0]


def test_local_cohomology_of_two_generators(tmf2):
    degree, module = _local_cohomology(tmf2)
    assert degree == 2
    assert module.shift == -8
    # ranks 1, 2, 3, ... at degrees -8, -12, -16, ...
    assert module.coefficient(-8) == 1
    assert module.coefficient(-12) == 2
    assert module.coefficient(-16) == 3
    assert all(c == 0 for c in module.expand(-7, 10))


def test_local_cohomology_requires_positive_dimension():
    point = RingPresentation("pt", "", (("x", 2),), (("f", 4),))
    with pytest.raises(ZeroDimensional, match="pt: Krull dimension 0"):
        _local_cohomology(point)
    with pytest.raises(ZeroDimensional, match="pt: Krull dimension 0"):
        _report(point)


def test_local_cohomology_requires_regularity_assertion(taf_d6):
    shaky = taf_d6._replace(regular_sequence_asserted=False)
    with pytest.raises(ValueError, match="asserted as a regular sequence"):
        ring_duality_report(shaky)


def test_gamma_homotopy_of_hypersurface(taf_d6):
    gamma = _report(taf_d6).gamma_series
    assert gamma.shift == 2 and gamma.dualized
    assert gamma.series == hilbert_series(taf_d6)


def test_gamma_homotopy_of_one_generator(ku):
    gamma = _report(ku).gamma_series
    assert gamma.expand(-9, 0) == [1, 0, 1, 0, 1, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_gamma_support_for_single_generator(d):
    p = RingPresentation(f"poly{d}", "", (("x", d),))
    gamma = _report(p).gamma_series
    expected_support = {-d * k - 1 for k in range(1, 30)}
    for degree in range(-25, 26):
        c = gamma.coefficient(degree)
        assert c == (1 if degree in expected_support else 0)


def test_gamma_desuspends_local_cohomology(all_ring_fixtures):
    for p in all_ring_fixtures.values():
        degree, module = _local_cohomology(p)
        gamma = _report(p).gamma_series
        assert module.shift - degree == gamma.shift
        assert module.series == gamma.series and module.dualized == gamma.dualized


def test_gamma_vanishes_above_the_shift(all_ring_fixtures):
    for p in all_ring_fixtures.values():
        a = gorenstein_shift_formula(p)
        gamma = _report(p).gamma_series
        assert all(c == 0 for c in gamma.expand(a + 1, a + 200))


# -- localized ring -------------------------------------------------------------


def test_cech_splitting_of_hypersurface(taf_d6):
    ring_part, dual_part, splitting = _cech(taf_d6)
    assert splitting is Splitting.PARITY_DISJOINT
    assert ring_part.shift == 0 and not ring_part.dualized
    assert dual_part.shift == 3 and dual_part.dualized
    assert dual_part.series == hilbert_series(taf_d6)


def test_cech_splitting_of_polynomial_ring(tmf2):
    ring_part, dual_part, splitting = _cech(tmf2)
    assert splitting is Splitting.VANISHING_RANGE
    assert dual_part.shift == -9


def test_cech_not_split_with_odd_generators():
    # no degree-10 element exists on two degree-3 generators, so don't
    # assert regularity; the parity failure is the point here
    p = RingPresentation(
        "odd", "", (("x", 3), ("y", 3)), (("f", 10),), regular_sequence_asserted=False
    )
    _, _, splitting = _cech(p)
    assert splitting is Splitting.NOT_SPLIT


def test_cech_not_split_with_even_shift_but_odd_generators():
    p = RingPresentation("odd2", "", (("x", 3), ("y", 3), ("z", 2)), (("f", 10),))
    assert gorenstein_shift_formula(p) == 0
    _, _, splitting = _cech(p)
    assert splitting is Splitting.NOT_SPLIT


def test_cech_summands_are_nonnegative_and_parity_disjoint(taf_d6):
    ring_part, dual_part, splitting = _cech(taf_d6)
    assert splitting is Splitting.PARITY_DISJOINT
    ring_window = ring_part.expand(-100, 100)
    dual_window = dual_part.expand(-100, 100)
    for r, d in zip(ring_window, dual_window):
        assert r >= 0 and d >= 0
        assert r == 0 or d == 0


# -- duals of free module series ---------------------------------------------------


def test_point_module_is_anderson_self_dual():
    from gorenstein_kit.series import HilbertSeries

    point = GradedModuleSeries(HilbertSeries(1))
    assert point.dual().expand(-2, 2) == point.expand(-2, 2)


def test_anderson_dual_of_ring_series(taf_d6):
    m = GradedModuleSeries(hilbert_series(taf_d6), label="r_*")
    dual = m.dual()
    for k in range(-80, 80, 11):
        assert dual.coefficient(k) == m.coefficient(-k)


def test_anderson_dual_antichanges_suspension(tmf2):
    m = GradedModuleSeries(hilbert_series(tmf2), shift=5)
    assert m.dual().shift == -5


def test_anderson_dual_is_an_involution(tmf2):
    m = GradedModuleSeries(hilbert_series(tmf2), shift=7, dualized=False)
    assert m.dual().dual() == m


# -- assembled reports ----------------------------------------------------------------


def test_report_for_one_generator(ku):
    report = ring_duality_report(ku)
    assert report.shift_a == -3
    assert report.anderson_shift == 2
    assert report.anderson_selfdual_display == -2
    assert report.splitting is Splitting.VANISHING_RANGE
    assert report.recovery_hypotheses_hold
    first, second = report.display_strings()
    assert "shift -2" in first and "Sigma^2" in second


def test_report_for_two_generators(tmf2):
    report = ring_duality_report(tmf2)
    assert report.shift_a == -10
    assert report.anderson_selfdual_display == -9
    assert report.recovery_hypotheses_hold


def test_report_for_hypersurface(taf_d6):
    report = ring_duality_report(taf_d6)
    assert report.shift_a == 2
    assert report.anderson_selfdual_display == 3
    assert not report.recovery_hypotheses_hold
    assert report.splitting is Splitting.PARITY_DISJOINT


def test_report_internal_invariants(all_ring_fixtures):
    for p in all_ring_fixtures.values():
        report = ring_duality_report(p)
        assert report.anderson_shift == -report.shift_a - 1
        # the dual summand is the (a+1)-suspension of the dual of the ring part
        expected = report.cech_ring_part.dual().suspended(report.shift_a + 1)
        assert report.cech_dual_part == expected
        assert all(c == 0 for c in report.gamma_series.expand(report.shift_a + 1, report.shift_a + 120))


def test_report_series_have_nonnegative_integer_coefficients(all_ring_fixtures):
    for p in all_ring_fixtures.values():
        report = ring_duality_report(p)
        for module in (report.gamma_series, report.cech_ring_part, report.cech_dual_part):
            for c in module.expand(-120, 120):
                assert c.denominator == 1 and c >= 0, (p.name, module.label)


def test_report_refuses_torsion_above_the_shift():
    # t^-k/(1 - t^d) has shift a = -2k - d - 1, and its torsion homotopy is
    # the series' t^-k in degree a + k: 5 above the shift for k = 5, and
    # 500 above it for k = 500, which a fixed window past the shift misses.
    for k, d, degree, shift in ((5, 10, -16, -21), (500, 1000, -1501, -2001)):
        series = HilbertSeries(LaurentPolynomial({-k: 1}), [d])
        with pytest.raises(
            TorsionNotVanishing,
            match=f"x: torsion homotopy is 1 in degree {degree}, above the shift {shift}",
        ):
            duality_report(series, 1, "x")


@given(
    st.integers(0, 2000),
    st.lists(st.integers(1, 2000), min_size=1, max_size=3),
)
def test_torsion_check_names_the_first_nonzero_degree_above_the_shift(k, degrees):
    # Oracle: the coefficient of t^-j in t^-k/prod(1 - t^d) counts the ways
    # of writing k - j as a sum of multiples of the d, listed for every
    # negative degree -k .. -1.  Torsion in degree a + j is that coefficient.
    ways = [1] + [0] * k
    for d in degrees:
        for m in range(d, k + 1):
            ways[m] += ways[m - d]
    shift = -2 * k - sum(degrees) - len(degrees)
    series = HilbertSeries(LaurentPolynomial({-k: 1}), degrees)
    first = next(((j, ways[k - j]) for j in range(1, k + 1) if ways[k - j]), None)
    if first is None:
        assert duality_report(series, len(degrees), "x").shift_a == shift
        return
    j, value = first
    with pytest.raises(TorsionNotVanishing) as raised:
        duality_report(series, len(degrees), "x")
    assert str(raised.value) == (
        f"x: torsion homotopy is {value} in degree {shift + j}, above the shift {shift}"
    )


def test_report_builds_series_and_shift_once(taf_d6, monkeypatch):
    calls = {"hilbert_series": 0, "gorenstein_shift_formula": 0, "gorenstein_shift_stanley": 0}
    for name in calls:
        original = getattr(duality_mod, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(duality_mod, name, counted)
    ring_duality_report(taf_d6)
    assert calls == {"hilbert_series": 1, "gorenstein_shift_formula": 1, "gorenstein_shift_stanley": 1}


# -- series first --------------------------------------------------------------------


@pytest.mark.parametrize("g", ["alpha", "beta", "alphabeta"])
def test_atkin_lehner_series_alone_gives_the_fixture_report(all_ring_fixtures, g):
    # (1 - t^48) times the Molien series of the group on taf_d6 is the
    # fixed ring's series, reached without any presentation of that ring.
    group = load_group_fixture(f"taf_d6_{g}").build()
    series = HilbertSeries(prod_one_minus([48]), ()) * molien_series(group).series
    from_series = duality_report(series, 2, f"taf_d6^{g}")
    from_ring = ring_duality_report(all_ring_fixtures[f"taf_d6_al_{g}"])
    for name in DualityReport._fields:
        left, right = getattr(from_series, name), getattr(from_ring, name)
        assert left == right, name
        if isinstance(left, GradedModuleSeries):
            assert left.label == right.label, name
    assert from_series.display_strings() == from_ring.display_strings()


@st.composite
def small_presentations(draw):
    n = draw(st.integers(1, 3))
    gen_degrees = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    rel_degrees = draw(st.lists(st.integers(2, 24), max_size=n - 1))
    return RingPresentation(
        name="random",
        coefficient_label="Q",
        generators=tuple((f"g{i}", d) for i, d in enumerate(gen_degrees)),
        relations=tuple((f"r{i}", d) for i, d in enumerate(rel_degrees)),
        regular_sequence_asserted=False,
    )


@given(small_presentations())
def test_series_first_shift_matches_the_degree_formula(p):
    assert _report(p).shift_a == gorenstein_shift_formula(p)


def test_non_gorenstein_series_is_refused_with_its_first_difference():
    # h-vector (1, 2) over (1 - t)^2 is not symmetric: over the common
    # denominator the two sides of the functional equation first differ at t^1
    series = HilbertSeries(LaurentPolynomial({0: 1, 1: 2}), (1, 1))
    with pytest.raises(NotGorensteinSeries, match=r"t\^1 has coefficient"):
        duality_report(series, 2, "lopsided")
    with pytest.raises(NotGorensteinSeries, match=r"t\^1 has coefficient"):
        local_cohomology_series(series, 2, "lopsided")


def test_dimension_zero_series_is_refused():
    with pytest.raises(ZeroDimensional, match="point: Krull dimension 0"):
        duality_report(HilbertSeries(1), 0, "point")


def test_ring_report_refuses_disagreeing_shift_routes(taf_d6, monkeypatch):
    monkeypatch.setattr(duality_mod, "gorenstein_shift_formula", lambda p: gorenstein_shift_formula(p) + 1)
    with pytest.raises(
        ShiftMismatch,
        match="taf_d6: gorenstein shift 3 by the degree formula, 2 by the functional equation",
    ):
        ring_duality_report(taf_d6)
