"""Exact rational-function arithmetic: examples and algebraic laws."""

import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from conftest import in_exact_form, shifted
from hypothesis import example, given, settings, strategies as st

from gorenstein_kit.graded_ring import RingPresentation, polynomial_presentation
from gorenstein_kit.invariants import generate_group
from gorenstein_kit.linalg import exact
from gorenstein_kit.series import (
    HilbertSeries,
    LaurentPolynomial,
    NotMonomialRatio,
    _add,
    _lcm,
    _over_one_minus,
    _reduce,
    prod_one_minus,
    ratio_as_signed_monomial,
)


def HS(numerator, degrees=()):
    return HilbertSeries(numerator, degrees)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)

laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=12), small_fractions, max_size=5
).map(LaurentPolynomial)

denominators = st.lists(st.integers(min_value=1, max_value=9), max_size=3)

series_values = st.builds(HilbertSeries, laurent_polys, denominators)

nonzero_series = series_values.filter(lambda s: not s.is_zero)


# -- Laurent polynomials -------------------------------------------------------


def test_laurent_drops_zero_coefficients():
    p = LaurentPolynomial({0: 1, 3: 0, -2: Fraction(0)})
    assert p.terms() == ((0, Fraction(1)),)


def test_laurent_division_exact_and_inexact():
    p = prod_one_minus([48])
    q = p.divide_exact(prod_one_minus([8]))
    assert q is not None
    assert q * prod_one_minus([8]) == p
    assert LaurentPolynomial({0: 1, 24: 1}).divide_exact(prod_one_minus([8])) is None


def test_laurent_division_handles_negative_exponents():
    p = LaurentPolynomial({-4: 1, 44: -1})  # t^-4 (1 - t^48)
    q = p.divide_exact(prod_one_minus([12]))
    assert q is not None
    assert q * prod_one_minus([12]) == p


# -- expansion ------------------------------------------------------------------


def test_expand_two_factor_string():
    series = HilbertSeries(1, [8, 12])
    got = [int(c) for c in series.expand(0, 68)][::4]
    assert got == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3, 3, 3]


def test_expand_constant():
    assert HS(1).expand(0, 3) == [1, 0, 0, 0]


def test_expand_geometric_in_t_squared():
    assert HilbertSeries(1, [2]).expand(0, 6) == [1, 0, 1, 0, 1, 0, 1]


def test_expand_empty_window_rejected():
    with pytest.raises(ValueError):
        HS(1).expand(3, 2)


def test_expand_window_below_support_is_zero():
    assert HilbertSeries(1, [2]).expand(-5, -1) == [0] * 5


@given(series_values, series_values, st.integers(-10, 10), st.integers(0, 20))
def test_expand_is_additive(a, b, lo, width):
    hi = lo + width
    left = (a + b).expand(lo, hi)
    right = [x + y for x, y in zip(a.expand(lo, hi), b.expand(lo, hi))]
    assert left == right


@given(series_values, series_values, st.integers(0, 24))
def test_expand_of_product_matches_convolution(a, b, width):
    if a.is_zero or b.is_zero:
        assert (a * b).is_zero
        return
    a_lo = a.numerator.min_exponent
    b_lo = b.numerator.min_exponent
    lo = a_lo + b_lo
    hi = lo + width
    a_coeffs = a.expand(a_lo, hi - b_lo)
    b_coeffs = b.expand(b_lo, hi - a_lo)
    expected = [Fraction(0)] * (hi - lo + 1)
    for i, ca in enumerate(a_coeffs):
        for j, cb in enumerate(b_coeffs):
            k = a_lo + i + b_lo + j
            if lo <= k <= hi:
                expected[k - lo] += ca * cb
    assert (a * b).expand(lo, hi) == expected


def brute_count(degrees, k):
    """Multisets from `degrees` with weighted size k, by direct enumeration."""
    ranges = [range(k // d + 1) for d in degrees]
    return sum(
        1
        for combo in product(*ranges)
        if sum(d * x for d, x in zip(degrees, combo)) == k
    )


@given(st.lists(st.integers(1, 7), min_size=1, max_size=3), st.integers(0, 25))
def test_inverse_product_counts_multisets(degrees, n):
    series = HilbertSeries(1, degrees)
    got = series.expand(0, n)
    assert got == [brute_count(degrees, k) for k in range(n + 1)]


@given(laurent_polys, st.lists(st.integers(1, 7), max_size=3), st.integers(-15, 15), st.integers(0, 12))
@example(LaurentPolynomial({-3: Fraction(1, 6), 2: Fraction(-5, 4)}), [2, 3], -9, 4)  # below
@example(LaurentPolynomial({-3: Fraction(1, 6), 2: Fraction(-5, 4)}), [2, 3], -4, 10)  # straddling
@example(LaurentPolynomial({-3: Fraction(1, 6), 2: Fraction(-5, 4)}), [2, 3], 5, 8)  # above
def test_expand_matches_multiset_convolution(numerator, degrees, offset, width):
    """expand against the numerator convolved with multiset counts, degree by degree.

    The window starts `offset` degrees from the least numerator exponent, so
    it lies below the support, straddles its start, or lies inside it.
    """
    base = 0 if numerator.is_zero else numerator.min_exponent
    lo = base + offset
    hi = lo + width
    counts = [brute_count(degrees, k) for k in range(max(hi - base, 0) + 1)]
    expected = [
        sum((c * counts[n - e] for e, c in numerator.terms() if e <= n), Fraction(0))
        for n in range(lo, hi + 1)
    ]
    got = HilbertSeries(numerator, degrees).expand(lo, hi)
    assert got == expected
    assert all(map(in_exact_form, got))


@st.composite
def lattice_series(draw):
    """(numerator, degrees) on a lattice of step g from 1..6: exponents
    base + g*k with int and Fraction coefficients, and denominator degrees
    that are multiples of g, the last possibly wider than any window drawn
    with it.  The numerator's steps may be finer than the degrees' gcd."""
    g = draw(st.integers(1, 6))
    base = draw(st.integers(-10, 10))
    scalars = st.one_of(st.integers(-5, 5), small_fractions).filter(bool)
    terms = draw(st.dictionaries(st.integers(0, 5), scalars, min_size=1, max_size=4))
    multiples = draw(st.lists(st.integers(1, 4), max_size=2)) + draw(st.lists(st.integers(26, 40), max_size=1))
    return LaurentPolynomial({base + g * k: c for k, c in terms.items()}), [g * m for m in multiples]


@given(lattice_series(), st.sampled_from(["below", "straddling", "inside", "above"]), st.integers(0, 8),
       st.integers(0, 24))
@example((LaurentPolynomial({0: 1, 1: Fraction(1, 2)}), [2]), "inside", 0, 6)  # odd class reached by the numerator
@example((LaurentPolynomial({-3: 2, 3: -1}), [6, 12, 30]), "straddling", 4, 20)  # g = 6, one degree wider
def test_expand_on_a_lattice_matches_multiset_convolution(series, where, gap, width):
    """expand of a series whose support is base + g*N, against the numerator
    convolved with multiset counts, for windows below, across, inside and
    above the numerator's support: no reachable residue class is skipped."""
    numerator, degrees = series
    least, greatest = numerator.terms()[0][0], numerator.terms()[-1][0]
    lo = {
        "below": least - gap - width - 1,  # hi < least
        "straddling": least - gap,
        "inside": least + gap,
        "above": greatest + gap + 1,  # lo > greatest
    }[where]
    hi = lo + width
    counts = [brute_count(degrees, k) for k in range(max(hi - least, 0) + 1)]
    expected = [sum((c * counts[n - e] for e, c in numerator.terms() if e <= n), 0) for n in range(lo, hi + 1)]
    got = HilbertSeries(numerator, degrees).expand(lo, hi)
    assert got == expected
    assert all(map(in_exact_form, got))


# -- arithmetic ------------------------------------------------------------------


def test_additive_identity():
    s = HilbertSeries(1, [1])
    assert s + HilbertSeries(0) == s


def test_inverse_pair_multiplies_to_one():
    product_series = HilbertSeries(1, [2]) * HS(prod_one_minus([2]))
    assert product_series == 1


def test_additive_cancellation():
    s = HilbertSeries(1, [1])
    assert (s + (-s)).is_zero


def test_scalar_multiplication():
    s = HilbertSeries(1, [2])
    assert (s * Fraction(1, 2)).expand(0, 4) == [Fraction(1, 2), 0, Fraction(1, 2), 0, Fraction(1, 2)]


# Series whose numerator the reduction sweep divides by some of the factors.
reducible_series = st.builds(
    lambda p, extra, degrees: HilbertSeries(p.times_one_minus(extra), extra + degrees),
    laurent_polys,
    st.lists(st.integers(1, 6), max_size=3),
    denominators,
)
nonzero_scalars = st.one_of(st.integers(-6, 6), small_fractions).filter(bool)


@given(st.one_of(series_values, reducible_series), nonzero_scalars)
def test_scalar_multiples_keep_the_reduced_shape(s, c):
    # 1 - t^d divides c*N exactly when it divides N, so no sweep is needed.
    for product, scalar in ((s * c, c), (c * s, c), (-s, -1)):
        expected = HilbertSeries(s.numerator.scale(scalar), s.denominator_degrees)
        assert product.numerator.terms() == expected.numerator.terms()
        assert product.denominator_degrees == expected.denominator_degrees
        assert all(in_exact_form(x) for _, x in product.numerator.terms())
    for zero in (s * 0, 0 * s, s * Fraction(0)):
        assert zero.is_zero and zero.denominator_degrees == ()


@given(series_values, series_values)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(series_values, series_values, series_values)
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


# -- canonical form ---------------------------------------------------------------


def test_reduction_strips_exact_factors():
    series = HS(prod_one_minus([4]), [2, 2])
    # (1 - t^4)/(1 - t^2)^2 = (1 + t^2)/(1 - t^2)
    assert series.denominator_degrees == (2,)
    assert series.numerator == LaurentPolynomial({0: 1, 2: 1})


def _reduce_with_restarts(numerator, degrees):
    """Reference: the former reduction loop, restarting its scan from the
    least degree after every successful division."""
    degrees = sorted(degrees)
    reduced = True
    while reduced:
        reduced = False
        for i, d in enumerate(degrees):
            q = numerator.divide_exact(prod_one_minus([d]))
            if q is not None:
                numerator = q
                degrees.pop(i)
                reduced = True
                break
    return numerator, tuple(degrees)


@given(
    laurent_polys,
    st.lists(st.integers(1, 6), max_size=4),
    st.lists(st.integers(1, 9), max_size=5),
)
def test_reduction_sweep_matches_the_restart_loop(base, factors, degrees):
    # Planted factors make divisions, and chains of them, common.
    numerator = base * prod_one_minus(factors)
    s = HS(numerator, degrees)
    expected_numerator, expected_degrees = _reduce_with_restarts(numerator, degrees)
    assert s.numerator.terms() == expected_numerator.terms()
    assert s.denominator_degrees == expected_degrees


def _sweep_trying_every_degree(terms, degrees):
    """The reduction sweep before it skipped the multiples of a kept degree,
    kept as the reference: every degree tried while the terms vanish at 1."""
    kept, at_one = [], sum(terms.values())
    for d in degrees:
        q = None if at_one else _over_one_minus(terms, d)
        if q is None:
            kept.append(d)
        else:
            terms, at_one = q, sum(q.values())
    return terms, tuple(kept)


divisor_chain = st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 10, 12, 24]), max_size=6).map(sorted)


@given(laurent_polys, divisor_chain, divisor_chain)
@example(LaurentPolynomial.one(), [3, 5], [2, 4, 5, 8])
def test_sweep_skipping_multiples_of_kept_degrees_matches_trying_every_degree(base, planted, degrees):
    # Degrees that divide one another, planted and not, so that kept degrees have multiples.
    terms = dict((base * prod_one_minus(planted)).terms())
    swept, kept = _reduce(terms, degrees)
    expected, expected_kept = _sweep_trying_every_degree(terms, degrees)
    assert (sorted(swept.items()), kept) == (sorted(expected.items()), expected_kept)
    assert all(map(in_exact_form, swept.values()))


def test_sweep_does_not_retry_a_multiple_of_a_kept_degree(monkeypatch):
    tried = []
    monkeypatch.setattr(
        "gorenstein_kit.series._over_one_minus", lambda terms, d: tried.append(d) or _over_one_minus(terms, d)
    )
    # 1 - t^2 does not divide (1 - t^3)(1 - t^5), so neither does 1 - t^4 or 1 - t^8.
    terms = dict(prod_one_minus([3, 5]).terms())
    assert _reduce(terms, [2, 4, 5, 8]) == (dict(prod_one_minus([3]).terms()), (2, 4, 8))
    assert tried == [2, 5]


@given(series_values)
def test_canonicalization_is_idempotent(s):
    again = HilbertSeries(s.numerator, s.denominator_degrees)
    assert again.numerator == s.numerator
    assert again.denominator_degrees == s.denominator_degrees


def test_zero_numerator_clears_denominator():
    assert HS(0, [2, 3]).denominator_degrees == ()


def test_denominator_degree_validation():
    with pytest.raises(ValueError):
        HS(1, [0])


# -- substitute_inverse ------------------------------------------------------------


def test_substitute_inverse_geometric():
    s = HilbertSeries(1, [2]).substitute_inverse()
    assert s == HS(LaurentPolynomial({2: -1}), [2])


def test_substitute_inverse_fixes_constants():
    assert HS(1).substitute_inverse() == 1


def test_substitute_inverse_hypersurface():
    base = HS(prod_one_minus([48]), [8, 12, 24])
    flipped = base.substitute_inverse()
    assert ratio_as_signed_monomial(flipped, base) == (1, -4)


@given(series_values)
def test_substitute_inverse_is_an_involution(s):
    assert s.substitute_inverse().substitute_inverse() == s


@given(series_values)
def test_substitute_negative_is_an_involution(s):
    assert s.substitute_negative().substitute_negative() == s


@given(series_values, st.integers(-10, 10), st.integers(0, 15))
def test_substitute_negative_flips_odd_coefficients(s, lo, width):
    hi = lo + width
    flipped = s.substitute_negative().expand(lo, hi)
    plain = s.expand(lo, hi)
    for k, (a, b) in enumerate(zip(plain, flipped)):
        assert b == (a if (lo + k) % 2 == 0 else -a)


# -- ratio_as_signed_monomial -------------------------------------------------------


def test_ratio_example_from_inversion():
    a = HS(LaurentPolynomial({2: -1}), [2])
    b = HilbertSeries(1, [2])
    assert ratio_as_signed_monomial(a, b) == (-1, 2)


def test_ratio_of_series_with_itself():
    p = HS(prod_one_minus([48]), [8, 12, 24])
    assert ratio_as_signed_monomial(p, p) == (1, 0)


def test_ratio_rejects_non_monomial():
    a = HilbertSeries(1, [1]) + 1  # (2 - t)/(1 - t)
    b = HilbertSeries(1, [1])
    with pytest.raises(NotMonomialRatio):
        ratio_as_signed_monomial(a, b)


def test_ratio_rejects_scaled_monomial():
    b = HilbertSeries(1, [2])
    with pytest.raises(NotMonomialRatio):
        ratio_as_signed_monomial(b * 2, b)


def test_ratio_of_zero_numerator():
    with pytest.raises(NotMonomialRatio):
        ratio_as_signed_monomial(HilbertSeries(0), HS(1))
    with pytest.raises(ValueError):
        ratio_as_signed_monomial(HS(1), HilbertSeries(0))


@given(nonzero_series, st.sampled_from([1, -1]), st.integers(-20, 20))
def test_ratio_recovers_planted_sign_and_exponent(b, sign, k):
    a = shifted(b, k) * sign
    assert ratio_as_signed_monomial(a, b) == (sign, k)


# -- the common-denominator lift against the full product ---------------------------


def _full_product_lift(a, b):
    """The reference lift: each numerator times the other side's whole
    denominator, so the pair sits over the product of the two multisets."""
    return (
        a.numerator.times_one_minus(b.denominator_degrees),
        b.numerator.times_one_minus(a.denominator_degrees),
    )


def _reference_ratio(a, b):
    left, right = _full_product_lift(a, b)
    k = left.min_exponent - right.min_exponent
    s = -1 if left.coefficient(left.min_exponent) == -right.coefficient(right.min_exponent) else 1
    if left != right.shift(k).scale(s):
        raise NotMonomialRatio("not a signed monomial")
    return (s, k)


def _reference_equal(a, b):
    left, right = _full_product_lift(a, b)
    return left == right


# Small degrees drawn with repeats, so the two denominators share some
# degrees, repeat some and miss others.
lift_degrees = st.lists(st.integers(1, 4), max_size=3)
nonzero_polys = laurent_polys.filter(lambda p: not p.is_zero)


@st.composite
def series_pairs(draw):
    shared, only_a, only_b = draw(lift_degrees), draw(lift_degrees), draw(lift_degrees)
    a = HS(draw(nonzero_polys), shared + only_a)
    if draw(st.booleans()):  # b a signed monomial times a, over another denominator
        sign, k = draw(st.sampled_from([1, -1])), draw(st.integers(-6, 6))
        b = HS(a.numerator.shift(k).scale(sign).times_one_minus(only_b), shared + only_a + only_b)
    else:
        b = HS(draw(nonzero_polys), shared + only_b)
    return a, b


@given(series_pairs())
@example((HS(1, [2]), HS(1, [3])))  # disjoint
@example((HS(LaurentPolynomial({0: 1, 1: 1}), [2, 2]), HS(1, [1, 2, 2, 2])))  # repeated, monomial
@example((HS(LaurentPolynomial({0: 1, 1: 2}), [1, 1]), HS(LaurentPolynomial({0: 2, 1: 1}), [1, 1])))
def test_lift_to_the_lcm_agrees_with_the_full_product(pair):
    a, b = pair
    for x, y in (pair, pair[::-1]):
        try:
            expected = _reference_ratio(x, y)
        except NotMonomialRatio:
            with pytest.raises(NotMonomialRatio):
                ratio_as_signed_monomial(x, y)
        else:
            assert ratio_as_signed_monomial(x, y) == expected
    assert (a == b) is _reference_equal(a, b)
    left, right = _full_product_lift(a, b)
    total = a + b
    assert _reference_equal(total, HS(left + right, a.denominator_degrees + b.denominator_degrees))
    lcm = Counter(a.denominator_degrees) | Counter(b.denominator_degrees)
    assert Counter(total.denominator_degrees) <= lcm


# -- display -------------------------------------------------------------------------


def test_prod_one_minus_and_str():
    assert prod_one_minus([2]) == LaurentPolynomial({0: 1, 2: -1})
    assert str(HilbertSeries(1, [8, 12])) == "1/(1 - t^8)(1 - t^12)"
    assert str(HS(LaurentPolynomial({2: -1}), [2])) == "-t^2/(1 - t^2)"


@given(laurent_polys, laurent_polys.filter(lambda p: not p.is_zero))
def test_division_inverts_multiplication(q, d):
    assert (q * d).divide_exact(d) == q


def test_negative_fractional_constant_has_one_sign():
    assert str(LaurentPolynomial({0: Fraction(-1, 2)})) == "-(1/2)"
    assert str(LaurentPolynomial({0: Fraction(-1, 3), 2: 1})) == "-(1/3) + t^2"
    assert str(HS(LaurentPolynomial({0: Fraction(-1, 3), 2: 1}), [4])) == "(-(1/3) + t^2)/(1 - t^4)"


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        LaurentPolynomial({0: 0.5})
    with pytest.raises(TypeError):
        LaurentPolynomial.one().scale(1.5)
    with pytest.raises(TypeError):
        HilbertSeries(0.5)


def test_non_integral_shifts_are_refused():
    with pytest.raises(TypeError):
        LaurentPolynomial({0: 1}).shift(1.5)
    with pytest.raises(TypeError):
        shifted(HilbertSeries(1, [1]), 1.5)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HilbertSeries(1, [1.5]),
        lambda: LaurentPolynomial({1.5: 1}),
        lambda: RingPresentation("r", "", [("x", Fraction(9, 2))]),
        lambda: RingPresentation("r", "", [("x", 2), ("y", 2)], [("s", 4.5)]),
        lambda: polynomial_presentation("p", "", [2.5]),
        lambda: generate_group([], [(2.5, 1)]),
        lambda: generate_group([], [(2, Fraction(3, 2))]),
    ],
    ids=[
        "series-degree",
        "laurent-exponent",
        "ring-generator",
        "ring-relation",
        "polynomial-presentation",
        "group-block-degree",
        "group-block-dimension",
    ],
)
def test_non_integral_degrees_and_exponents_are_refused(build):
    # int() would truncate each of these silently, e.g. 9/2 to 4.
    with pytest.raises(TypeError):
        build()


# -- coefficient types ----------------------------------------------------------------

# Integral coefficients are ints, others Fractions; the reference arithmetic
# below runs on all-Fraction dicts and knows nothing of that split.
mixed_coeffs = st.one_of(st.integers(-6, 6), small_fractions)

mixed_dicts = st.dictionaries(st.integers(min_value=-6, max_value=12), mixed_coeffs, max_size=5)


def ref(terms):
    return {e: Fraction(c) for e, c in dict(terms).items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def checked(p):
    """The terms of p as a dict, after checking every coefficient's type."""
    assert all(in_exact_form(c) for _, c in p.terms())
    return dict(p.terms())


@given(mixed_dicts, mixed_dicts, mixed_coeffs, st.integers(-5, 5))
def test_arithmetic_keeps_integral_coefficients_as_ints(a, b, scalar, k):
    p, q = LaurentPolynomial(a), LaurentPolynomial(b)
    ra, rb = ref(a), ref(b)
    assert checked(p) == ra
    assert checked(p + q) == ref_add(ra, rb)
    assert checked(p - q) == ref_add(ra, {e: -c for e, c in rb.items()})
    assert checked(p * q) == ref_mul(ra, rb)
    assert checked(p.scale(scalar)) == ref_mul(ra, {0: Fraction(scalar)})
    assert checked(p.shift(k)) == {e + k: c for e, c in ra.items()}


@given(mixed_dicts, mixed_dicts.filter(lambda d: any(d.values())))
@example({0: 3, 1: 2}, {0: 2})  # 6/2 and 4/2: two ints that divide exactly
@example({0: Fraction(3, 2)}, {0: 2})  # 3/2: two ints that do not
def test_exact_division_keeps_integral_coefficients_as_ints(a, b):
    product_ = LaurentPolynomial(a) * LaurentPolynomial(b)
    quotient = product_.divide_exact(LaurentPolynomial(b))
    assert quotient is not None
    assert checked(quotient) == ref(a)


@given(
    mixed_dicts,
    st.lists(st.integers(1, 6), max_size=2),
    st.lists(st.integers(1, 6), max_size=1),
    st.integers(-8, 0),
    st.integers(0, 16),
)
def test_series_reduction_and_expand_keep_integral_coefficients_as_ints(a, factors, extra, offset, width):
    ra = ref(a)
    planted = ra
    for d in factors:
        planted = ref_mul(planted, {0: Fraction(1), d: Fraction(-1)})
    s = HS(LaurentPolynomial(a) * prod_one_minus(factors), factors + extra)
    # numerator / prod(1 - t^D) is unchanged as a rational function.
    left = ref(checked(s.numerator))
    for d in factors + extra:
        left = ref_mul(left, {0: Fraction(1), d: Fraction(-1)})
    right = planted
    for d in s.denominator_degrees:
        right = ref_mul(right, {0: Fraction(1), d: Fraction(-1)})
    assert left == right
    if not extra:
        assert checked(s.numerator) == ra
    # expand against the planted numerator convolved with multiset counts.
    base = min(ra) if ra else 0
    lo = base + offset
    hi = lo + width
    counts = [brute_count(factors + extra, k) for k in range(max(hi - base, 0) + 1)]
    expected = [
        sum((c * counts[n - e] for e, c in planted.items() if e <= n), Fraction(0))
        for n in range(lo, hi + 1)
    ]
    got = s.expand(lo, hi)
    assert got == expected
    assert all(map(in_exact_form, got))


def test_failed_ratio_names_its_witness():
    s = HS(LaurentPolynomial({0: 1, 1: 1, 2: 2}), [1])  # (1 + t + 2t^2)/(1 - t)
    with pytest.raises(NotMonomialRatio) as info:
        ratio_as_signed_monomial(s.substitute_inverse(), s)
    assert str(info.value) == (
        "(-2*t^-1 - 1 - t)/(1 - t^1) / (1 + t + 2*t^2)/(1 - t^1) is not a signed power of t: "
        "over the common denominator, t^-1 has coefficient -2 in the first numerator "
        "and 1 in t^-1 times the second"
    )


# -- the (1 - t^d) kernels against the generic operations ------------------------

int_or_fraction_polys = st.dictionaries(
    st.integers(min_value=-8, max_value=16),
    st.one_of(st.integers(-5, 5), small_fractions),
    max_size=6,
).map(LaurentPolynomial)


def _stretched(p, stretch):
    """p(t^stretch): every exponent is a multiple of stretch, so factors and
    gaps are wide while the term count stays small."""
    return LaurentPolynomial({e * stretch: c for e, c in p.terms()})


@given(int_or_fraction_polys, st.lists(st.integers(0, 9), max_size=4), st.integers(1, 3))
@example(LaurentPolynomial({-3: 1, 5: Fraction(1, 2)}), [0], 1)  # a zero factor
@example(LaurentPolynomial({2: Fraction(1, 2)}), [4, 4], 1000)  # one term, wide factors
def test_times_one_minus_matches_the_generic_product(p, degrees, stretch):
    p, degrees = _stretched(p, stretch), [d * stretch for d in degrees]
    expected = p
    for d in degrees:
        expected = expected * LaurentPolynomial([(0, 1), (d, -1)])
    got = p.times_one_minus(degrees)
    assert got.terms() == expected.terms()
    assert all(in_exact_form(c) for _, c in got.terms())


@given(int_or_fraction_polys, st.integers(1, 12), st.booleans(), st.integers(1, 3))
@example(LaurentPolynomial({0: 1, 8: 1}), 8, False, 1)  # (1 + t^8)/(1 - t^8): None
@example(LaurentPolynomial({0: 1, 48: -1}), 8, False, 1)  # exact, 6 terms
@example(LaurentPolynomial({-2: 1, 3: Fraction(-1, 3)}), 5, False, 1)  # sums to 2/3: None
@example(LaurentPolynomial({-2: Fraction(1, 3), 3: Fraction(-1, 3)}), 5, False, 1)
@example(LaurentPolynomial({0: 1, 3: -1}), 3, False, 1_000_000)  # 1 - t^(3*10^6), exact
def test_over_one_minus_matches_divide_exact(p, d, plant, stretch):
    # A planted factor makes the exact case common; otherwise most divisions fail.
    if plant:
        p = p * LaurentPolynomial([(0, 1), (d, -1)])
    p, d = _stretched(p, stretch), d * stretch
    expected = p.divide_exact(LaurentPolynomial([(0, 1), (d, -1)]))
    got = p.over_one_minus(d)
    if expected is None:
        assert got is None
    else:
        assert got.terms() == expected.terms()
        assert all(in_exact_form(c) for _, c in got.terms())


def test_one_minus_kernels_refuse_bad_degrees():
    p = LaurentPolynomial({0: 1, 1: 2})
    with pytest.raises(ValueError):
        p.times_one_minus([2, -1])
    with pytest.raises(ValueError):
        p.over_one_minus(0)
    with pytest.raises(TypeError):
        p.over_one_minus(1.0)
    with pytest.raises(TypeError):
        prod_one_minus([2.0])


def _expand_by_prefix_sums(series, lo, hi):
    """The expansion loop the strided sweep replaced, kept as the reference:
    coeffs[k] += coeffs[k - d] over the window, one degree d at a time."""
    width = hi - lo + 1
    if series.numerator.is_zero or hi < series.numerator.min_exponent:
        return [0] * width
    base = series.numerator.min_exponent
    coeffs = [Fraction(0)] * (hi - base + 1)
    for e, c in series.numerator.terms():
        if e <= hi:
            coeffs[e - base] = Fraction(c)
    for d in series.denominator_degrees:
        for k in range(d, len(coeffs)):
            coeffs[k] += coeffs[k - d]
    return [0] * (base - lo) + coeffs[max(lo, base) - base :]


@given(
    st.builds(HilbertSeries, int_or_fraction_polys, st.lists(st.integers(1, 15), max_size=4)),
    st.sampled_from(["below", "straddling", "above"]),
    st.integers(0, 10),
    st.integers(0, 40),
)
def test_expand_matches_the_prefix_sum_loop(series, where, gap, width):
    num = series.numerator
    least, greatest = (num.terms()[0][0], num.terms()[-1][0]) if not num.is_zero else (0, 0)
    lo = {
        "below": least - gap - width - 1,  # hi < least
        "straddling": least - gap,
        "above": greatest + gap + 1,  # lo > greatest
    }[where]
    got = series.expand(lo, lo + width)
    assert got == _expand_by_prefix_sums(series, lo, lo + width)
    assert all(map(in_exact_form, got))


@pytest.mark.parametrize("wide", [10**6, 10**9])
def test_mixed_wide_factors_cost_their_terms_not_their_span(wide):
    # 2 and a huge degree side by side: products, quotients, sums and
    # comparisons stay a few terms each, never an array over the span.
    tracemalloc.start()
    try:
        both = prod_one_minus([2, wide])
        assert both.terms() == ((0, 1), (2, -1), (wide, -1), (wide + 2, 1))
        assert both.over_one_minus(2).terms() == ((0, 1), (wide, -1))
        assert both.over_one_minus(wide).terms() == ((0, 1), (2, -1))
        assert both.over_one_minus(3) is None
        assert both.over_one_minus(wide - 1) is None
        series = HilbertSeries(1, [2, wide])
        assert HilbertSeries(both, [2, wide, wide]) == HilbertSeries(1, [wide])
        half = Fraction(1, 2)
        other = HilbertSeries(LaurentPolynomial({0: 1, 2: 1}), [4, wide])  # (1 + t^2)/(1 - t^4)
        assert series * half + other * half == series
        odd = HilbertSeries(1, [2, wide + 1]).substitute_negative()
        assert odd.numerator.terms() == ((0, 1), (wide + 1, -1))
        assert odd.denominator_degrees == (2, 2 * wide + 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_divide_exact_reads_each_least_exponent_once(monkeypatch):
    # The anchoring shift is taken once per operand, not once per term.
    calls = []
    least = LaurentPolynomial.min_exponent
    monkeypatch.setattr(
        LaurentPolynomial, "min_exponent", property(lambda p: calls.append(p) or least.fget(p))
    )
    many = LaurentPolynomial({k: k + 1 for k in range(-3, 500)})
    assert many.times_one_minus([2]).divide_exact(prod_one_minus([2])) == many
    assert len(calls) == 2


# -- the term-dict kernel against the route it replaced ---------------------------


def _old_times_one_minus(terms, degrees):
    """LaurentPolynomial.times_one_minus before the kernel, kept as the
    reference: one shift and subtract per factor, each put in exact form."""
    for d in degrees:
        acc = dict(terms)
        for e, c in terms.items():
            acc[e + d] = acc.get(e + d, 0) - c
        terms = {e: exact(c) for e, c in acc.items() if c}
    return terms


def _old_over_one_minus(terms, d):
    """LaurentPolynomial.over_one_minus before the kernel, kept as the reference."""
    totals = {}
    for e, c in terms.items():
        totals[e % d] = totals.get(e % d, 0) + c
    if any(totals.values()):
        return None
    last, quo = {}, {}
    for e in sorted(terms):
        r = e % d
        if r not in last:
            last[r] = (e, terms[e])
            continue
        k, s = last[r]
        if s:
            quo.update(dict.fromkeys(range(k, e, d), s))
        last[r] = (e, s + terms[e])
    return {e: exact(c) for e, c in quo.items() if c}


def _old_sweep(terms, degrees):
    """HilbertSeries' reduction pass before the kernel, kept as the reference."""
    if not terms:
        return terms, ()
    at_one, kept = sum(terms.values()), []
    for d in sorted(degrees):
        q = None if at_one else _old_over_one_minus(terms, d)
        if q is None:
            kept.append(d)
        else:
            terms, at_one = q, sum(q.values())
    return terms, tuple(kept)


def _old_add(a, a_degrees, b, b_degrees, scale):
    """a + scale*b as HilbertSeries added them before the kernel: b scaled
    first, both lifted to the Counter lcm one factor at a time, summed and swept."""
    b = {e: exact(c * scale) for e, c in b.items()}
    mine, theirs = Counter(a_degrees), Counter(b_degrees)
    common = mine | theirs
    total = dict(_old_times_one_minus(a, (common - mine).elements()))
    for e, c in _old_times_one_minus(b, (common - theirs).elements()).items():
        total[e] = total.get(e, 0) + c
    return _old_sweep({e: exact(c) for e, c in total.items() if c}, common.elements())


denominator_tuples = st.lists(st.sampled_from([1, 2, 3, 4, 6, 10**9, 2 * 10**9]), max_size=6).map(
    lambda ds: tuple(sorted(ds))
)


@given(denominator_tuples, denominator_tuples)
@example((2, 2, 10**9), (2, 10**9, 10**9))
def test_merged_lcm_equals_the_counter_lcm(a, b):
    mine, theirs = Counter(a), Counter(b)
    common = mine | theirs
    assert _lcm(a, b) == (
        sorted(common.elements()), sorted((common - mine).elements()), sorted((common - theirs).elements())
    )


@st.composite
def lattice_series(draw, stride, offset):
    """A sparse (terms, degrees) pair: exponents offset + stride*m + j with
    small m and j in 0..2, some denominator factors planted in the terms,
    degrees stride times 1..6.  Every quotient the sweep can take stays a
    few terms, however wide the stride and offset."""
    raw = draw(st.lists(st.tuples(st.integers(-4, 6), st.integers(0, 2), mixed_coeffs), max_size=5))
    planted = [stride * d for d in draw(st.lists(st.integers(1, 6), max_size=3))]
    extra = [stride * d for d in draw(st.lists(st.integers(1, 6), max_size=3))]
    terms = LaurentPolynomial([(offset + stride * m + j, c) for m, j, c in raw]).terms()
    return _old_times_one_minus(dict(terms), planted), tuple(sorted(planted + extra))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 7, 10**9 - 7, 10**9]), st.integers(-(10**9), 10**9), mixed_coeffs)
def test_kernel_lift_add_and_sweep_equal_the_old_route(data, stride, offset, scale):
    (a, a_degrees), (b, b_degrees) = (data.draw(lattice_series(stride, offset)) for _ in range(2))
    lifted = LaurentPolynomial._of(a).times_one_minus(b_degrees)
    assert dict(lifted.terms()) == _old_times_one_minus(a, b_degrees)
    swept, kept = _reduce(a, a_degrees)
    old_swept, old_kept = _old_sweep(a, a_degrees)
    assert (sorted(swept.items()), kept) == (sorted(old_swept.items()), old_kept)
    if scale:
        total, degrees = _add(a, a_degrees, b, b_degrees, scale)
        old_total, old_degrees = _old_add(a, a_degrees, b, b_degrees, scale)
        assert (sorted(total.items()), degrees) == (sorted(old_total.items()), old_degrees)
        assert all(map(in_exact_form, total.values()))
        series = HilbertSeries._of(a, a_degrees) + HilbertSeries._of(b, b_degrees) * scale
        assert (dict(series.numerator.terms()), series.denominator_degrees) == (old_total, old_degrees)


# -- comparisons and t -> 1/t on the kernel alone ----------------------------------


def _old_lift(a, b):
    """Both numerators over the lcm of the denominators, lifted through
    LaurentPolynomial.times_one_minus as equality and the ratio lifted them
    before they ran on the kernel; kept as the reference."""
    mine, theirs = Counter(a.denominator_degrees), Counter(b.denominator_degrees)
    common = mine | theirs
    return (a.numerator.times_one_minus((common - mine).elements()),
            b.numerator.times_one_minus((common - theirs).elements()))


def _old_ratio(a, b):
    """ratio_as_signed_monomial on the reference lift, witness message included."""
    left, right = _old_lift(a, b)
    k = left.min_exponent - right.min_exponent
    s = -1 if left.coefficient(left.min_exponent) == -right.coefficient(right.min_exponent) else 1
    aligned = right.shift(k).scale(s)
    if left != aligned:
        e = min(x for x, _ in left.terms() + aligned.terms() if left.coefficient(x) != aligned.coefficient(x))
        raise NotMonomialRatio(
            f"{a} / {b} is not a signed power of t: over the common denominator, "
            f"t^{e} has coefficient {left.coefficient(e)} in the first numerator "
            f"and {aligned.coefficient(e)} in {'-' if s < 0 else ''}t^{k} times the second"
        )
    return (s, k)


def _old_substitute_inverse(s):
    """t -> 1/t swept through the constructor, kept as the reference."""
    sign = -1 if len(s.denominator_degrees) % 2 else 1
    num = s.numerator.substitute_inverse().shift(sum(s.denominator_degrees)).scale(sign)
    return HilbertSeries(num, s.denominator_degrees)


def _shape(s):
    return s.numerator.terms(), s.denominator_degrees


@st.composite
def wide_series_pairs(draw):
    """Two lattice series far apart in exponent and degree, the second
    sometimes a signed power of t times the first over more factors."""
    stride = draw(st.sampled_from([1, 7, 10**9 - 7, 10**9]))
    offset = draw(st.integers(-(10**9), 10**9))
    terms, degrees = draw(lattice_series(stride, offset))
    a = HS(LaurentPolynomial(terms), degrees)
    terms, degrees = draw(lattice_series(stride, offset))
    if draw(st.booleans()) and not a.is_zero:
        sign, k = draw(st.sampled_from([1, -1])), draw(st.integers(-(10**9), 10**9))
        return a, HS(a.numerator.shift(k).scale(sign).times_one_minus(degrees), a.denominator_degrees + degrees)
    return a, HS(LaurentPolynomial(terms), degrees)


@settings(max_examples=200, deadline=None)
@given(st.one_of(series_pairs(), wide_series_pairs()))
@example((HS(1, [2]), HS(LaurentPolynomial({0: 1, 2: 1}), [4])))  # equal, over different factors
@example((HS(LaurentPolynomial({-3: Fraction(1, 2)}), [1, 3]), HS(LaurentPolynomial({5: Fraction(-1, 2)}), [3])))
def test_comparisons_and_substitution_equal_the_old_routes(pair):
    a, b = pair
    assert (a == b) is _reference_equal(a, b)
    assert (a == 1) is _reference_equal(a, HS(1))
    for x, y in (pair, pair[::-1]):
        if x.is_zero or y.is_zero:
            continue
        try:
            expected = _old_ratio(x, y)
        except NotMonomialRatio as exc:
            with pytest.raises(NotMonomialRatio) as got:
                ratio_as_signed_monomial(x, y)
            assert str(got.value) == str(exc)
        else:
            assert ratio_as_signed_monomial(x, y) == expected
    for s in pair:
        flipped = s.substitute_inverse()
        assert _shape(flipped) == _shape(_old_substitute_inverse(s))
        assert all(in_exact_form(c) for _, c in flipped.numerator.terms())


def test_comparisons_lift_without_times_one_minus(monkeypatch):
    a = HS(1, [2])
    b = HS(LaurentPolynomial({0: 1, 2: 1}), [4])  # (1 + t^2)/(1 - t^4) = a
    flipped = shifted(b, 3) * -1
    pairs = [(a, b), (a, HS(1, [3])), (flipped, a), (HS(1, [2]), HS(1, [3]))]
    expected = [_reference_equal(x, y) for x, y in pairs]
    with pytest.raises(NotMonomialRatio) as old_failure:
        _old_ratio(HS(1, [2]), HS(1, [3]))

    def refuse(self, degrees):
        raise AssertionError("a comparison lifted through times_one_minus")

    monkeypatch.setattr(LaurentPolynomial, "times_one_minus", refuse)
    assert [x == y for x, y in pairs] == expected == [True, False, False, False]
    assert HS(1) == 1 and HS(1, [2]) != 1 and HS(Fraction(1, 2)) == Fraction(1, 2)
    assert ratio_as_signed_monomial(flipped, a) == (-1, 3)
    assert ratio_as_signed_monomial(a, b) == (1, 0)
    with pytest.raises(NotMonomialRatio) as failure:
        ratio_as_signed_monomial(HS(1, [2]), HS(1, [3]))
    assert str(failure.value) == str(old_failure.value)


def test_substitute_inverse_builds_through_no_constructor(monkeypatch):
    # t -> 1/t sends the residue class r mod d to -r, so no factor 1 - t^d
    # divides the new numerator and no sweep is run.
    cases = [
        HS(1, [2]),
        HS(LaurentPolynomial({-3: Fraction(1, 2), 4: -2}), [1, 3, 3]),
        HS(prod_one_minus([48]), [8, 12]),
        HS(LaurentPolynomial({0: 1, 10**9: 5}), [7, 10**9 + 1]),
        HS(0, [5]),
    ]
    expected = [_shape(_old_substitute_inverse(s)) for s in cases]

    def refuse(self, *args):
        raise AssertionError("substitute_inverse built a series through the constructor")

    monkeypatch.setattr(HilbertSeries, "__init__", refuse)
    assert [_shape(s.substitute_inverse()) for s in cases] == expected
