"""Exact elimination (rref, rank, determinant, inverse) and products against
sympy, on dense and on mostly-zero matrices.  ``rref`` takes and returns
sparse rows (column -> nonzero entry); the other functions take matrices."""

from fractions import Fraction

import pytest
from conftest import in_exact_form
from hypothesis import assume, given, settings, strategies as st

from gorenstein_kit import linalg

try:
    import sympy
except ImportError:  # only the tests against sympy need it
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="needs sympy")

# Small entries with many zeros, so singular and rank-deficient matrices
# come up often.
entries = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(linalg.freeze)


square = st.integers(1, 4).flatmap(lambda n: matrices(n, n))
rectangular = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(lambda rc: matrices(*rc))


def sparse_matrices(rows, cols):
    """Mostly-zero matrices: at most a quarter of the entries (and at least
    one) are drawn nonzero, at drawn positions, like the signed permutations
    and monomial-substitution rows the library multiplies and reduces."""
    positions = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    return st.dictionaries(positions, nonzero, max_size=max(1, rows * cols // 4)).map(
        lambda entries: linalg.freeze(
            [[entries.get((i, j), 0) for j in range(cols)] for i in range(rows)]
        )
    )


sparse_square = st.integers(1, 8).flatmap(lambda n: sparse_matrices(n, n))
sparse_rectangular = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda rc: sparse_matrices(*rc)
)
sparse_products = st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda nkm: st.tuples(sparse_matrices(nkm[0], nkm[1]), sparse_matrices(nkm[1], nkm[2]))
)
dense_products = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda nkm: st.tuples(matrices(nkm[0], nkm[1]), matrices(nkm[1], nkm[2]))
)


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


def sparse_rows(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def check_rref_and_rank(m):
    reduced, pivots = to_sympy(m).rref()
    assert linalg.rref(sparse_rows(m)) == sparse_rows(from_sympy(reduced)[: len(pivots)])
    assert linalg.rank(m) == len(pivots) == to_sympy(m).rank()


def check_determinant_and_inverse(m):
    expected = to_sympy(m).det()
    assert linalg.determinant(m) == Fraction(int(expected.p), int(expected.q))
    if expected:
        assert [list(row) for row in linalg.inverse(m)] == from_sympy(to_sympy(m).inv())
    else:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(m)


@needs_sympy
@given(rectangular)
@settings(max_examples=150)
def test_rref_and_rank_match_sympy(m):
    check_rref_and_rank(m)


@needs_sympy
@given(square)
@settings(max_examples=150)
def test_determinant_and_inverse_match_sympy(m):
    check_determinant_and_inverse(m)


@needs_sympy
@given(sparse_rectangular)
@settings(max_examples=150)
def test_sparse_rref_and_rank_match_sympy(m):
    check_rref_and_rank(m)


@needs_sympy
@given(sparse_square)
@settings(max_examples=150)
def test_sparse_determinant_and_inverse_match_sympy(m):
    check_determinant_and_inverse(m)


@needs_sympy
@given(sparse_rectangular, st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_rref_of_shuffled_sparse_rows_matches_sympy(m, rng):
    # The row space, hence its reduced form, does not depend on row order.
    rows = sparse_rows(m)
    rng.shuffle(rows)
    reduced, pivots = to_sympy(m).rref()
    result = linalg.rref(rows)
    assert result == sparse_rows(from_sympy(reduced)[: len(pivots)])
    assert all(in_exact_form(x) and x for row in result for x in row.values())


def test_rref_drops_rows_that_reduce_to_zero():
    one, two, half = Fraction(1), Fraction(2), Fraction(1, 2)
    rows = [{0: two, 2: one}, {}, {0: one, 2: half}, {1: one}, {0: -two, 1: two, 2: -one}]
    assert linalg.rref(rows) == [{0: one, 2: half}, {1: one}]


@needs_sympy
@given(st.one_of(dense_products, sparse_products))
@settings(max_examples=150)
def test_mat_mul_matches_sympy(pair):
    a, b = pair
    product = linalg.mat_mul(a, b)
    assert [list(row) for row in product] == from_sympy(to_sympy(a) * to_sympy(b))
    assert all(in_exact_form(x) for row in product for x in row)


def test_row_swap_changes_the_sign_of_the_determinant():
    m = linalg.freeze([[1, 2, 0], [3, 4, 1], [0, 5, 6]])
    swapped = (m[1], m[0], m[2])
    assert linalg.determinant(m) == -linalg.determinant(swapped) == -17
    # A zero leading entry forces the elimination itself to swap.
    assert linalg.determinant(linalg.freeze([[0, 1], [1, 0]])) == -1


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(ZeroDivisionError):
        linalg.inverse(linalg.freeze([[1, 2], [2, 4]]))


def test_rank_of_zero_matrix_is_zero():
    assert linalg.rank(linalg.freeze([[0, 0, 0], [0, 0, 0]])) == 0
    assert linalg.rref([{}, {}]) == []


# -- the exact-scalar rule -----------------------------------------------------
#
# Every result is an int when integral and a Fraction only otherwise, whether
# the input is unfrozen ints (lists, never passed through freeze) or raw
# Fractions, integral ones included.

raw_entries = [
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),  # Fraction(2, 1) too
]


def raw_matrices(rows, cols):
    """Unfrozen matrices: lists of lists, all ints or all Fractions."""
    return st.sampled_from(raw_entries).flatmap(
        lambda entry: st.lists(
            st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
    )


raw_square = st.integers(1, 4).flatmap(lambda n: raw_matrices(n, n))
raw_rectangular = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda rc: raw_matrices(*rc)
)
raw_products = st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda nkm: st.tuples(raw_matrices(nkm[0], nkm[1]), raw_matrices(nkm[1], nkm[2]))
)


def all_exact(rows):
    return all(in_exact_form(x) for row in rows for x in row)


@needs_sympy
@given(raw_rectangular)
@settings(max_examples=150)
def test_rref_on_raw_input_is_in_exact_form(m):
    reduced, pivots = to_sympy(m).rref()
    result = linalg.rref(sparse_rows(m))
    assert result == sparse_rows(from_sympy(reduced)[: len(pivots)])
    assert all_exact(row.values() for row in result)


@needs_sympy
@given(raw_square)
@settings(max_examples=150)
def test_determinant_and_inverse_on_raw_input_are_in_exact_form(m):
    det = linalg.determinant(m)
    assert in_exact_form(det)
    expected = to_sympy(m).det()
    assert det == Fraction(int(expected.p), int(expected.q))
    assume(det)
    inverse = linalg.inverse(m)
    assert all_exact(inverse)
    assert [list(row) for row in inverse] == from_sympy(to_sympy(m).inv())


@needs_sympy
@given(raw_products)
@settings(max_examples=150)
def test_mat_mul_on_raw_input_is_in_exact_form(pair):
    a, b = pair
    product = linalg.mat_mul(a, b)
    assert all_exact(product)
    assert [list(row) for row in product] == from_sympy(to_sympy(a) * to_sympy(b))


@needs_sympy
@given(raw_square)
@settings(max_examples=150)
def test_det_one_minus_coefficients_on_raw_input_are_in_exact_form(m):
    coeffs = linalg.det_one_minus_coefficients(m)
    assert all(map(in_exact_form, coeffs))
    # det(1 - s*M) = s^n * charpoly(1/s): the characteristic polynomial's
    # coefficients, leading one first.
    expected = to_sympy(m).charpoly().all_coeffs()
    assert coeffs == [Fraction(int(c.p), int(c.q)) for c in expected]


def test_integer_matrices_stay_on_ints():
    assert linalg.rref([{0: 3, 1: 1}]) == [{0: 1, 1: Fraction(1, 3)}]
    assert type(linalg.determinant(((2, 1), (1, 1)))) is int
    assert linalg.inverse(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    assert all(type(x) is int for row in linalg.inverse(((2, 1), (1, 1))) for x in row)
    assert linalg.freeze([[Fraction(4, 2), Fraction(1, 2)]]) == ((2, Fraction(1, 2)),)
    assert type(linalg.freeze([[Fraction(4, 2)]])[0][0]) is int


@pytest.mark.parametrize(
    "call",
    [
        lambda: linalg.rref([{0: 1.5}]),
        lambda: linalg.determinant([[1.5]]),
        lambda: linalg.inverse([[2.0]]),
        lambda: linalg.mat_mul([[1]], [[0.5]]),
        lambda: linalg.det_one_minus_coefficients([[0.5]]),
        lambda: linalg.freeze([[0.5]]),
        lambda: linalg.quotient(1.5, 2),
    ],
    ids=["rref", "determinant", "inverse", "mat_mul", "det_one_minus", "freeze", "quotient"],
)
def test_floats_are_refused(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize(
    "a, b, expected",
    [(6, 3, 2), (3, 6, Fraction(1, 2)), (3, -2, Fraction(-3, 2)), (Fraction(3, 2), Fraction(1, 2), 3)],
)
def test_quotient_follows_the_rule(a, b, expected):
    q = linalg.quotient(a, b)
    assert q == expected and in_exact_form(q)
