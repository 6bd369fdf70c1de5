"""Exact elimination (rref, rank, determinant, inverse) against sympy."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gorenstein_kit import linalg

sympy = pytest.importorskip("sympy")

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


def to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def from_sympy(m):
    return [[Fraction(int(x.p), int(x.q)) for x in m.row(i)] for i in range(m.rows)]


@given(rectangular)
@settings(max_examples=150)
def test_rref_and_rank_match_sympy(m):
    reduced, pivots = to_sympy(m).rref()
    assert linalg.rref(m) == from_sympy(reduced)[: len(pivots)]
    assert linalg.rank(m) == len(pivots) == to_sympy(m).rank()


@given(square)
@settings(max_examples=150)
def test_determinant_and_inverse_match_sympy(m):
    expected = to_sympy(m).det()
    assert linalg.determinant(m) == Fraction(int(expected.p), int(expected.q))
    if expected:
        assert [list(row) for row in linalg.inverse(m)] == from_sympy(to_sympy(m).inv())
    else:
        with pytest.raises(ZeroDivisionError):
            linalg.inverse(m)


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
    assert linalg.rref(linalg.freeze([[0, 0]])) == []
