"""Small exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fractions; everything here is a
pure function.  Sizes stay tiny (representations of small finite groups), so
straightforward Gaussian elimination with exact arithmetic is the right
tool.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Matrix = tuple[tuple[Fraction, ...], ...]


def as_exact(value: Fraction | int) -> Fraction:
    """Coerce to Fraction, refusing floats: nothing here may round."""
    if isinstance(value, float):
        raise TypeError("floating point is not exact; pass a Fraction or int")
    return Fraction(value)


def freeze(rows: Iterable[Iterable[Fraction | int]]) -> Matrix:
    return tuple(tuple(as_exact(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # Zero entries are skipped: the matrices here are mostly signed
    # permutations, and x + 0*y = x exactly.
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [Fraction(0)] * len(b[0])
        for x, terms in zip(row, b_nonzero):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def _gauss_jordan(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[Fraction]], list[int], int, list[Fraction]]:
    """Gauss-Jordan elimination: the nonzero rows of the reduced row echelon
    form, their pivot columns, the sign of the row swaps and the pivot values
    divided out (whose signed product is the determinant of a regular matrix).
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    pivot_values: list[Fraction] = []
    sign = 1
    rk = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rk, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rk:
            work[rk], work[pivot] = work[pivot], work[rk]
            sign = -sign
        value = work[rk][col]
        pivots.append(col)
        pivot_values.append(value)
        # Only the pivot row's nonzero entries change anything: x - f*0 = x.
        pivot_row = work[rk]
        support = [j for j in range(col, len(pivot_row)) if pivot_row[j]]
        for j in support:
            pivot_row[j] /= value
        for r, row in enumerate(work):
            factor = row[col]
            if factor and r != rk:
                for j in support:
                    row[j] -= factor * pivot_row[j]
        rk += 1
        if rk == len(work):
            break
    return work[:rk], pivots, sign, pivot_values


def determinant(m: Matrix) -> Fraction:
    _, pivots, sign, pivot_values = _gauss_jordan(m)
    if len(pivots) < len(m):
        return Fraction(0)
    return sign * math.prod(pivot_values, start=Fraction(1))


def rank(m: Matrix) -> int:
    return len(_gauss_jordan(m)[1])


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    reduced, pivots, _, _ = _gauss_jordan(
        [list(row) + list(ident_row) for row, ident_row in zip(m, identity(n))]
    )
    if any(col >= n for col in pivots):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row[n:]) for row in reduced)


def trace(m: Matrix) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), Fraction(0))


def det_one_minus_coefficients(m: Matrix) -> list[Fraction]:
    """Coefficients c_0..c_n of det(1 - s*M) as a polynomial in s.

    Computed by the Faddeev-LeVerrier recursion for the characteristic
    polynomial; exact over the rationals.
    """
    n = len(m)
    coeffs = [Fraction(1)]
    mk = m
    for k in range(1, n + 1):
        c = -trace(mk) / k
        coeffs.append(c)
        if k < n:
            shifted = tuple(
                tuple(mk[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
            )
            mk = mat_mul(m, shifted)
    return coeffs


def rref(rows: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form; zero rows are dropped."""
    return _gauss_jordan(rows)[0]
