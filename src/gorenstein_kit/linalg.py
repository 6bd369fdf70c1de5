"""Exact linear algebra over the rationals, and the package's scalar rule.

Every exact scalar is an ``int`` when integral and a ``Fraction`` only when
its denominator exceeds 1 (an int equals, hashes and prints like the equal
Fraction): :func:`exact` puts a value in that form, refusing floats, and
:func:`quotient` divides into it.  Matrices are immutable tuples of tuples
of such scalars, and every function is pure.  Elimination runs on sparse
rows, dicts from column index to nonzero scalar: the rows of g - 1 on
monomials behind invariant bases have one or two nonzeros each for a
signed permutation g.  Determinant, rank and inverse take dense matrices
and hand their nonzero entries to the same elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Union[int, Fraction]
Matrix = tuple[tuple[Scalar, ...], ...]


def exact(value: Scalar) -> Scalar:
    """The value as an int when integral, else as a Fraction; refuses floats."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def quotient(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly: an int when b divides a, else a Fraction."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(Fraction(exact(a)) / exact(b))


def freeze(rows: Iterable[Iterable[Scalar]]) -> Matrix:
    return tuple(tuple(map(exact, row)) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # Zero entries are skipped: the matrices here are mostly signed
    # permutations, and x + 0*y = x exactly.
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for x, terms in zip(row, b_nonzero):
            if x:
                for j, y in terms:
                    acc[j] += x * y
        out.append(tuple(v if type(v) is int else exact(v) for v in acc))
    return tuple(out)


def _gauss_jordan(
    rows: Iterable[Mapping[int, Scalar]],
) -> tuple[list[dict[int, Scalar]], list[int], list[Scalar]]:
    """Gauss-Jordan elimination on sparse rows.

    Each row in turn is reduced at its leading column by the pivot row of
    that column until its leading column has none; it then becomes that
    column's pivot row, scaled to 1 there.  A row that reduces to zero is
    dropped.  One back substitution, from the last pivot column down, clears
    the other pivot columns from each pivot row, so no row is revisited for
    each new pivot.

    Returns the reduced rows in pivot column order, and the pivot columns and
    the values divided out in the order the rows came in.  Subtracting
    multiples of earlier rows leaves a determinant alone, so a regular
    matrix's determinant is the product of those values, signed by the
    permutation from row order to pivot column order.
    """
    echelon: dict[int, dict[int, Scalar]] = {}
    pivots: list[int] = []
    pivot_values: list[Scalar] = []
    for source in rows:
        row = {j: c if type(c) is int else exact(c) for j, c in source.items() if c}
        while row:
            lead = min(row)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                value = row[lead]
                echelon[lead] = row if value == 1 else {j: quotient(c, value) for j, c in row.items()}
                pivots.append(lead)
                pivot_values.append(value)
                break
            _subtract(row, row[lead], pivot_row)
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for col in [j for j in row if j != lead and j in echelon]:
            _subtract(row, row[col], echelon[col])
    return [echelon[col] for col in sorted(echelon)], pivots, pivot_values


def _subtract(row: dict[int, Scalar], factor: Scalar, pivot_row: dict[int, Scalar]) -> None:
    """row -= factor * pivot_row in place, keeping only nonzero entries."""
    for j, c in pivot_row.items():
        value = row.get(j, 0) - factor * c
        if value:
            row[j] = value if type(value) is int else exact(value)
        else:
            del row[j]


def _sparse(m: Matrix) -> list[dict[int, Scalar]]:
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def determinant(m: Matrix) -> Scalar:
    _, pivots, pivot_values = _gauss_jordan(_sparse(m))
    if len(pivots) < len(m):
        return 0
    inversions = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return exact((-1) ** inversions * math.prod(pivot_values))


def rank(m: Matrix) -> int:
    return len(_gauss_jordan(_sparse(m))[1])


def inverse(m: Matrix) -> Matrix:
    n = len(m)
    reduced, pivots, _ = _gauss_jordan([{**row, n + i: 1} for i, row in enumerate(_sparse(m))])
    if any(col >= n for col in pivots):
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row.get(n + j, 0) for j in range(n)) for row in reduced)


def trace(m: Matrix) -> Scalar:
    return exact(sum(m[i][i] for i in range(len(m))))


def det_one_minus_coefficients(m: Matrix) -> list[Scalar]:
    """Coefficients c_0..c_n of det(1 - s*M) as a polynomial in s.

    Computed by the Faddeev-LeVerrier recursion for the characteristic
    polynomial; exact over the rationals.
    """
    n = len(m)
    coeffs: list[Scalar] = [1]
    mk = m
    for k in range(1, n + 1):
        c = quotient(-trace(mk), k)
        coeffs.append(c)
        if k < n:
            shifted = tuple(
                tuple(mk[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
            )
            mk = mat_mul(m, shifted)
    return coeffs


def rref(rows: Sequence[Mapping[int, Scalar]]) -> list[dict[int, Scalar]]:
    """Reduced row echelon form of sparse rows, in pivot column order; rows
    that reduce to zero are dropped."""
    return _gauss_jordan(rows)[0]
