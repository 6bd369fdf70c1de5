"""Exact linear algebra over the rationals, and the package's scalar rule.

Every exact scalar is an ``int`` when integral and a ``Fraction`` only when
its denominator exceeds 1 (an int equals, hashes and prints like the equal
Fraction): :func:`exact` puts a value in that form, refusing floats, and
:func:`quotient` divides into it.  Matrices are immutable tuples of tuples
of such scalars, and every function is pure.  The package has two matrix
algorithms: one elimination on sparse rows (dicts from column index to
nonzero scalar), :func:`rref`, behind invariant bases and the rank test of
group generators; and det(1 - s*M) by Newton's identities on the power sums
tr(M^k), whose coefficient list the group's class record keeps per class and
grading block, fed with traces read off a permutation.
"""

from __future__ import annotations

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
    """det M, the top coefficient of det(1 - s*M) times (-1)^n."""
    return (-1) ** len(m) * det_one_minus_coefficients(m)[-1]


def rank(m: Matrix) -> int:
    return len(rref(_sparse(m)))


def inverse(m: Matrix) -> Matrix:
    # [M | I] has rank n, so M is singular exactly when a pivot lies in I.
    n = len(m)
    reduced = rref([{**row, n + i: 1} for i, row in enumerate(_sparse(m))])
    if n and min(reduced[-1]) >= n:
        raise ZeroDivisionError("matrix is singular")
    return tuple(tuple(row.get(n + j, 0) for j in range(n)) for row in reduced)


def trace(m: Matrix) -> Scalar:
    return exact(sum(m[i][i] for i in range(len(m))))


def det_one_minus_coefficients(m: Matrix) -> list[Scalar]:
    """Coefficients c_0..c_n of det(1 - s*M) as a polynomial in s, from the
    traces of M, M^2, ..., M^n by :func:`det_one_minus_from_traces`."""
    traces, mk = [], m
    for k in range(len(m)):
        if k:
            mk = mat_mul(mk, m)
        traces.append(trace(mk))
    return det_one_minus_from_traces(traces)


def det_one_minus_from_traces(traces: Sequence[Scalar]) -> list[Scalar]:
    """Coefficients c_0..c_n of det(1 - s*M) from the power sums p_k = tr(M^k),
    k = 1..n, by Newton's identities k*c_k = -sum_{i<=k} p_i*c_{k-i}; exact
    over the rationals."""
    coeffs: list[Scalar] = [1]
    for k in range(1, len(traces) + 1):
        coeffs.append(quotient(-sum(p * c for p, c in zip(traces, reversed(coeffs))), k))
    return coeffs


def rref(rows: Iterable[Mapping[int, Scalar]]) -> list[dict[int, Scalar]]:
    """Reduced row echelon form of sparse rows, in pivot column order; rows
    that reduce to zero are dropped.

    Each row in turn is reduced at its leading column by the pivot row of
    that column until its leading column has none; it then becomes that
    column's pivot row, scaled to 1 there.  One back substitution, from the
    last pivot column down, clears the other pivot columns from each pivot
    row, so no row is revisited for each new pivot.
    """
    echelon: dict[int, dict[int, Scalar]] = {}
    for source in rows:
        row = {j: c if type(c) is int else exact(c) for j, c in source.items() if c}
        while row:
            lead = min(row)
            pivot_row = echelon.get(lead)
            if pivot_row is None:
                value = row[lead]
                echelon[lead] = row if value == 1 else {j: quotient(c, value) for j, c in row.items()}
                break
            _subtract(row, row[lead], pivot_row)
    for lead in sorted(echelon, reverse=True):
        row = echelon[lead]
        for col in [j for j in row if j != lead and j in echelon]:
            _subtract(row, row[col], echelon[col])
    return [echelon[col] for col in sorted(echelon)]
