"""Graded complete-intersection presentations and their numerical duality data.

A presentation lists named generators and relations with positive degrees;
degrees are topological throughout (t tracks the degree of homotopy/graded
pieces exactly as printed, with no half-degree normalization).  The
Gorenstein shift of a presentation is computed two independent ways: a closed
formula in the degrees, and extraction from the functional equation the
Hilbert series satisfies (Stanley's criterion).  Presentations and graded
module series are immutable records: named tuples, the presentation
validated on every construction.
"""

from __future__ import annotations

import operator
import warnings
from functools import lru_cache
from typing import NamedTuple, Sequence

from .series import (
    HilbertSeries,
    NotMonomialRatio,
    Scalar,
    prod_one_minus,
    ratio_as_signed_monomial,
)


class NotGorensteinSeries(ArithmeticError):
    """The series does not satisfy the Gorenstein functional equation."""


class RegularSequenceWarning(UserWarning):
    """An asserted regular sequence fails the nonnegativity necessary test."""


#: Window for the nonnegativity check backing a regularity assertion.
REGULARITY_CHECK_DEGREE = 80


class _RingFields(NamedTuple):
    name: str
    coefficient_label: str
    generators: tuple[tuple[str, int], ...]
    relations: tuple[tuple[str, int], ...] = ()
    regular_sequence_asserted: bool = True


class RingPresentation(_RingFields):
    """A graded complete intersection: generators modulo a regular sequence.

    ``regular_sequence_asserted`` records the user's claim that the relations
    form a regular sequence; the library only verifies the necessary
    condition that the resulting Hilbert series has nonnegative coefficients.
    A polynomial ring is presented relation-free.  An immutable record,
    normalised and validated on every construction, ``_replace`` included.
    """

    __slots__ = ()

    def __new__(cls, name, coefficient_label, generators, relations=(), regular_sequence_asserted=True):
        generators = tuple((str(s), operator.index(d)) for s, d in generators)
        relations = tuple((str(s), operator.index(d)) for s, d in relations)
        if not generators:
            raise ValueError(f"{name or 'presentation'}: at least one generator is required")
        if len(relations) > len(generators):
            raise ValueError(f"{name}: more relations than generators")
        for sym, deg in generators:
            if deg < 1:
                raise ValueError(f"{name}: generator {sym} has degree {deg} < 1")
        for sym, deg in relations:
            if deg < 2:
                raise ValueError(f"{name}: relation {sym} has degree {deg} < 2")
        symbols = [s for s, _ in generators] + [s for s, _ in relations]
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"{name}: generator/relation symbols are not pairwise distinct")
        return super().__new__(cls, name, coefficient_label, generators, relations, regular_sequence_asserted)

    @classmethod
    def _make(cls, iterable):  # the path of _replace, validated as the constructor is
        return cls(*iterable)

    @property
    def generator_degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.generators)

    @property
    def relation_degrees(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.relations)


def krull_dimension(p: RingPresentation) -> int:
    """Number of generators minus number of relations."""
    return len(p.generators) - len(p.relations)


def hilbert_series(p: RingPresentation) -> HilbertSeries:
    """prod (1 - t^{relation degrees}) / prod (1 - t^{generator degrees}).

    When the presentation asserts a regular sequence, the expansion is
    checked for nonnegative coefficients up to ``REGULARITY_CHECK_DEGREE``
    (a necessary condition for regularity) and a
    :class:`RegularSequenceWarning` is emitted on failure.
    """
    series = HilbertSeries(prod_one_minus(p.relation_degrees), p.generator_degrees)
    if p.regular_sequence_asserted:
        coeffs = series.expand(0, REGULARITY_CHECK_DEGREE)
        k = next((i for i, c in enumerate(coeffs) if c < 0), None)
        if k is not None:
            warnings.warn(
                f"{p.name}: asserted regular sequence, but the series has a "
                f"negative coefficient {coeffs[k]} at degree {k}",
                RegularSequenceWarning,
                stacklevel=2,
            )
    return series


def gorenstein_shift_formula(p: RingPresentation) -> int:
    """Closed formula: sum of relation degrees - sum of generator degrees - dim."""
    return sum(p.relation_degrees) - sum(p.generator_degrees) - krull_dimension(p)


def gorenstein_shift_stanley(series: HilbertSeries, dim: int) -> int:
    """Extract the Gorenstein shift from the series functional equation.

    A Gorenstein series of Krull dimension r and shift a satisfies
    p(1/t) = (-1)^r t^{-(a+r)} p(t); this is the exponent convention that
    reproduces the closed formula on every complete intersection.  Raises
    :class:`NotGorensteinSeries` when the ratio is not a signed monomial or
    the sign disagrees with (-1)^r.
    """
    if series.is_zero:
        raise NotGorensteinSeries("the zero series is not Gorenstein")
    try:
        sign, k = ratio_as_signed_monomial(series.substitute_inverse(), series)
    except NotMonomialRatio as exc:
        raise NotGorensteinSeries(str(exc)) from exc
    expected_sign = -1 if dim % 2 else 1
    if sign != expected_sign:
        raise NotGorensteinSeries(
            f"functional-equation sign is {sign}, expected {expected_sign} in dimension {dim}"
        )
    return -k - dim


class GradedModuleSeries(NamedTuple):
    """A graded module presented as a Hilbert series, an applied suspension,
    and a dualization flag.

    The *effective* coefficient in degree n is the coefficient of the
    underlying series in degree n - shift, read at -(n - shift) when
    ``dualized`` (the degree-n part of the dual is the dual of the
    degree-(-n) part).  Expansion respects the direction in which the module
    is bounded: duals of connective modules are supported towards minus
    infinity and are expanded that way.  An immutable record whose equality
    ignores ``label``; like its series, it is unhashable.
    """

    series: HilbertSeries
    shift: int = 0
    dualized: bool = False
    label: str = ""

    def __eq__(self, other: object) -> bool:
        return self[:3] == other[:3] if type(other) is GradedModuleSeries else NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = None

    def expand(self, lo: int, hi: int) -> list[Scalar]:
        """Effective coefficients for degrees lo..hi inclusive."""
        if self.dualized:
            inner = self.series.expand(-(hi - self.shift), -(lo - self.shift))
            return inner[::-1]
        return self.series.expand(lo - self.shift, hi - self.shift)

    def coefficient(self, degree: int) -> Scalar:
        return self.expand(degree, degree)[0]

    def dual(self) -> "GradedModuleSeries":
        """The degree-reversed module: suspensions anticommute with duals."""
        label = f"dual({self.label})" if self.label else ""
        return GradedModuleSeries(self.series, -self.shift, not self.dualized, label)

    def suspended(self, k: int, label: str | None = None) -> "GradedModuleSeries":
        return GradedModuleSeries(
            self.series, self.shift + k, self.dualized, self.label if label is None else label
        )


def brute_force_hilbert(p: RingPresentation, n: int) -> list[int]:
    """Independent oracle for the coefficients of hilbert_series(p) on 0..n.

    Monomials in the generators are counted by enumerating nonnegative
    integer solutions of sum(d_i * x_i) = k; the relation factors
    (1 - t^{e_j}) of the numerator are then folded in by inclusion-exclusion
    on subsets of relations.  No rational-function arithmetic is used.
    """
    if n < 0:
        raise ValueError("window must end at a nonnegative degree")
    degrees = p.generator_degrees

    @lru_cache(maxsize=None)
    def count(i: int, k: int) -> int:
        # number of solutions of sum(degrees[i:] . x) = k
        if k == 0:
            return 1
        if i == len(degrees):
            return 0
        d = degrees[i]
        return sum(count(i + 1, k - x * d) for x in range(k // d + 1))

    # signed shifts from expanding prod_j (1 - t^{e_j})
    signed_shifts = [(0, 1)]
    for _, e in p.relations:
        signed_shifts = [(s, sg) for s, sg in signed_shifts] + [
            (s + e, -sg) for s, sg in signed_shifts
        ]
    out = []
    for k in range(n + 1):
        total = 0
        for shift, sign in signed_shifts:
            if k - shift >= 0:
                total += sign * count(0, k - shift)
        out.append(total)
    count.cache_clear()
    return out


def polynomial_presentation(
    name: str, coefficient_label: str, degrees: Sequence[int]
) -> RingPresentation:
    """A relation-free presentation on generators f1, f2, ... of the degrees."""
    gens = tuple((f"f{i + 1}", operator.index(d)) for i, d in enumerate(degrees))
    return RingPresentation(name, coefficient_label, gens)
