"""Exact arithmetic for Laurent polynomials and rational functions in one
formal variable t.

Everything in this module is computed over the rationals with no rounding
anywhere.  Coefficients follow the package's one scalar rule,
:func:`gorenstein_kit.linalg.exact`: an ``int`` when integral, a
``Fraction`` only when the denominator exceeds 1.  Exponents and
denominator degrees must be integers; anything else is refused with
``TypeError``, never truncated.  A :class:`HilbertSeries` is a rational
function kept in the shape

    numerator / prod_{d in D} (1 - t^d)

with the numerator a Laurent polynomial (negative exponents allowed, since
duals and local cohomology live in negative degrees) and D a multiset of
positive integers.  The shape is canonical: no denominator factor divides
the numerator exactly.  A reduction pass enforces this on construction; a
nonzero scalar multiple keeps the shape and needs no pass.

Each type has one validating constructor: ``LaurentPolynomial(terms)`` and
``HilbertSeries(numerator, degrees)``, so ``HilbertSeries(1, degrees)`` is
the series of a free ring on generators of those degrees and
``prod_one_minus(degrees)`` is its denominator.  Both run on one kernel over
exponent -> coefficient dicts and sorted degree tuples, sized by the terms,
never by the exponent span: :func:`_lcm` merges two denominators,
:func:`_lift` multiplies by the factors one lacks, :func:`_over_one_minus`
divides by one exactly and :func:`_reduce` is the reduction sweep.  Sum
(:func:`_add`) lifts both numerators to the lcm of the denominators;
equality and ``ratio_as_signed_monomial`` compare the two that
:func:`_over_lcm` lifts there, as equal series may differ in shape.  There
is no ``-``: ``a + b * -1`` subtracts.  Substituting t -> 1/t keeps the
canonical shape with no sweep: it sends the residue class r mod d to -r, so
1 - t^d divides the new numerator exactly when it divided the old one.

All values are immutable after construction and all operations are pure, so
objects can be shared freely between threads or tasks.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import accumulate

from .linalg import Scalar, exact, quotient


class NotMonomialRatio(ArithmeticError):
    """Raised when one series is not a signed power of t times another."""


Terms = dict[int, Scalar]  # exponent -> nonzero coefficient, the kernel's numerators


def _exact_terms(acc: Terms) -> Terms:
    """acc without its zero coefficients, each in :func:`exact` form (inlined:
    this runs on every arithmetic result)."""
    return {e: c if type(c) is int else c.numerator if c.denominator == 1 else c for e, c in acc.items() if c}


def _times(a: Terms, b: Terms) -> Terms:
    """The product of two term dicts."""
    acc: Terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
    return _exact_terms(acc)


def _lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """The least common multiple of two sorted denominator tuples, by one
    merge, with the factors each lacks: (common, a's lift, b's lift), sorted."""
    common, lift_a, lift_b, i, j = [], [], [], 0, 0
    while i < len(a) and j < len(b):
        x, y = a[i], b[j]
        common.append(min(x, y))
        if x != y:
            (lift_b if x < y else lift_a).append(min(x, y))
        i, j = i + (x <= y), j + (y <= x)
    common += a[i:] + b[j:]
    return common, lift_a + list(b[j:]), lift_b + list(a[i:])


def _lift(terms: Terms, degrees: Iterable[int], scale: Scalar = 1) -> Terms:
    """scale * terms * prod_{d in degrees} (1 - t^d), d >= 0, one shift and subtract
    per factor; zeros and integral Fractions stay for the caller's :func:`_exact_terms`."""
    acc = {e: c * scale for e, c in terms.items()}
    for d in degrees:
        for e, c in list(acc.items()):
            if c:
                acc[e + d] = acc.get(e + d, 0) - c
    return acc


def _over_one_minus(terms: Terms, d: int) -> Terms | None:
    """terms / (1 - t^d), d >= 1, when exact, else None.  1 - t^d keeps each
    residue class mod d to itself, and the quotient's coefficient at t^k is
    the sum of the terms' at k, k - d, k - 2d, ...: constant from one
    exponent of the class to the next, and exact when each class sums to 0.
    It costs a sort plus one entry per quotient term, however wide the gaps."""
    totals: Terms = {}
    for e, c in terms.items():
        totals[e % d] = totals.get(e % d, 0) + c
    if any(totals.values()):
        return None
    last: dict[int, tuple[int, Scalar]] = {}  # class -> (exponent, sum up to it)
    quo: Terms = {}
    for e in sorted(terms):
        r = e % d
        if r not in last:
            last[r] = (e, terms[e])
            continue
        k, s = last[r]
        if s:
            quo.update(dict.fromkeys(range(k, e, d), s))
        last[r] = (e, s + terms[e])
    return _exact_terms(quo)


def _reduce(terms: Terms, degrees: Iterable[int]) -> tuple[Terms, tuple[int, ...]]:
    """(terms, kept degrees) after stripping each 1 - t^d, degrees ascending,
    that divides the terms: one sweep, as 1 - t^e dividing N/(1 - t^d) divides
    N.  Nothing divides when N(1) != 0, and zero keeps no factor.  A multiple
    e of a kept d is kept untried: 1 - t^d divides 1 - t^e, and what did not
    divide the terms divides none of their later quotients."""
    kept, at_one = [], sum(terms.values())
    for d in degrees:
        q = None if at_one or any(d % f == 0 for f in kept) else _over_one_minus(terms, d)
        if q is None:
            kept.append(d)
        else:
            terms, at_one = q, sum(q.values())
    return terms, tuple(kept)


def _add(a: Terms, a_degrees: tuple, b: Terms, b_degrees: tuple, scale: Scalar = 1) -> tuple[Terms, tuple]:
    """a/prod(1 - t^d, a_degrees) + scale*b/prod(1 - t^d, b_degrees) as canonical
    (terms, degrees): lifted to the merged lcm, summed, made exact once, swept."""
    common, lift_a, lift_b = _lcm(a_degrees, b_degrees)
    acc = _lift(a, lift_a)
    for e, c in _lift(b, lift_b, scale).items():
        acc[e] = acc.get(e, 0) + c
    return _reduce(_exact_terms(acc), common)


class LaurentPolynomial:
    """A finite sum of terms c * t^e with exact rational c and integer e.

    Each c is an int when integral and a Fraction otherwise.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Scalar] | Iterable[tuple[int, Scalar]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, Scalar] = {}
        for exponent, coeff in items:
            e = operator.index(exponent)
            acc[e] = acc.get(e, 0) + exact(coeff)
        self._terms = _exact_terms(acc)

    @classmethod
    def _of(cls, terms: dict[int, Scalar]) -> "LaurentPolynomial":
        """Wrap a dict of nonzero coefficients, each already in exact form, as is."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls._of({0: 1})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> tuple[tuple[int, Scalar], ...]:
        """Terms as (exponent, coefficient) pairs, ascending in exponent."""
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exponent: int) -> Scalar:
        return self._terms.get(exponent, 0)

    @property
    def min_exponent(self) -> int:
        if not self._terms:
            raise ValueError("the zero polynomial has no support")
        return min(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return LaurentPolynomial._of(_add(self._terms, (), other._terms, ())[0])  # no denominators

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._of({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial | Scalar") -> "LaurentPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return LaurentPolynomial._of(_times(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "LaurentPolynomial":
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        result = LaurentPolynomial.one()
        base = self
        k = power
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def scale(self, value: Scalar) -> "LaurentPolynomial":
        v = exact(value)
        return LaurentPolynomial._of(_exact_terms({e: c * v for e, c in self._terms.items()}))

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        k = operator.index(k)
        return LaurentPolynomial._of({e + k: c for e, c in self._terms.items()})

    def divide_exact(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial | None":
        """Return self/divisor when the division is exact, else None.

        Exactness is in the Laurent-polynomial ring, so powers of t are
        units: both operands are anchored at exponent zero before ordinary
        long division is attempted.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return self
        base, dbase = self.min_exponent, divisor.min_exponent
        rem = {e - base: c for e, c in self._terms.items()}
        div = {e - dbase: c for e, c in divisor._terms.items()}
        ddeg = max(div)
        dlead = div[ddeg]
        quo: dict[int, Scalar] = {}
        while rem:
            rdeg = max(rem)
            if rdeg < ddeg:
                return None
            c = quotient(rem[rdeg], dlead)
            quo[rdeg - ddeg] = c
            for e, dc in div.items():
                k = rdeg - ddeg + e
                v = rem.get(k, 0) - c * dc
                if v:
                    rem[k] = v
                else:
                    rem.pop(k, None)
        return LaurentPolynomial._of(quo).shift(base - dbase)

    # -- the factors 1 - t^d ------------------------------------------------

    def times_one_minus(self, degrees: Iterable[int]) -> "LaurentPolynomial":
        """self * prod_{d in degrees} (1 - t^d), degrees >= 0 (:func:`_lift`)."""
        degrees = list(map(operator.index, degrees))
        if any(d < 0 for d in degrees):
            raise ValueError("factor degrees must be >= 0")
        return LaurentPolynomial._of(_exact_terms(_lift(self._terms, degrees)))

    def over_one_minus(self, degree: int) -> "LaurentPolynomial | None":
        """self / (1 - t^degree), degree >= 1, if exact, else None (:func:`_over_one_minus`)."""
        d = operator.index(degree)
        if d < 1:
            raise ValueError("factor degree must be >= 1")
        q = _over_one_minus(self._terms, d)
        return None if q is None else LaurentPolynomial._of(q)

    # -- comparison and display ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial({0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._terms.items())))

    def __repr__(self) -> str:
        return f"LaurentPolynomial({dict(sorted(self._terms.items()))!r})"

    def __str__(self) -> str:
        return _render_terms(
            (c, "" if e == 0 else "t" if e == 1 else f"t^{e}")
            for e, c in sorted(self._terms.items())
        )


def _render_terms(terms: Iterable[tuple[Scalar, str]]) -> str:
    """Render (coefficient, monomial) pairs as ``-t + 3*t^2 - (1/2)*t^3``.

    The sign of each term is its separator, so the first term is the only
    one with a bare ``-``; an empty monomial is a constant term, and a
    non-integral magnitude is parenthesized.
    """
    pieces = []
    for c, body in terms:
        mag = abs(c)
        number = str(mag) if mag.denominator == 1 else f"({mag})"
        text = number if not body else body if mag == 1 else f"{number}*{body}"
        sign = "-" if c < 0 else "+" if pieces else ""
        pieces.append(f"{sign} {text}" if pieces else f"{sign}{text}")
    return " ".join(pieces) or "0"


def prod_one_minus(degrees: Iterable[int]) -> LaurentPolynomial:
    """The product of the factors (1 - t^d) over the given degrees."""
    return LaurentPolynomial.one().times_one_minus(degrees)


class HilbertSeries:
    """A rational function numerator / prod (1 - t^d), held canonically.

    This is the Poincare series of a graded module: ``expand`` reads off
    graded ranks, and the denominator multiset records the degrees of a
    polynomial generating set.
    """

    __slots__ = ("_numerator", "_denominator_degrees")

    def __init__(self, numerator: LaurentPolynomial | Scalar = 1, denominator_degrees: Iterable[int] = ()):
        if not isinstance(numerator, LaurentPolynomial):
            numerator = LaurentPolynomial({0: numerator})
        degrees = sorted(map(operator.index, denominator_degrees))
        if degrees and degrees[0] < 1:
            raise ValueError("denominator degrees must be >= 1")
        terms, self._denominator_degrees = _reduce(numerator._terms, degrees)
        self._numerator = numerator if terms is numerator._terms else LaurentPolynomial._of(terms)

    @classmethod
    def _of(cls, terms: Terms, degrees: tuple[int, ...]) -> "HilbertSeries":
        """Wrap exact nonzero terms over sorted degrees, already canonical, as is."""
        out = cls.__new__(cls)
        out._numerator, out._denominator_degrees = LaurentPolynomial._of(terms), degrees
        return out

    @property
    def numerator(self) -> LaurentPolynomial:
        return self._numerator

    @property
    def denominator_degrees(self) -> tuple[int, ...]:
        return self._denominator_degrees

    @property
    def is_zero(self) -> bool:
        return self._numerator.is_zero

    # -- expansion ----------------------------------------------------------

    def expand(self, lo: int, hi: int) -> list[Scalar]:
        """Coefficients of the Laurent expansion for degrees lo..hi inclusive.

        Each denominator factor is expanded as the geometric series
        1 + t^d + t^{2d} + ..., so the result is bounded below by the least
        numerator exponent.

        The sums run on integers and stay exact.  With L the least common
        multiple of the numerator's coefficient denominators, L times the
        numerator has integer coefficients.  Multiplying by 1/(1 - t^d) is the
        prefix sum coeffs[k] += coeffs[k - d], run as one running sum
        (``itertools.accumulate``) over each residue class mod d that has two
        or more entries in the window; it adds integers to integers, so every
        coefficient of L times the series is an integer v and the true
        coefficient is exactly ``quotient(v, L)``.

        With g the gcd of the denominator degrees and of the numerator's
        exponents less the least one, every nonzero coefficient sits at the
        least exponent plus a multiple of g, so only the residue classes
        r = 0 mod g are summed; the others stay zero.
        """
        if lo > hi:
            raise ValueError("empty expansion window: lo > hi")
        width = hi - lo + 1
        numerator = self._numerator
        if numerator.is_zero or hi < numerator.min_exponent:
            return [0] * width
        base = numerator.min_exponent
        terms = numerator._terms
        degrees = self._denominator_degrees
        step = math.gcd(*degrees, *(e - base for e in terms)) or 1
        scale = math.lcm(*(c.denominator for c in terms.values()))
        coeffs = [0] * (hi - base + 1)
        for e, c in terms.items():
            if e <= hi:
                coeffs[e - base] = c.numerator * (scale // c.denominator)
        for d in degrees:
            for r in range(0, min(d, len(coeffs) - d), step):
                coeffs[r::d] = accumulate(coeffs[r::d])
        del coeffs[: max(lo - base, 0)]  # the window starts at lo,
        coeffs[:0] = [0] * (base - lo)  # with zeros below the support
        if scale != 1:
            coeffs = [quotient(v, scale) for v in coeffs]
        return coeffs

    def coefficient(self, degree: int) -> Scalar:
        return self.expand(degree, degree)[0]

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(value: "HilbertSeries | Scalar") -> "HilbertSeries":
        return value if isinstance(value, HilbertSeries) else HilbertSeries(value)

    def __add__(self, other: "HilbertSeries | Scalar") -> "HilbertSeries":
        if not isinstance(other, (HilbertSeries, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return HilbertSeries._of(*_add(
            self._numerator._terms, self._denominator_degrees, other._numerator._terms, other._denominator_degrees
        ))

    __radd__ = __add__

    def __mul__(self, other: "HilbertSeries | Scalar") -> "HilbertSeries":
        if isinstance(other, (int, Fraction)):
            if not other:
                return HilbertSeries(0)
            # 1 - t^d divides c*N, c != 0, only if it divides N: the shape stays canonical.
            return HilbertSeries._of(self._numerator.scale(other)._terms, self._denominator_degrees)
        if not isinstance(other, HilbertSeries):
            return NotImplemented
        return HilbertSeries(self._numerator * other._numerator, self._denominator_degrees + other._denominator_degrees)

    __rmul__ = __mul__

    def substitute_inverse(self) -> "HilbertSeries":
        """The exact rational function obtained by substituting t -> 1/t.

        Each factor 1 - t^{-d} is rewritten as -t^{-d}(1 - t^d), and the
        resulting sign and monomial are absorbed into the numerator, so the
        result is again in canonical shape.
        """
        sign = -1 if len(self._denominator_degrees) % 2 else 1
        total = sum(self._denominator_degrees)
        return HilbertSeries._of({total - e: sign * c for e, c in self._numerator._terms.items()},
                                 self._denominator_degrees)

    def substitute_negative(self) -> "HilbertSeries":
        """The exact rational function obtained by substituting t -> -t.

        Useful for parity checks: a series is supported in even degrees
        exactly when it is fixed by this substitution.
        """
        # 1/(1 + t^d) = (1 - t^d)/(1 - t^{2d}) for each odd d
        degrees = self._denominator_degrees
        terms = {e: -c if e % 2 else c for e, c in self._numerator._terms.items()}
        terms = _exact_terms(_lift(terms, [d for d in degrees if d % 2]))
        return HilbertSeries._of(*_reduce(terms, sorted(2 * d if d % 2 else d for d in degrees)))

    # -- comparison and display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (HilbertSeries, int, Fraction)):
            return NotImplemented
        left, right = _over_lcm(self, self._coerce(other))
        return left == right

    __hash__ = None  # semantically equal series may have distinct shapes

    def __repr__(self) -> str:
        return f"HilbertSeries({self._numerator!r}, {self._denominator_degrees!r})"

    def __str__(self) -> str:
        num = str(self._numerator)
        if not self._denominator_degrees:
            return num
        den = "".join(f"(1 - t^{d})" for d in self._denominator_degrees)
        if len(self._numerator) > 1:
            num = f"({num})"
        return f"{num}/{den}"


def _over_lcm(a: HilbertSeries, b: HilbertSeries) -> tuple[Terms, Terms]:
    """The numerators of a and b over the lcm of their denominators, each exact:
    equal series may differ in shape, never here."""
    _, lift_a, lift_b = _lcm(a._denominator_degrees, b._denominator_degrees)
    return _exact_terms(_lift(a._numerator._terms, lift_a)), _exact_terms(_lift(b._numerator._terms, lift_b))


def ratio_as_signed_monomial(a: HilbertSeries, b: HilbertSeries) -> tuple[int, int]:
    """Return (s, k) with a = s * t^k * b as rational functions, s = +-1.

    Raises :class:`NotMonomialRatio` when no such pair exists; for Hilbert
    series of graded rings this signals the failure of Gorenstein symmetry.
    """
    if b.is_zero:
        raise ValueError("ratio against the zero series")
    if a.is_zero:
        raise NotMonomialRatio("zero is not a signed monomial multiple")
    left, right = _over_lcm(a, b)
    k = min(left) - min(right)
    s = -1 if left[min(left)] == -right[min(right)] else 1
    aligned = {e + k: s * c for e, c in right.items()}
    if left != aligned:
        e = min(x for x in left.keys() | aligned.keys() if left.get(x, 0) != aligned.get(x, 0))
        raise NotMonomialRatio(
            f"{a} / {b} is not a signed power of t: over the common denominator, "
            f"t^{e} has coefficient {left.get(e, 0)} in the first numerator "
            f"and {aligned.get(e, 0)} in {'-' if s < 0 else ''}t^{k} times the second"
        )
    return (s, k)
