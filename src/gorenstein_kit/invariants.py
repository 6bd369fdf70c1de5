"""Finite matrix groups acting on graded polynomial generators.

A group is enumerated explicitly (orders here are tiny, so exactness beats
generality) as permutations of the orbit of the standard basis vectors
under its generators: the orbit spans the space, so the action is faithful.
An element is an index.  The closure composes index maps with
``operator.itemgetter`` and records each generator's right-multiplication
table on the indices, with the tree edge that first reached each element;
conjugation by a generator is then two lookups in those tables, and the
class key reads entries off the orbit one at a time over the members still
tied, so no element's matrix is built.  On top of this the module computes
(twisted) Molien series, pseudoreflection counts, invariant degrees by exact
division, the supplement b read off M_det/M, symmetric-power characters,
decompositions against rational character tables, and invariant
polynomials as the common kernel of g - 1 over the generators.

Every class function is read off one class record, built once per group
with the classes: the representatives, their orders and det(1 - s*g on V_d)
per grading block (Stanley, Bull. AMS 1 (1979), section 2) as its integer
coefficients c_0..c_dim, by Newton's identities on traces read off the
representative's permutation.  A Molien class term divides (1 - s^o)^dim by
each block's coefficients with an integer recurrence, the det weight is the
product of the blocks' (-1)^dim c_dim, a pseudoreflection is a class of
order 2 and trace n - 2, and the symmetric-power characters divide by the
blocks in turn.  Decomposition needs a rational, hence integer, character
table.  The group is an immutable slotted record; character tables and the
Molien and Solomon reports are immutable records (named tuples).
"""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple, Sequence

from . import linalg
from .linalg import Matrix, Scalar, exact, quotient
from .series import HilbertSeries, NotMonomialRatio, prod_one_minus, ratio_as_signed_monomial
from .series import Terms, _add, _reduce, _render_terms, _times

DEFAULT_ORDER_CAP = 10_000
DEFAULT_MONOMIAL_BOUND = 5_000


class OrderCapExceeded(RuntimeError):
    """Closure enumeration hit the cap: the group is infinite or too large."""


class NotPolynomial(ArithmeticError):
    """The series is not of the form 1/prod(1 - t^{e_i}) at the given rank."""


class LengthMismatch(ValueError):
    pass


class NonIntegralMultiplicity(ArithmeticError):
    """Decomposition produced a non-(nonnegative-integer) multiplicity.

    Signals a character table inconsistent with the representation, e.g. a
    group whose decomposition would need irrational characters.
    """


class MonomialBoundExceeded(RuntimeError):
    pass


class NoBuiltinCharacterTable(LookupError):
    """No built-in rational character table for this group."""


class UnknownCharacter(LookupError):
    """A character table has no irreducible of the requested name."""


def _block_slices(blocks: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    out = []
    start = 0
    for degree, dim in blocks:
        out.append((degree, start, start + dim))
        start += dim
    return out


class GradedGroupRep:
    """An enumerated finite group of graded, invertible rational matrices.

    ``blocks`` lists (degree, dimension) pairs partitioning the generator
    set; every element is block-diagonal with respect to that partition.
    ``orbit`` is the orbit of the standard basis vectors, basis vectors
    first.  Element i, for i in ``range(order)``, is the permutation
    ``permutations[i]`` of the orbit (the identity first): it sends
    ``orbit[k]`` to ``orbit[permutations[i][k]]``, so column j of its
    matrix is ``orbit[permutations[i][j]]``; no element's matrix is built.
    ``right_tables[h][i]`` is the index of element i times generator h, and
    ``tree_edges[j - 1]`` is the (i, h) with j = i * h by which the closure
    first reached element j >= 1.
    An immutable record: equality, hash and repr read only the name,
    blocks, generators and order.
    """

    __slots__ = (
        "name", "blocks", "generators", "order", "orbit", "permutations", "right_tables", "tree_edges",
        # (classes, representatives, their orders, per class and block V_d the
        # coefficients c_0..c_dim of det(1 - s*g on V_d)), filled in by conjugacy_classes.
        "_classes",
    )

    def __init__(self, name, blocks, generators, order, orbit, permutations, right_tables, tree_edges):
        values = (name, blocks, generators, order, orbit, permutations, right_tables, tree_edges, None)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies and pickles are rebuilt without the cache
        return GradedGroupRep, tuple(getattr(self, slot) for slot in self.__slots__[:-1])

    def _key(self) -> tuple:
        return self.name, self.blocks, self.generators, self.order

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if type(other) is GradedGroupRep else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "GradedGroupRep(name={!r}, blocks={!r}, generators={!r}, order={!r})".format(*self._key())

    @property
    def dimension(self) -> int:
        return sum(dim for _, dim in self.blocks)

    @property
    def graded_degrees(self) -> tuple[int, ...]:
        """Degree of each matrix coordinate: block degrees with multiplicity."""
        return tuple(degree for degree, dim in self.blocks for _ in range(dim))

    def block_slices(self) -> list[tuple[int, int, int]]:
        """(degree, start, stop) coordinate ranges of the diagonal blocks."""
        return _block_slices(self.blocks)

    def element_order(self, i: int) -> int:
        """Order of element i: the lcm of its permutation's cycle lengths."""
        perm, order, seen = self.permutations[i], 1, set()
        for k in range(len(perm)):
            length = 0
            while k not in seen:
                seen.add(k)
                k, length = perm[k], length + 1
            order = math.lcm(order, length or 1)
        return order


def _is_block_diagonal(m: Matrix, slices: list[tuple[int, int, int]]) -> bool:
    return all(
        not any(row[:start]) and not any(row[stop:]) for _, start, stop in slices for row in m[start:stop]
    )


def _checked_generators(
    generators: Sequence[Sequence[Sequence[Scalar]]],
    blocks: Sequence[tuple[int, int]],
) -> tuple[Matrix, ...]:
    """The generators as exact matrices, each checked to be square of the
    blocks' total size, block-diagonal for them and nonsingular; nothing is
    enumerated."""
    n = sum(dim for _, dim in blocks)
    slices = _block_slices(blocks)
    gens = tuple(linalg.freeze(g) for g in generators)
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError(f"generator is not {n}x{n}")
        if not _is_block_diagonal(g, slices):
            raise ValueError("generator is not block-diagonal for the given grading")
        if linalg.rank(g) < n:
            raise ValueError("generator is singular")
    return gens


def generate_group(
    generators: Sequence[Sequence[Sequence[Scalar]]],
    blocks: Sequence[tuple[int, int]],
    cap: int = DEFAULT_ORDER_CAP,
    name: str = "",
) -> GradedGroupRep:
    """Breadth-first closure of the generators, as permutations of the orbit
    of the standard basis vectors.

    Raises :class:`OrderCapExceeded` when the closure grows past ``cap``, or
    the orbit past n*cap vectors (each basis vector's orbit has at most |G|
    of them, and an infinite group has an infinite orbit).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    blocks = tuple((operator.index(d), operator.index(m)) for d, m in blocks)
    for degree, dim in blocks:
        if degree < 1 or dim < 1:
            raise ValueError(f"bad block ({degree}, {dim}): degree and dimension must be >= 1")
    gens = _checked_generators(generators, blocks)
    n = sum(dim for _, dim in blocks)
    too_large = OrderCapExceeded(f"group closure exceeds the cap of {cap} elements")
    orbit = list(linalg.identity(n))
    position = {v: k for k, v in enumerate(orbit)}
    images: list[list[int]] = [[] for _ in gens]
    columns = [tuple(zip(*g)) for g in gens]
    for v in orbit:  # breadth first: the loop visits the appended vectors too
        (j, x), *rest = [(j, x) for j, x in enumerate(v) if x]
        for g_columns, image in zip(columns, images):
            # g.v is the sum of v_j * (column j of g) over v's nonzero entries.
            w = [x * a for a in g_columns[j]]
            for k, y in rest:
                w = [c + y * a for c, a in zip(w, g_columns[k])]
            w = tuple([c if type(c) is int else exact(c) for c in w])
            if w not in position:
                if len(orbit) >= n * cap:
                    raise too_large
                position[w] = len(orbit)
                orbit.append(w)
            image.append(position[w])
    gen_perms = tuple(tuple(image) for image in images)
    perms = [tuple(range(len(orbit)))]
    index = {perms[0]: 0}
    # m*g sends k to m[g[k]]: itemgetter(*g)(m), a tuple unless the orbit is one
    # fixed vector, on which every generator is the identity and tuple(m) is m.
    composers = [operator.itemgetter(*g) for g in gen_perms] if len(orbit) > 1 else [tuple] * len(gens)
    # products[i*k + h] is the index of element i times generator h, of k; the
    # product at position first[j - 1] is the one that first reached element j.
    products: list[int] = []
    first: list[int] = []
    size = 1
    for m in perms:  # breadth first, as for the orbit
        for compose in composers:
            prod = compose(m)
            j = index.setdefault(prod, size)
            if j == size:
                if size >= cap:
                    raise too_large
                perms.append(prod)
                first.append(len(products))
                size += 1
            products.append(j)
    k = len(composers)
    return GradedGroupRep(
        name=name,
        blocks=blocks,
        generators=gens,
        order=len(perms),
        orbit=tuple(orbit),
        permutations=tuple(perms),
        right_tables=tuple(tuple(products[h::k]) for h in range(k)),
        tree_edges=tuple(divmod(p, k) for p in first),
    )


def conjugacy_classes(group: GradedGroupRep) -> tuple[tuple[int, ...], ...]:
    """Partition of element indices into conjugacy classes, canonically ordered.

    Classes are sorted by (order of representative, class size, entries of
    the lexicographically least member); the identity class comes first.
    Character tables and symmetric-power characters index classes in this
    order.  The whole :func:`_class_record` is built here, once per group.
    """
    if group._classes is not None:
        return group._classes[0]
    # The class of x is its orbit under x -> g^-1 x g for the generators g, of
    # which every conjugation is a composite: an index map, x * g looked up in
    # g's right table, then g^-1 times that.  Left multiplication by g^-1
    # commutes with every right multiplication, so it follows the closure's
    # tree from g^-1, the index that g sends to the identity.
    order, right = group.order, group.right_tables
    conjugations = []
    for table in right:
        left = [table.index(0)] * order  # left[j] = g^-1 * j: g^-1 at j = 0,
        for j, (i, h) in enumerate(group.tree_edges, 1):
            left[j] = right[h][left[i]]  # then g^-1 * (i * h) = (g^-1 * i) * h
        conjugations.append([left[k] for k in table])
    perms, n, rows = group.permutations, group.dimension, tuple(zip(*group.orbit))
    # Entry (r, c) of j's matrix is orbit[perm_j[c]][r] = rows[r][perm_j[c]]; distinct elements differ.
    entry_order = [(row, c) for row in rows for c in range(n)]
    assigned = [False] * order
    keyed = []
    for i in range(order):
        if assigned[i]:
            continue
        assigned[i], members = True, [i]
        for x in members:  # the loop visits the appended members too
            for conjugate in conjugations:
                y = conjugate[x]
                if not assigned[y]:
                    assigned[y] = True
                    members.append(y)
        # The least member is found one entry at a time, row-major, over the members still tied.
        cls = tied = tuple(sorted(members))
        for row, c in entry_order:
            if len(tied) == 1:
                break
            values = [row[perms[j][c]] for j in tied]
            least = min(values)
            if values.count(least) < len(tied):  # else every member stays tied
                tied = [j for j, v in zip(tied, values) if v == least]
        rep = tied[0]
        entries = tuple([row[k] for row in rows for k in perms[rep][:n]])
        keyed.append(((group.element_order(rep), len(members), entries), rep, cls))
    keyed.sort()
    slices = group.block_slices()
    per_class = [(cls, rep, key[0], _block_factors(group.orbit, perms[rep], slices)) for key, rep, cls in keyed]
    object.__setattr__(group, "_classes", tuple(zip(*per_class)))
    return group._classes[0]


def _block_factors(orbit: Sequence[tuple], perm: Sequence[int], slices) -> tuple[tuple[int, ...], ...]:
    """det(1 - s*g on V_d) per block V_d as its coefficients c_0..c_dim, by
    Newton's identities on the power sums tr(g^i on V_d), i = 1..dim V_d.
    g^i sends e_j to orbit[perm^i[j]], perm g's permutation, so the trace is
    the sum over the block's j of that vector's j-th entry: no matrix is built."""
    factors = []
    for _, start, stop in slices:
        images, traces = range(start, stop), []
        for _ in range(start, stop):
            images = [perm[k] for k in images]
            traces.append(exact(sum(orbit[k][j] for j, k in enumerate(images, start))))
        factors.append(tuple(linalg.det_one_minus_from_traces(traces)))
    return tuple(factors)


def _class_record(group: GradedGroupRep) -> tuple:
    """(classes, representatives, their orders, each one's :func:`_block_factors`),
    in canonical class order, built once per group by :func:`conjugacy_classes`."""
    conjugacy_classes(group)
    return group._classes


def class_representatives(group: GradedGroupRep) -> tuple[int, ...]:
    """Index of each class's member with the least matrix entries."""
    return _class_record(group)[1]


class RationalCharacterTable(NamedTuple):
    """Rational, hence integer, characters, one value per canonical class."""

    class_sizes: tuple[int, ...]
    irreducibles: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.irreducibles)

    def row(self, name: str) -> tuple[int, ...]:
        for row_name, values in self.irreducibles:
            if row_name == name:
                return values
        raise UnknownCharacter(
            f"no character named {name!r} in the table; its characters are {', '.join(self.names)}"
        )

    @property
    def group_order(self) -> int:
        return sum(self.class_sizes)


def character_table(
    group: GradedGroupRep,
    irreducibles: Sequence[tuple[str, Sequence[Scalar]]],
) -> RationalCharacterTable:
    """Build and validate a character table against an enumerated group.

    Rows must be integer-valued class functions (a rational character value
    is an algebraic integer) in the canonical class order satisfying the
    orthonormality relations, one per class, with sum chi(1)^2 = |G|;
    anything else is rejected, since decomposition against such a table
    would be silently wrong.
    """
    classes = conjugacy_classes(group)
    sizes = tuple(len(c) for c in classes)
    rows = []
    names = set()
    for name, values in irreducibles:
        values = tuple(map(exact, values))
        if len(values) != len(classes):
            raise ValueError(f"character {name!r} has {len(values)} values for {len(classes)} classes")
        if name in names:
            raise ValueError(f"duplicate character name {name!r}")
        names.add(name)
        for k, v in enumerate(values):
            if type(v) is not int:
                raise ValueError(f"character {name!r} has the non-integral value {v} on class {k}")
        rows.append((str(name), values))
    # The form is symmetric, so the pairs i <= j suffice; the first failing pair
    # in (i, j) order has i <= j, as its mirror image comes later.
    for i, (name_i, chi_i) in enumerate(rows):
        weighted = [s * a for s, a in zip(sizes, chi_i)]
        for j, (name_j, chi_j) in enumerate(rows[i:], i):
            inner = sum(map(operator.mul, weighted, chi_j))
            if inner != (group.order if i == j else 0):
                raise ValueError(
                    f"characters {name_i!r}, {name_j!r} fail orthogonality: "
                    f"<,> = {quotient(inner, group.order)}"
                )
    # The identity class comes first, so chi[0] is the degree chi(1).
    degrees_squared = sum(chi[0] ** 2 for _, chi in rows)
    if len(rows) != len(classes) or degrees_squared != group.order:
        raise ValueError(
            f"incomplete character table: {len(rows)} irreducibles for {len(classes)} "
            f"classes, sum of chi(1)^2 = {degrees_squared} for a group of order {group.order}"
        )
    return RationalCharacterTable(class_sizes=sizes, irreducibles=tuple(rows))


def builtin_character_table(group: GradedGroupRep) -> RationalCharacterTable:
    """Built-in tables for the group shapes the bundled fixtures use.

    Covers the trivial group, the two-element group, the Klein four-group,
    and the nonabelian group of order six.  Raises
    :class:`NoBuiltinCharacterTable` otherwise; such groups need a
    user-supplied table (and have one only when all irreducible characters
    are rational).
    """
    classes, _, orders, _ = _class_record(group)
    if group.order == 1:
        rows = [("triv", (1,))]
    elif group.order == 2:
        rows = [("triv", (1, 1)), ("sign", (1, -1))]
    elif group.order == 4 and max(orders) <= 2:
        rows = [("triv", (1,) * 4)] + [
            (f"chi{k}", tuple(1 if c in (0, k) else -1 for c in range(4))) for k in range(1, 4)
        ]
    elif group.order == 6 and len(classes) == 3:
        rows = [("triv", (1, 1, 1)), ("sign", (1, -1, 1)), ("std", (2, 0, -1))]
    else:
        raise NoBuiltinCharacterTable(
            f"no built-in rational character table for a group of order {group.order}"
        )
    return character_table(group, rows)


# -- Molien series ------------------------------------------------------------


class MolienReport(NamedTuple):
    """A (possibly twisted) Molien series with its structural diagnostics.

    ``polynomial_degrees`` is populated exactly when the series is the
    series of a polynomial ring on ``dimension`` generators, in which case
    it lists their degrees; ``pseudoreflection_count`` counts non-identity
    elements fixing a hyperplane of the whole graded vector space.
    """

    series: HilbertSeries
    twist: str
    polynomial_degrees: tuple[int, ...] | None
    pseudoreflection_count: int


def _over_det(full: list[int], c: list[Scalar]) -> list[Scalar]:
    """The first len(full) power-series coefficients of full / (1 + c_1 s +
    ... + c_k s^k), c listing c_k .. c_1: q_j = full_j - sum_i c_i q_{j-i}."""
    k = len(c)
    q = [0] * k + full  # q_j at q[k + j], after k zeros
    for j in range(k, len(q)):
        q[j] -= sum(map(operator.mul, c, q[j - k : j]))
    return q[k:]


def _element_term(
    blocks: Sequence[tuple[int, int]], order: int, factors: Sequence[Sequence[int]]
) -> tuple[Terms, tuple]:
    """1 / prod_blocks det(1 - m t^d on V_d) for an element m of the given order,
    as canonical kernel (terms, degrees), from the coefficients c_0..c_dim of its
    block factors det(1 - s*m on V_d).  Each divides (1 - s^order)^dim: :func:`_over_det`
    gives the quotient up to s^{order*dim}, exact when its last dim coefficients
    vanish (then all later do)."""
    numerator: dict[int, Scalar] = {0: 1}
    dens: list[int] = []
    for (degree, dim), factor in zip(blocks, factors):
        full = [0] * (order * dim + 1)
        full[::order] = [(-1) ** i * math.comb(dim, i) for i in range(dim + 1)]
        q = _over_det(full, factor[:0:-1])
        if any(q[-dim:]):
            raise ArithmeticError("characteristic factor failed to divide cyclotomic power")
        numerator = _times(numerator, {j * degree: x for j, x in enumerate(q[:-dim]) if x})
        dens.extend([degree * order] * dim)
    return _reduce(numerator, sorted(dens))


def _molien_sums(
    group: GradedGroupRep, twists: Sequence[str], table: RationalCharacterTable | None = None
) -> list[HilbertSeries]:
    """The Molien series twisted by each of ``twists``, in one pass over the
    classes: each class term is built once, classes are added in canonical
    order, and zero weights are skipped.  Totals are series-kernel (terms,
    degrees) pairs, each weight chi(g)*|C| folded into the term's lift."""
    classes, _, orders, factors = _class_record(group)
    weightings = []
    for twist in twists:
        if twist == "trivial":
            weightings.append([1] * len(classes))
        elif twist == "det":  # det(1 - s*g on V_d) has top coefficient (-1)^dim det(g on V_d)
            weightings.append([math.prod((-1) ** (len(f) - 1) * f[-1] for f in fs) for fs in factors])
        elif table is None:
            raise ValueError(f"twist {twist!r} needs a character table")
        else:
            weightings.append(table.row(twist))
    totals = [({}, ())] * len(twists)
    for k, (cls, order, fs) in enumerate(zip(classes, orders, factors)):
        weights = [w[k] for w in weightings]
        if any(weights):
            term = _element_term(group.blocks, order, fs)
            totals = [_add(*t, *term, w * len(cls)) if w else t for t, w in zip(totals, weights)]
    return [HilbertSeries._of(*t) * quotient(1, group.order) for t in totals]


def pseudoreflection_count(group: GradedGroupRep) -> int:
    """Number of elements g with rank(g - 1) = 1, counted class by class.

    g has finite order, so it is diagonalizable and rank(g - 1) = 1 means
    n - 1 eigenvalues 1 and one rational root of unity other than 1, i.e. -1:
    exactly when g has order 2 and trace n - 2.  The trace is minus the sum
    of the blocks' c_1.
    """
    classes, _, orders, factors = _class_record(group)
    n = group.dimension
    return sum(len(c) for c, o, fs in zip(classes, orders, factors) if o == 2 and -sum(f[1] for f in fs) == n - 2)


def molien_series(
    group: GradedGroupRep,
    twist: str = "trivial",
    table: RationalCharacterTable | None = None,
) -> MolienReport:
    """Exact (twisted) Molien series of the group action.

    The average over G of 1/prod_d det(1 - g^{-1} t^d on V_d), weighted by
    det g for ``twist="det"`` and by the table's character of that name for
    a named twist.  Terms and weights are class functions, so the sum runs
    over the classes, one term per class, and g stands in for g^{-1}: a
    rational matrix of finite order has its inverse's characteristic polynomial.
    """
    (series,) = _molien_sums(group, [twist], table)
    return MolienReport(
        series=series,
        twist=twist,
        polynomial_degrees=_polynomial_degrees(series, group.dimension),
        pseudoreflection_count=pseudoreflection_count(group),
    )


def _polynomial_degrees(series: HilbertSeries, rank: int) -> tuple[int, ...] | None:
    """:func:`extract_polynomial_degrees`, or None where it refuses."""
    try:
        return extract_polynomial_degrees(series, rank)
    except NotPolynomial:
        return None


def extract_polynomial_degrees(series: HilbertSeries, rank: int) -> tuple[int, ...]:
    """Degrees e_1 <= ... <= e_rank with series = 1/prod(1 - t^{e_i}), if they exist.

    Exact division, no coefficient window: the series N/D, D a product of
    factors 1 - t^d, has that form exactly when D/N = prod(1 - t^{e_i}).
    That product's least positive term is -m*t^e, e the least degree, so e
    is read off it and 1 - t^e divided away, rank times, leaving 1.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    num = series.numerator
    rest = None if num.is_zero else prod_one_minus(series.denominator_degrees).divide_exact(num)
    degrees: list[int] = []
    while rest is not None and len(degrees) < rank:
        e = next((k for k, _ in rest.terms() if k > 0), 0)
        if rest.coefficient(0) != 1 or rest.coefficient(e) >= 0:  # e = 0: no positive term
            break
        if (divided := rest.over_one_minus(e)) is None:
            break
        degrees.append(e)
        rest = divided
    if rest != 1 or len(degrees) < rank:
        why = (
            "its numerator does not divide its denominator" if rest is None
            else f"dividing its denominator by its numerator and 1 - t^e for e in {degrees} leaves {rest}"
        )
        raise NotPolynomial(f"{series} is not 1/prod(1 - t^e) over {rank} degrees: {why}")
    return tuple(degrees)


def solomon_supplement(generator_degrees: Sequence[int], invariant_degrees: Sequence[int]) -> int:
    """Shift relating determinant-twisted invariants to invariants:
    sum of generator degrees minus sum of invariant degrees."""
    if len(generator_degrees) != len(invariant_degrees):
        raise LengthMismatch(
            f"{len(generator_degrees)} generator degrees vs "
            f"{len(invariant_degrees)} invariant degrees"
        )
    return sum(generator_degrees) - sum(invariant_degrees)


class SolomonVerification(NamedTuple):
    """Outcome of checking twisted = t^{-b} * untwisted as rational functions;
    ``invariant_degrees`` is None when the invariants are not polynomial."""

    verified: bool
    supplement: int
    invariant_degrees: tuple[int, ...] | None
    invariant_series: HilbertSeries
    det_twisted_series: HilbertSeries

    def witness(self) -> str:
        """Why the identity fails, empty when it holds: the first exponent
        at which the two series differ over a common denominator, or the
        signed power of t found in place of t^{-b}."""
        if self.verified:
            return ""
        try:
            sign, k = ratio_as_signed_monomial(self.det_twisted_series, self.invariant_series)
        except NotMonomialRatio as exc:
            return str(exc)
        return (
            f"the det-twisted series is {'-' if sign < 0 else ''}t^{k} times the untwisted one,"
            f" not t^{-self.supplement}"
        )


def verify_solomon(group: GradedGroupRep) -> SolomonVerification:
    """Read the supplement b off M_det/M, the det-twisted over the untwisted
    Molien series, both from one pass over the classes.

    By reciprocity (Stanley, Bull. AMS 1 (1979), section 4) and Stanley's
    criterion (Adv. Math. 28 (1978), Thm 4.4), M_det/M is some +t^k exactly
    when R^G is Gorenstein.  With invariant degrees e_i, b = sum d - sum e,
    verified when M_det/M = t^{-b}; without them b = -k, and a ratio that is
    no signed power of t raises :class:`NotMonomialRatio`.
    """
    trivial, twisted = _molien_sums(group, ["trivial", "det"])
    degrees = _polynomial_degrees(trivial, group.dimension)
    try:
        ratio = ratio_as_signed_monomial(twisted, trivial)
    except NotMonomialRatio:
        if degrees is None:
            raise
        ratio = None
    b = -ratio[1] if degrees is None else solomon_supplement(group.graded_degrees, degrees)
    return SolomonVerification(
        verified=ratio == (1, -b),
        supplement=b,
        invariant_degrees=degrees,
        invariant_series=trivial,
        det_twisted_series=twisted,
    )


# -- symmetric powers and decomposition ---------------------------------------


def sym_power_characters(group: GradedGroupRep, top: int) -> list[tuple[int, ...]]:
    """Characters of Sym^0 .. Sym^top of the underlying (ungraded)
    representation, each with one value per canonical conjugacy class.

    Computed from the generating identity sum_n chi_{Sym^n}(g) s^n =
    1/det(1 - g s), per class one recurrence dividing by each block factor in
    turn, on integers: for g rational of finite order each det(1 - g s on
    V_d) is a product of cyclotomics.
    """
    if top < 0:
        raise ValueError("symmetric power index must be >= 0")
    columns = []
    for fs in _class_record(group)[3]:
        column = [1] + [0] * top
        for c in fs:
            if any(type(x) is not int for x in c):
                raise ArithmeticError(f"det(1 - s*g on a block) has non-integral coefficients {list(c)}")
            column = _over_det(column, c[:0:-1])
        columns.append(column)
    return list(zip(*columns))


def sym_power_character(group: GradedGroupRep, n: int) -> tuple[int, ...]:
    """Character of Sym^n, one value per class; see :func:`sym_power_characters`."""
    return sym_power_characters(group, n)[n]


def decompose(values: Sequence[Scalar], table: RationalCharacterTable) -> tuple[int, ...]:
    """Multiplicities of the table's characters in a class function.

    Every multiplicity must come out a nonnegative integer; anything else
    raises :class:`NonIntegralMultiplicity`, the sign of a table that cannot
    see the representation (e.g. irrational characters would be needed).
    """
    values = tuple(map(exact, values))
    if len(values) != len(table.class_sizes):
        raise LengthMismatch(f"{len(values)} values for {len(table.class_sizes)} classes")
    # The inner products run on integers: scale the values by the lcm L of
    # their denominators and divide by L*|G| once per irreducible.
    scale = math.lcm(*(v.denominator for v in values))
    weighted = [s * v.numerator * (scale // v.denominator) for s, v in zip(table.class_sizes, values)]
    divisor = table.group_order * scale
    mults = []
    for name, chi in table.irreducibles:
        inner = sum(a * b for a, b in zip(chi, weighted))
        mult, rest = divmod(inner, divisor)
        if rest or mult < 0:
            raise NonIntegralMultiplicity(
                f"multiplicity of {name!r} is {quotient(inner, divisor)}, "
                "not a nonnegative integer"
            )
        mults.append(mult)
    return tuple(mults)


# -- explicit invariants from the generators ----------------------------------

Polynomial = dict[tuple[int, ...], Scalar]


def _poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    out: Polynomial = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(operator.add, ea, eb))
            out[e] = out[e] + ca * cb if e in out else ca * cb
    return {e: c if type(c) is int else exact(c) for e, c in out.items() if c}


def _poly_pow(p: Polynomial, k: int) -> Polynomial:
    """p^k for k >= 1, by repeated squaring; p itself, no product, for k = 1."""
    result = None
    while True:
        if k & 1:
            result = p if result is None else _poly_mul(result, p)
        k >>= 1
        if not k:
            return result
        p = _poly_mul(p, p)


def _monomial_images(m: Matrix, monomials: Sequence[tuple[int, ...]]) -> Iterator[Polynomial]:
    """Image of each monomial prod x_j^{e_j} under x_j -> sum_i m[i][j] x_i,
    as a product of those linear forms' powers, kept only where a monomial uses one."""
    nvars = len(m)
    one: Polynomial = {(0,) * nvars: 1}
    powers = []
    for j in range(nvars):
        linear = {
            tuple(int(k == i) for k in range(nvars)): m[i][j] for i in range(nvars) if m[i][j]
        }
        # From one used exponent to the next, times linear^gap.
        power, previous, cached = one, 0, {}
        for k in sorted({e[j] for e in monomials} - {0}):
            power = _poly_mul(power, _poly_pow(linear, k - previous))
            previous, cached[k] = k, power
        powers.append(cached)
    for exponents in monomials:
        image = one
        for cached, e in zip(powers, exponents):
            if e:
                image = _poly_mul(image, cached[e])
        yield image


def monomials_of_degree(var_degrees: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """Exponent vectors with sum(e_i * var_degrees[i]) = total, ascending
    lexicographically: one odometer over the exponents of all variables but
    the last, kept in place, and the last exponent where it divides the rest."""
    if total < 0:
        return []
    *head, last = var_degrees
    e, out, rest = [0] * len(head), [], total
    while True:
        if rest % last == 0:
            out.append((*e, rest // last))
        i = len(head) - 1  # raise the last exponent that fits, zeroing those after it
        while i >= 0 and rest < head[i]:
            rest, e[i], i = rest + e[i] * head[i], 0, i - 1
        if i < 0:
            return out
        e[i], rest = e[i] + 1, rest - head[i]


def _monomial_maps(group: GradedGroupRep) -> list[tuple[list[int], list[tuple[int, Scalar]]]] | None:
    """Per generator sending each x_j to c*x_i, read off its matrix, whose
    entry (i, j) is that c: the j sent to each x_i, and the (j, c) with
    c != 1; None for any other group."""
    n, maps = group.dimension, []
    for g in group.generators:
        targets = [(i, j, c) for i, row in enumerate(g) for j, c in enumerate(row) if c]
        if len(targets) != n:  # g is nonsingular: n nonzero entries means one per row and column
            return None
        maps.append(([j for _, j, _ in targets], [(j, c) for _, j, c in targets if c != 1]))
    return maps


def _orbit_sums(
    maps: list[tuple[list[int], list[tuple[int, Scalar]]]], columns: list[tuple[int, ...]]
) -> list[Polynomial]:
    """Orbit sums, one per orbit that no path reaches with two values: 1 at
    its highest column, value(g.m) = value(m) * c.  The orbits are disjoint,
    so listed highest column first they are already in reduced echelon form."""
    col_index = {e: k for k, e in enumerate(columns)}
    value: dict[int, Scalar] = {}
    basis = []
    for start in reversed(range(len(columns))):
        if start in value:
            continue
        value[start], orbit, consistent = 1, [start], True
        for k in orbit:  # breadth first: the loop visits the appended columns too
            m = columns[k]
            for source, scaled in maps:
                c = value[k]
                for j, a in scaled:
                    if m[j]:
                        c *= a ** m[j]
                target = col_index[tuple([m[j] for j in source])]
                c = c if type(c) is int else exact(c)
                if target not in value:
                    value[target] = c
                    orbit.append(target)
                elif value[target] != c:
                    consistent = False
        if consistent:
            basis.append({columns[k]: value[k] for k in orbit})
    return basis


def invariant_basis(
    group: GradedGroupRep,
    total_degree: int,
    monomial_bound: int = DEFAULT_MONOMIAL_BOUND,
) -> list[Polynomial]:
    """Exact basis of the invariant polynomials of one topological degree.

    The invariants are the common kernel of g - 1 over the generators g on
    the monomials of the degree (Derksen-Kemper, *Computational Invariant
    Theory*, ch. 3), returned as the reduced row echelon form of that
    kernel with the monomials descending, which is unique; their number
    equals the Molien coefficient.  For a monomial group, whose generators
    send each variable to one scaled variable, the kernel is spanned by the
    orbit sums of the monomials (Stanley, Bull. AMS 1 (1979), section 2),
    read off one breadth-first walk per orbit.  Any other group builds each
    monomial's image under g from cached powers of g's linear forms into
    sparse rows of g - 1, and the rows of all generators go through one
    sparse elimination over the monomials ascending, whose pivot rows give
    the echelon form directly.  The monomial count, read from
    1/prod(1 - t^{d_i}), is checked against ``monomial_bound`` before any
    monomial is enumerated.  Polynomials are exponent dictionaries over the
    graded variables, one slot per matrix coordinate.
    """
    var_degrees = group.graded_degrees
    count = HilbertSeries(1, var_degrees).coefficient(total_degree)
    if count > monomial_bound:
        raise MonomialBoundExceeded(
            f"{count} monomials at degree {total_degree} (bound {monomial_bound})"
        )
    if not count:
        return []
    columns = monomials_of_degree(var_degrees, total_degree)
    maps = _monomial_maps(group)
    if maps is not None:
        return _orbit_sums(maps, columns)
    col_index = {e: i for i, e in enumerate(columns)}
    rows: list[dict[int, Scalar]] = []
    for g in group.generators:
        # Row e of g - 1: coefficient of monomial e in g.m_j - m_j, over j.
        g_rows: list[dict[int, Scalar]] = [{} for _ in columns]
        for j, image in enumerate(_monomial_images(g, columns)):
            for e, c in image.items():
                g_rows[col_index[e]][j] = c
            diagonal = g_rows[j].pop(j, 0) - 1
            if diagonal:
                g_rows[j][j] = diagonal
        rows += filter(None, g_rows)
    # One kernel vector per free column j: 1 there, minus column j of each
    # pivot row at that row's pivot, which is its least column, so below j.
    # No other vector is nonzero at j: listed by j descending, the vectors
    # are already in reduced row echelon form.
    pivot_rows = {min(row): row for row in linalg.rref(rows)}
    kernel = {j: {columns[j]: 1} for j in reversed(range(len(columns))) if j not in pivot_rows}
    for pivot, row in pivot_rows.items():
        for j, c in row.items():
            if j != pivot:
                kernel[j][columns[pivot]] = -c
    return list(kernel.values())


def format_polynomial(
    poly: Polynomial | Sequence[tuple[tuple[int, ...], Scalar]], symbols: Sequence[str]
) -> str:
    """Human-readable rendering like ``x^2 + x*y + y^2``, highest monomial
    first; a sequence of (exponents, coefficient) terms is taken in its order."""
    terms = sorted(poly.items(), reverse=True) if isinstance(poly, dict) else poly
    return _render_terms(
        (
            coeff,
            "*".join(sym if e == 1 else f"{sym}^{e}" for sym, e in zip(symbols, exponents) if e),
        )
        for exponents, coeff in terms
    )
