"""Group enumeration against the matrix closure and sympy, Molien series,
Solomon verification, symmetric powers against the per-n recurrence, and
explicit invariants against the averaging-operator (Reynolds) oracle."""

import copy
import operator
import pickle
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import pytest
from conftest import element_matrix, in_exact_form, shifted, signed_permutation_group
from hypothesis import given, settings, strategies as st

from gorenstein_kit import invariants, linalg
from gorenstein_kit.dataset import GROUP_FIXTURES, load_group_fixture
from gorenstein_kit.descent import descent_report
from gorenstein_kit.graded_ring import (
    NotGorensteinSeries,
    gorenstein_shift_formula,
    gorenstein_shift_stanley,
    polynomial_presentation,
)
from gorenstein_kit.invariants import (
    GradedGroupRep,
    LengthMismatch,
    MonomialBoundExceeded,
    NoBuiltinCharacterTable,
    NonIntegralMultiplicity,
    NotPolynomial,
    OrderCapExceeded,
    UnknownCharacter,
    builtin_character_table,
    character_table,
    class_representatives,
    conjugacy_classes,
    decompose,
    extract_polynomial_degrees,
    format_polynomial,
    generate_group,
    invariant_basis,
    molien_series,
    monomials_of_degree,
    pseudoreflection_count,
    solomon_supplement,
    sym_power_character,
    sym_power_characters,
    verify_solomon,
)
from gorenstein_kit.series import HilbertSeries, LaurentPolynomial, NotMonomialRatio, prod_one_minus


def c3_group():
    """Rotation subgroup of the standard order-6 action: not a reflection group."""
    return generate_group([[[0, -1], [1, -1]]], [(4, 2)], name="c3")


def trivial_group(blocks=((2, 1),)):
    return generate_group([], blocks, name="trivial")


def matrices(group):
    """Every element's matrix, in element order."""
    return [element_matrix(group, i) for i in range(group.order)]


def generator_permutations(group):
    """Each generator's permutation of the orbit: that of the element the
    identity times the generator, read off the generator's right table."""
    return tuple(group.permutations[table[0]] for table in group.right_tables)


def s4_group():
    """S_4 permuting four degree-2 coordinates, from a transposition and a 4-cycle."""
    return signed_permutation_group(4, signed=False)


def conjugated_s4_group():
    """S_4 conjugated by a non-monomial rational matrix P, so that its orbit
    vectors are not signed basis vectors."""
    p = linalg.freeze(
        [[1, Fraction(1, 2), 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]
    )
    p_inv = linalg.inverse(p)
    generators = [linalg.mat_mul(linalg.mat_mul(p_inv, g), p) for g in s4_group().generators]
    return generate_group(generators, [(2, 4)], name="s4_conjugated")


def mixed_block_group():
    """S_3 through its standard representation on a degree-4 block and its
    sign on a degree-6 block."""
    generators = [[[-1, 1, 0], [0, 1, 0], [0, 0, -1]], [[1, 0, 0], [1, -1, 0], [0, 0, -1]]]
    return generate_group(generators, [(4, 2), (6, 1)], name="mixed")


# -- enumeration ----------------------------------------------------------------


def test_negation_generates_order_two(c2_group):
    assert c2_group.order == 2


def test_empty_generators_give_trivial_group():
    assert trivial_group().order == 1


def test_standard_action_has_order_six(sigma3_group):
    assert sigma3_group.order == 6
    dets = sorted(linalg.determinant(m) for m in matrices(sigma3_group))
    assert dets == [-1, -1, -1, 1, 1, 1]


def test_cap_exceeded_for_infinite_group():
    with pytest.raises(OrderCapExceeded):
        generate_group([[[2]]], [(2, 1)], cap=50)


def test_cap_exceeded_for_unipotent_group():
    # x -> x + y has infinite order; the orbit of e_2 grows by one per step.
    with pytest.raises(OrderCapExceeded):
        generate_group([[[1, 1], [0, 1]]], [(2, 2)], cap=50)


def test_cap_smaller_than_group():
    with pytest.raises(OrderCapExceeded):
        generate_group([[[-1, 1], [0, 1]], [[1, 0], [1, -1]]], [(4, 2)], cap=4)


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_group([[[1, 0]]], [(2, 1)])  # not square of total dimension
    with pytest.raises(ValueError):
        generate_group([[[0]]], [(2, 1)])  # singular
    with pytest.raises(ValueError):
        # off-block entry between two one-dimensional blocks
        generate_group([[[1, 1], [0, 1]]], [(2, 1), (4, 1)])


def test_group_axioms(sigma3_group):
    elements = set(matrices(sigma3_group))
    ident = linalg.identity(2)
    assert ident in elements
    for a in elements:
        assert linalg.inverse(a) in elements
        for b in elements:
            assert linalg.mat_mul(a, b) in elements


def test_class_sizes_divide_order(sigma3_group, all_group_fixtures):
    for group in [sigma3_group, *all_group_fixtures.values()]:
        for cls in conjugacy_classes(group):
            assert group.order % len(cls) == 0


def _matrix_order(m):
    """Reference element order: the least k with m^k = 1."""
    ident, power, k = linalg.identity(len(m)), m, 1
    while power != ident:
        power, k = linalg.mat_mul(power, m), k + 1
    return k


def _matrix_group_core(group):
    """Reference closure, classes and representatives on matrices alone:
    breadth-first products m*g in generator order from the identity, classes
    as orbits under x -> g^-1 x g for the generators g, sorted by (order,
    size, entries of the least member), that member being the representative."""
    ident = linalg.identity(group.dimension)
    elements, seen, frontier = [ident], {ident}, [ident]
    while frontier:
        new = []
        for m in frontier:
            for g in group.generators:
                prod = linalg.mat_mul(m, g)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    new.append(prod)
        frontier = new
    index = {m: i for i, m in enumerate(elements)}
    conjugators = [(linalg.inverse(g), g) for g in group.generators]

    def entries(k):
        return tuple(x for row in elements[k] for x in row)

    assigned, keyed = set(), []
    for i, x in enumerate(elements):
        if i in assigned:
            continue
        members, stack = {i}, [x]
        while stack:
            y = stack.pop()
            for ginv, g in conjugators:
                j = index[linalg.mat_mul(linalg.mat_mul(ginv, y), g)]
                if j not in members:
                    members.add(j)
                    stack.append(elements[j])
        assigned |= members
        rep = min(members, key=entries)
        key = (_matrix_order(elements[rep]), len(members), entries(rep))
        keyed.append((key, rep, tuple(sorted(members))))
    keyed.sort()
    return (
        tuple(elements),
        tuple(cls for _, _, cls in keyed),
        tuple(rep for _, rep, _ in keyed),
    )


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4", "s5", "c3", "s4_conjugated"])
def test_group_core_matches_the_matrix_closure(name):
    builders = {
        "s4": s4_group,
        "s5": lambda: signed_permutation_group(5, signed=False),  # (12)(345) has order 6
        "c3": c3_group,
        "s4_conjugated": conjugated_s4_group,
    }
    group = builders[name]() if name in builders else load_group_fixture(name).build()
    elements, classes, representatives = _matrix_group_core(group)
    assert matrices(group) == list(elements)
    assert group.order == len(elements)
    assert conjugacy_classes(group) == classes
    assert class_representatives(group) == representatives
    position = {v: k for k, v in enumerate(group.orbit)}
    for i, m in enumerate(elements):
        assert group.element_order(i) == _matrix_order(m)
        # column j of element i is the orbit vector its permutation picks
        for j in range(group.dimension):
            assert position[tuple(row[j] for row in m)] == group.permutations[i][j]
    if name == "s4_conjugated":
        assert any(
            sum(1 for x in v if x) > 1 or any(x not in (0, 1, -1) for x in v)
            for v in group.orbit
        )


@pytest.mark.parametrize("family,n", [("S", 4), ("S", 5), ("S", 6), ("B", 3), ("B", 4)])
def test_order_and_class_sizes_match_sympy(family, n):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    signed = family == "B"
    group = signed_permutation_group(n, signed)

    # The same generators on the points e_i (i) and, for B_n, -e_i (i + n).
    def points(p):
        return [*p, *(x + n for x in p)] if signed else p

    generators = [points([1, 0, *range(2, n)]), points([*range(1, n), 0])]
    if signed:
        generators.append([n, *range(1, n), 0, *range(n + 1, 2 * n)])
    reference = combinatorics.PermutationGroup(
        [combinatorics.Permutation(p) for p in generators]
    )
    assert group.order == reference.order()
    assert sorted(len(c) for c in conjugacy_classes(group)) == sorted(
        len(c) for c in reference.conjugacy_classes()
    )
    assert sorted(group.element_order(i) for i in range(group.order)) == sorted(
        p.order() for p in reference.elements
    )


# -- conjugacy classes ------------------------------------------------------------


def test_classes_of_order_two_group(c2_group):
    assert [len(c) for c in conjugacy_classes(c2_group)] == [1, 1]


def test_classes_of_trivial_group():
    assert conjugacy_classes(trivial_group()) == ((0,),)


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4"])
def test_classes_of_standard_action(name):
    group = s4_group() if name == "s4" else load_group_fixture(name).build()
    classes = conjugacy_classes(group)
    expected_sizes = {"sigma3_standard": [1, 3, 2], "s4": [1, 3, 6, 8, 6]}
    if name in expected_sizes:
        assert [len(c) for c in classes] == expected_sizes[name]
    # brute-force cross-check of the partition
    elements = matrices(group)
    index = {m: i for i, m in enumerate(elements)}
    for cls in classes:
        for i in cls:
            x = elements[i]
            orbit = {
                index[linalg.mat_mul(linalg.mat_mul(h, x), linalg.inverse(h))]
                for h in elements
            }
            assert orbit == set(cls)


def test_class_representatives_sorted_by_element_order(sigma3_group):
    reps = class_representatives(sigma3_group)
    orders = [sigma3_group.element_order(i) for i in reps]
    assert orders == [1, 2, 3]


# -- Molien series ------------------------------------------------------------------


def test_molien_of_standard_action(sigma3_group):
    report = molien_series(sigma3_group)
    assert report.series == HilbertSeries(1, [8, 12])
    string = [int(c) for c in report.series.expand(0, 68)][::4]
    assert string == [1, 0, 1, 1, 1, 1, 2, 1, 2, 2, 2, 2, 3, 2, 3, 3, 3, 3]
    assert report.polynomial_degrees == (8, 12)
    assert report.pseudoreflection_count == 3


def test_molien_of_trivial_group_is_whole_ring():
    report = molien_series(trivial_group(((2, 1),)))
    assert report.series == HilbertSeries(1, [2])


def test_molien_of_negation(c2_group):
    report = molien_series(c2_group)
    assert report.series == HilbertSeries(1, [4])
    assert report.polynomial_degrees == (4,)
    assert report.pseudoreflection_count == 1


def test_det_twisted_molien_of_negation(c2_group):
    report = molien_series(c2_group, "det")
    assert report.series == HilbertSeries(LaurentPolynomial({2: 1}), [4])


def test_twisted_molien_coefficients_are_nonnegative_integers(sigma3_group):
    for twist in ("trivial", "det"):
        series = molien_series(sigma3_group, twist).series
        for c in series.expand(0, 60):
            assert c.denominator == 1 and c >= 0


def test_named_twist_counts_isotypic_multiplicities(sigma3_group, sigma3_table):
    report = molien_series(sigma3_group, "std", table=sigma3_table)
    got = [int(c) for c in report.series.expand(0, 20)][::4]
    expected = []
    for n in range(6):
        mults = decompose(sym_power_character(sigma3_group, n), sigma3_table)
        expected.append(mults[2])
    assert got == expected


def test_named_twist_requires_table(sigma3_group):
    with pytest.raises(ValueError):
        molien_series(sigma3_group, "std")


def test_molien_of_rotation_subgroup_is_hypersurface():
    report = molien_series(c3_group())
    expected = HilbertSeries(LaurentPolynomial({0: 1, 12: 1}), [8, 12])
    assert report.series == expected
    assert report.polynomial_degrees is None
    assert report.pseudoreflection_count == 0


def test_molien_of_atkin_lehner_actions(all_group_fixtures):
    alpha = molien_series(all_group_fixtures["taf_d6_alpha"])
    assert alpha.series == HilbertSeries(1, [8, 24, 24])
    beta = molien_series(all_group_fixtures["taf_d6_beta"])
    assert beta.series == HilbertSeries(1, [8, 12, 48])
    both = molien_series(all_group_fixtures["taf_d6_alphabeta"])
    expected = HilbertSeries(LaurentPolynomial({0: 1, 44: 1}), [16, 24, 48])
    assert both.series == expected
    assert both.polynomial_degrees is None


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4", "b3", "c3", "s4_conjugated", "mixed"])
def test_molien_reciprocity(name):
    # A second route to every Molien series: M(1/t) = (-1)^n t^{sum d_i} M_det(t).
    group, _ = _in_test_or_fixture_group(name)
    total_degree = sum(degree * dim for degree, dim in group.blocks)
    predicted = shifted(molien_series(group, "det").series, total_degree) * (-1) ** group.dimension
    assert molien_series(group).series.substitute_inverse() == predicted


def test_pseudoreflection_degree_relation(c2_group, sigma3_group):
    # uniform generator degree d: reflections = sum(e_i/d - 1)
    for group in (c2_group, sigma3_group):
        report = molien_series(group)
        d = group.blocks[0][0]
        assert report.pseudoreflection_count == sum(
            e // d - 1 for e in report.polynomial_degrees
        )


def _molien_by_elements(group, weight):
    """Reference Molien sum: w(g) / prod_d det(1 - g^-1 t^d on V_d) over every
    element g, with each determinant taken over the common denominator
    (1 - t^{d|G|})^dim."""
    total = HilbertSeries(0)
    for m in matrices(group):
        inv = linalg.inverse(m)
        term = HilbertSeries(1)
        for degree, start, stop in group.block_slices():
            block = tuple(tuple(row[start:stop]) for row in inv[start:stop])
            coeffs = linalg.det_one_minus_coefficients(block)
            det = LaurentPolynomial({k * degree: c for k, c in enumerate(coeffs)})
            common = degree * group.order
            full = prod_one_minus([common]) ** (stop - start)
            term = term * HilbertSeries(full.divide_exact(det), [common] * (stop - start))
        total = total + term * weight(m)
    return total * Fraction(1, group.order)


def _in_test_or_fixture_group(name):
    """(group, table or None) for an in-test group or a bundled fixture."""
    builders = {
        "s4": s4_group,
        "s5": lambda: signed_permutation_group(5, signed=False),
        "s6": lambda: signed_permutation_group(6, signed=False),
        "b3": lambda: signed_permutation_group(3, signed=True),
        "b4": lambda: signed_permutation_group(4, signed=True),
        "c3": c3_group,
        "trivial": trivial_group,
        # The identity matrix twice on one coordinate: an orbit of one vector.
        "trivial_by_identity": lambda: generate_group([[[1]], [[1]]], [(2, 1)], name="trivial"),
        "s4_conjugated": conjugated_s4_group,
        "mixed": mixed_block_group,
    }
    if name in builders:
        return builders[name](), None
    record = load_group_fixture(name)
    group = record.build()
    return group, record.table(group)


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4", "b3", "mixed", "c3"])
def test_class_sums_match_the_per_element_definition(name):
    # The in-test groups have no table here: trivial and det twists only.
    # B_3 has a class of trace n - 2 and order 4 (a quarter turn of two
    # coordinates), and "mixed" a det weight over two blocks, one of dimension 2.
    group, table = _in_test_or_fixture_group(name)
    class_of = {
        element_matrix(group, i): c for c, cls in enumerate(conjugacy_classes(group)) for i in cls
    }
    weights = {"trivial": lambda m: 1, "det": linalg.determinant}
    for character in table.names if table else ():
        values = table.row(character)
        weights[character] = lambda m, values=values: values[class_of[m]]
    for twist, weight in weights.items():
        expected = _molien_by_elements(group, weight)
        assert molien_series(group, twist, table=table).series == expected, twist
    ident = linalg.identity(group.dimension)
    by_element = sum(
        1
        for m in matrices(group)
        if linalg.rank([[x - y for x, y in zip(row, one)] for row, one in zip(m, ident)]) == 1
    )
    assert pseudoreflection_count(group) == by_element


@pytest.mark.parametrize("name", ["sigma3_standard", "taf_d6_alpha", "s4", "b3"])
def test_class_factors_are_computed_once_per_class_and_block(name, monkeypatch):
    # Built first, and its cache cleared: checking a file's table fills the class record.
    group, _ = _in_test_or_fixture_group(name)
    object.__setattr__(group, "_classes", None)
    calls = []
    original = linalg.det_one_minus_from_traces
    monkeypatch.setattr(
        linalg, "det_one_minus_from_traces", lambda p: calls.append(p) or original(p)
    )
    base = polynomial_presentation("base", "Q", group.graded_degrees)
    assert descent_report(base, group).solomon.verified
    molien_series(group, "det")
    sym_power_characters(group, 10)
    assert len(calls) == len(conjugacy_classes(group)) * len(group.blocks)


def _faddeev_leverrier(m):
    """det(1 - s*M) by the Faddeev-LeVerrier recursion, which the class
    factors ran on each representative's block before Newton's identities on
    permutation traces replaced it; kept as the reference."""
    n = len(m)
    coeffs = [Fraction(1)]
    mk = m
    for k in range(1, n + 1):
        c = Fraction(-linalg.trace(mk), k)
        coeffs.append(c)
        if k < n:
            shifted = tuple(
                tuple(mk[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
            )
            mk = linalg.mat_mul(m, shifted)
    return coeffs


@pytest.mark.parametrize(
    "name", [*GROUP_FIXTURES, "s4", "s5", "s6", "b3", "b4", "c3", "s4_conjugated", "mixed"]
)
def test_class_factors_match_faddeev_leverrier_on_each_block(name):
    group, _ = _in_test_or_fixture_group(name)
    _, reps, orders, factors = invariants._class_record(group)
    assert len(factors) == len(orders) == len(conjugacy_classes(group))
    assert orders == tuple(group.element_order(rep) for rep in reps)
    for rep, block_factors in zip(reps, factors):
        m = element_matrix(group, rep)
        assert type(block_factors) is tuple and len(block_factors) == len(group.blocks)
        for (_, start, stop), factor in zip(group.block_slices(), block_factors):
            block = tuple(tuple(row[start:stop]) for row in m[start:stop])
            assert factor == tuple(_faddeev_leverrier(block))
            assert type(factor) is tuple and all(type(c) is int for c in factor)


@pytest.mark.parametrize("name", ["s4", "taf_d6_alpha"])
def test_element_matrices_are_read_only_where_needed(name):
    # Invariants come from the generators alone, and det(1 - s*g) from the
    # class representatives' permutations: a group has no method that
    # builds an element's matrix (tests build one with element_matrix).
    group, _ = _in_test_or_fixture_group(name)
    assert not hasattr(group, "matrix")
    reps = class_representatives(group)
    assert invariant_basis(group, 24)
    object.__setattr__(group, "_classes", None)  # computed afresh, not read from the cache
    assert reps and len(invariants._class_record(group)[3]) == len(reps)


def _group_core_results(group):
    """The class record (classes, representatives, orders, block factors)
    and the trivial and det Molien sums, each computed afresh."""
    object.__setattr__(group, "_classes", None)
    record = invariants._class_record(group)
    sums = invariants._molien_sums(group, ["trivial", "det"])
    return record, [(s.numerator.terms(), s.denominator_degrees) for s in sums]


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4", "s4_conjugated", "mixed"])
def test_group_core_builds_no_element_matrix(name):
    # The class key reads its entries off the orbit, and the class terms
    # come from the class factors: a group has no method that builds an
    # element's matrix.
    expected = _group_core_results(_in_test_or_fixture_group(name)[0])
    group = _in_test_or_fixture_group(name)[0]
    assert not hasattr(group, "matrix")
    assert _group_core_results(group) == expected


DUPLICATES = {"pickle": lambda group: pickle.loads(pickle.dumps(group)), "copy": copy.copy, "deepcopy": copy.deepcopy}


@pytest.mark.parametrize("how", DUPLICATES)
@pytest.mark.parametrize("name", ["sigma3_standard", "taf_d6_alphabeta", "mixed", "b3"])
def test_copies_and_pickles_rebuild_the_class_record(name, how):
    # The one cache slot is left out of __reduce__: a copy recomputes it, equal.
    assert [slot for slot in GradedGroupRep.__slots__ if slot.startswith("_")] == ["_classes"]
    assert not hasattr(invariants, "_class_dets")
    group, _ = _in_test_or_fixture_group(name)
    record = invariants._class_record(group)
    series = [molien_series(group, twist).series for twist in ("trivial", "det")]
    other = DUPLICATES[how](group)
    assert other is not group and other == group and other._classes is None
    assert all(getattr(other, slot) == getattr(group, slot) for slot in GradedGroupRep.__slots__[:-1])
    assert (conjugacy_classes(other), class_representatives(other)) == record[:2]
    assert invariants._class_record(other) == record
    assert [molien_series(other, twist).series for twist in ("trivial", "det")] == series


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4", "b3", "s4_conjugated", "mixed"])
def test_generators_are_checked_without_a_determinant(name, monkeypatch):
    expected = _in_test_or_fixture_group(name)[0]

    def refuse(m):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(linalg, "determinant", refuse)
    group = _in_test_or_fixture_group(name)[0]
    assert group.permutations == expected.permutations and group.orbit == expected.orbit


def _element_term_by_long_division(blocks, order, factors):
    """The class term as it was built before the integer recurrence: the
    product per block of (1 - t^{d*o})^dim divided by det(1 - m t^d on V_d)
    by long division; kept as the reference."""
    numerator = LaurentPolynomial.one()
    dens = []
    for (degree, dim), factor in zip(blocks, factors):
        det_poly = LaurentPolynomial({k * degree: c for k, c in enumerate(factor)})
        quotient = prod_one_minus([degree * order] * dim).divide_exact(det_poly)
        if quotient is None:
            raise ArithmeticError("characteristic factor failed to divide cyclotomic power")
        numerator = numerator * quotient
        dens.extend([degree * order] * dim)
    return HilbertSeries(numerator, dens)


@pytest.mark.parametrize(
    "name",
    [*GROUP_FIXTURES, "s4", "s5", "s6", "b3", "b4", "c3", "s4_conjugated", "mixed", "trivial_by_identity"],
)
def test_class_terms_match_long_division(name, monkeypatch):
    group, _ = _in_test_or_fixture_group(name)
    _, reps, _, factors = invariants._class_record(group)
    orders = [group.element_order(rep) for rep in reps]
    expected = [_element_term_by_long_division(group.blocks, o, fs) for o, fs in zip(orders, factors)]

    def refuse(self, divisor):
        raise AssertionError("a class term used long division")

    monkeypatch.setattr(LaurentPolynomial, "divide_exact", refuse)
    for order, fs, reference in zip(orders, factors, expected):
        term = HilbertSeries._of(*invariants._element_term(group.blocks, order, fs))
        assert term.numerator.terms() == reference.numerator.terms()
        assert term.denominator_degrees == reference.denominator_degrees
        assert all(in_exact_form(c) for _, c in term.numerator.terms())


ALL_GROUPS = [*GROUP_FIXTURES, "s4", "s5", "s6", "b3", "b4", "c3", "s4_conjugated", "mixed", "trivial_by_identity"]


def _classes_by_full_key(group):
    """Classes and representatives as conjugacy_classes found them before it
    compared the key one row at a time, kept as the reference: every member's
    whole key entries built, and the least (entries, index) taken by min."""
    gens = generator_permutations(group) if group.order > 1 else ()
    conjugators = [(sorted(range(len(g)), key=g.__getitem__), operator.itemgetter(*g)) for g in gens]
    index = {p: i for i, p in enumerate(group.permutations)}
    n, rows = group.dimension, tuple(zip(*group.orbit))
    assigned, keyed = set(), []
    for i in range(group.order):
        if i in assigned:
            continue
        members, stack = {i}, [group.permutations[i]]
        while stack:
            y = stack.pop()
            for ginv, by_g in conjugators:
                j = index[operator.itemgetter(*by_g(y))(ginv)]
                if j not in members:
                    members.add(j)
                    stack.append(group.permutations[j])
        assigned |= members
        entries, rep = min(
            (tuple([row[k] for row in rows for k in group.permutations[j][:n]]), j) for j in members
        )
        keyed.append(((group.element_order(rep), len(members), entries), rep, tuple(sorted(members))))
    keyed.sort()
    return tuple(cls for _, _, cls in keyed), tuple(rep for _, rep, _ in keyed)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_row_by_row_representatives_match_the_full_key_min(name):
    # Same key, order and representatives, so file-supplied tables stay valid.
    group, _ = _in_test_or_fixture_group(name)
    expected = _classes_by_full_key(group)
    object.__setattr__(group, "_classes", None)  # computed afresh, not read from the cache
    assert (conjugacy_classes(group), class_representatives(group)) == expected


def _least_member_by_rows(group, members):
    """The least member as conjugacy_classes found it before it compared one
    entry at a time, kept as the reference: one row of key entries at a time
    over the members still tied."""
    n, rows = group.dimension, tuple(zip(*group.orbit))
    tied = sorted(members)
    for row in rows:
        if len(tied) > 1:
            entries = [[row[k] for k in group.permutations[j][:n]] for j in tied]
            least = min(entries)
            tied = [j for j, e in zip(tied, entries) if e == least]
    return tied[0], tuple([row[k] for row in rows for k in group.permutations[tied[0]][:n]])


def _classes_by_brute_force(group):
    """Each class as {h^-1 x h} over every element h, on the permutations
    alone, keyed by (order, size, entries of the least member by rows)."""
    perms = group.permutations
    index = {p: i for i, p in enumerate(perms)}
    inverses = [tuple(sorted(range(len(p)), key=p.__getitem__)) for p in perms]
    assigned, keyed = set(), []
    for x in range(group.order):
        if x in assigned:
            continue
        # h^-1 x h sends k to h^-1[x[h[k]]]
        members = {index[tuple([hinv[perms[x][k]] for k in h])] for h, hinv in zip(perms, inverses)}
        assigned |= members
        rep, entries = _least_member_by_rows(group, members)
        keyed.append(((group.element_order(rep), len(members), entries), rep, tuple(sorted(members))))
    keyed.sort()
    return tuple(cls for _, _, cls in keyed), tuple(rep for _, rep, _ in keyed)


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_classes_on_index_tables_match_brute_force_conjugation(name, monkeypatch):
    group, _ = _in_test_or_fixture_group(name)
    expected = _classes_by_brute_force(group)

    def refuse(*items):
        raise AssertionError("conjugacy_classes built an itemgetter")

    monkeypatch.setattr(operator, "itemgetter", refuse)
    object.__setattr__(group, "_classes", None)  # computed afresh, not read from the cache
    assert (conjugacy_classes(group), class_representatives(group)) == expected


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_right_tables_and_tree_edges_compose_with_the_generators(name):
    group, _ = _in_test_or_fixture_group(name)
    perms, gens = group.permutations, generator_permutations(group)

    def times(i, h):  # element i, then generator h: k -> perm_i[g_h[k]]
        return tuple([perms[i][k] for k in gens[h]])

    assert len(group.right_tables) == len(gens)
    for h, table in enumerate(group.right_tables):
        assert len(table) == group.order
        assert all(perms[j] == times(i, h) for i, j in enumerate(table))
    assert len(group.tree_edges) == group.order - 1
    for j, (i, h) in enumerate(group.tree_edges, 1):
        # breadth first: j is the first product that reached it, from an earlier element
        assert i < j and group.right_tables[h][i] == j
        assert all(group.right_tables[g][a] != j for a in range(i) for g in range(len(gens)))
        assert all(group.right_tables[g][i] != j for g in range(h))


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_cached_class_dets_are_the_products_of_the_block_factors(name):
    # sym_power_characters divides by the block factors in turn; the reference
    # divides once by the whole space's det(1 - s*g), by Faddeev-LeVerrier on the
    # representative's matrix: the two agree when that det is the blocks' product.
    group, _ = _in_test_or_fixture_group(name)
    top = 30
    columns = []
    for rep in class_representatives(group):
        c = _faddeev_leverrier(element_matrix(group, rep))
        q = [1] + [0] * top
        for j in range(1, top + 1):
            q[j] = -sum(c[i] * q[j - i] for i in range(1, min(j, group.dimension) + 1))
        columns.append(tuple(q))
    got = sym_power_characters(group, top)
    assert got == list(zip(*columns))
    assert all(type(x) is int for row in got for x in row)


def _orbit_by_rows(group):
    """The orbit walk of generate_group before it read generator columns,
    kept as the reference: each image g.v as n row dot products."""
    orbit = list(linalg.identity(group.dimension))
    position = {v: k for k, v in enumerate(orbit)}
    images = [[] for _ in group.generators]
    for v in orbit:
        for g, image in zip(group.generators, images):
            w = tuple(linalg.exact(sum(a * x for a, x in zip(row, v) if x)) for row in g)
            if w not in position:
                position[w] = len(orbit)
                orbit.append(w)
            image.append(position[w])
    return tuple(orbit), tuple(map(tuple, images))


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_orbit_images_through_columns_match_the_row_route(name):
    group, _ = _in_test_or_fixture_group(name)
    assert (group.orbit, generator_permutations(group)) == _orbit_by_rows(group)
    assert all(in_exact_form(x) for v in group.orbit for x in v)


def _molien_sums_by_series(group, twists, table):
    """The class pass before the series kernel, kept as the reference:
    total + term * (w * |C|) through HilbertSeries, classes in canonical
    order, then times 1/|G|; det weights from each representative's matrix."""
    classes, reps, _, factors = invariants._class_record(group)
    out = []
    for twist in twists:
        if twist == "trivial":
            weights = [1] * len(reps)
        elif twist == "det":
            weights = [linalg.determinant(element_matrix(group, rep)) for rep in reps]
        else:
            weights = table.row(twist)
        total = HilbertSeries(0)
        for rep, cls, fs, w in zip(reps, classes, factors, weights):
            if w:
                term = invariants._element_term(group.blocks, group.element_order(rep), fs)
                total = total + HilbertSeries._of(*term) * (w * len(cls))
        out.append(total * Fraction(1, group.order))
    return out


def _shapes(series_list):
    return [(s.numerator.terms(), s.denominator_degrees) for s in series_list]


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_class_pass_matches_the_sequential_series_sum(name):
    # Same lcm and sweep after every class, in the same order: the same canonical forms.
    group, table = _in_test_or_fixture_group(name)
    twists = ["trivial", "det", *(table.names if table else ())]
    got = invariants._molien_sums(group, twists, table)
    assert _shapes(got) == _shapes(_molien_sums_by_series(group, twists, table))
    assert all(in_exact_form(c) for s in got for _, c in s.numerator.terms())


@pytest.mark.parametrize("name", ["sigma3_standard", "taf_d6_alphabeta", "s4", "b3", "mixed"])
def test_class_pass_adds_no_series_objects(name, monkeypatch):
    # On a fresh group, the classes, pseudoreflections, symmetric powers and
    # class terms build no LaurentPolynomial: only the totals are wrapped, last.
    group, table = _in_test_or_fixture_group(name)
    twists = ["trivial", "det", *(table.names if table else ())]
    expected = _shapes(_molien_sums_by_series(group, twists, table))
    reflections, characters = pseudoreflection_count(group), sym_power_characters(group, 12)
    object.__setattr__(group, "_classes", None)
    init, of, wrap = LaurentPolynomial.__init__, LaurentPolynomial._of.__func__, HilbertSeries._of.__func__
    wrapping = []

    def refuse(self, other):
        raise AssertionError("the class pass added two HilbertSeries")

    def refuse_init(self, *args):
        if not wrapping:
            raise AssertionError("a LaurentPolynomial was built before the totals were wrapped")
        init(self, *args)

    def refuse_of(cls, terms):
        if not wrapping:
            raise AssertionError("a LaurentPolynomial was wrapped before the totals were")
        return of(cls, terms)

    def wrap_total(cls, terms, degrees):
        wrapping.append(degrees)
        return wrap(cls, terms, degrees)

    monkeypatch.setattr(HilbertSeries, "__add__", refuse)
    monkeypatch.setattr(LaurentPolynomial, "__init__", refuse_init)
    monkeypatch.setattr(LaurentPolynomial, "_of", classmethod(refuse_of))
    monkeypatch.setattr(HilbertSeries, "_of", classmethod(wrap_total))
    assert conjugacy_classes(group) and group._classes is not None
    assert pseudoreflection_count(group) == reflections
    assert sym_power_characters(group, 12) == characters
    got = invariants._molien_sums(group, twists, table)
    assert len(wrapping) == 2 * len(twists)
    assert _shapes(got) == expected


def test_class_pass_wraps_each_total_once(monkeypatch):
    # Class terms and running totals stay kernel (terms, degrees) pairs: per
    # twist, one series for the total and one for its 1/|G| multiple.
    group, _ = _in_test_or_fixture_group("sigma3_standard")
    wrap, calls = HilbertSeries._of.__func__, []

    def counting(cls, terms, degrees):
        calls.append(degrees)
        return wrap(cls, terms, degrees)

    monkeypatch.setattr(HilbertSeries, "_of", classmethod(counting))
    invariants._molien_sums(group, ["trivial", "det"])
    assert len(calls) == 4


def test_trivial_group_generated_on_one_coordinate_keeps_tuples():
    # The orbit is the one basis vector, where a single-index itemgetter
    # would return a bare index instead of a permutation.
    group, _ = _in_test_or_fixture_group("trivial_by_identity")
    assert group.order == 1
    assert group.permutations == ((0,),) and generator_permutations(group) == ((0,), (0,))
    assert conjugacy_classes(group) == ((0,),) and class_representatives(group) == (0,)
    assert molien_series(group).series == HilbertSeries(1, [2])


@pytest.mark.parametrize(
    "name, order, factor",
    [("c2_negation", 2, (1, 2)), ("sigma3_standard", 3, (1, 1, 2))],
    ids=["1+2s", "1+s+2s^2"],
)
def test_class_term_refuses_a_factor_that_does_not_divide(name, order, factor):
    # A fabricated factor of the block's degree that does not divide (1 - s^order)^dim.
    group, _ = _in_test_or_fixture_group(name)
    assert order in invariants._class_record(group)[2]
    for term in (invariants._element_term, _element_term_by_long_division):
        with pytest.raises(ArithmeticError, match="failed to divide"):
            term(group.blocks, order, [factor])


@pytest.mark.parametrize("name", GROUP_FIXTURES)
def test_degree_weighted_twists_sum_to_the_free_ring(name):
    # sum_chi chi(1) chi(g) is |G| at the identity and 0 elsewhere, so the
    # chi(1)-weighted twisted Molien series add up to 1/prod(1 - t^{d_i}).
    group, table = _in_test_or_fixture_group(name)
    total = HilbertSeries(0)
    for character, chi in table.irreducibles:
        total = total + molien_series(group, character, table=table).series * chi[0]
    assert total == HilbertSeries(1, group.graded_degrees)


def test_verify_solomon_peels_once_and_counts_no_pseudoreflections(monkeypatch):
    group = signed_permutation_group(3, signed=True)
    peeled = []
    original = invariants.extract_polynomial_degrees

    def refuse(group):
        raise AssertionError("verify_solomon counted pseudoreflections")

    monkeypatch.setattr(invariants, "pseudoreflection_count", refuse)
    monkeypatch.setattr(
        invariants,
        "extract_polynomial_degrees",
        lambda series, rank: peeled.append(series) or original(series, rank),
    )
    result = verify_solomon(group)
    assert result.verified and result.invariant_degrees == (4, 8, 12)
    assert len(peeled) == 1 and peeled[0] is result.invariant_series


# -- degree extraction ----------------------------------------------------------------


def test_extract_degrees_of_standard_invariants():
    assert extract_polynomial_degrees(HilbertSeries(1, [8, 12]), 2) == (8, 12)


def test_extract_single_degree():
    assert extract_polynomial_degrees(HilbertSeries(1, [4]), 1) == (4,)


def test_extract_rejects_non_polynomial():
    series = HilbertSeries(LaurentPolynomial({0: 1, 3: 1}), [2, 4])
    with pytest.raises(NotPolynomial):
        extract_polynomial_degrees(series, 2)


def test_extract_rejects_wrong_rank():
    with pytest.raises(NotPolynomial):
        extract_polynomial_degrees(HilbertSeries(1, [8, 12]), 1)


def test_extract_handles_repeated_degrees():
    assert extract_polynomial_degrees(HilbertSeries(1, [2, 2, 2]), 3) == (2, 2, 2)


def test_extraction_reconstructs_input(sigma3_group, c2_group, all_group_fixtures):
    for group in (sigma3_group, c2_group, all_group_fixtures["taf_d6_alpha"]):
        report = molien_series(group)
        degrees = report.polynomial_degrees
        assert HilbertSeries(1, degrees) == report.series


# -- Solomon supplement -----------------------------------------------------------------


def test_supplement_examples():
    assert solomon_supplement([2], [4]) == -2
    assert solomon_supplement([4, 4], [8, 12]) == -12
    assert solomon_supplement([6, 8], [6, 8]) == 0


def test_supplement_length_mismatch():
    with pytest.raises(LengthMismatch):
        solomon_supplement([2, 4], [4])


def test_solomon_verification_for_negation(c2_group):
    result = verify_solomon(c2_group)
    assert result.verified
    assert result.supplement == -2
    assert result.det_twisted_series == HilbertSeries(LaurentPolynomial({2: 1}), [4])


def test_solomon_verification_for_standard_action(sigma3_group):
    result = verify_solomon(sigma3_group)
    assert result.verified
    assert result.supplement == -12
    assert result.det_twisted_series == shifted(result.invariant_series, 12)


def test_solomon_verification_for_trivial_group():
    result = verify_solomon(trivial_group(((2, 1),)))
    assert result.verified and result.supplement == 0


def test_solomon_reads_b_off_the_ratio_without_invariant_degrees():
    # C_3 lies in SL(V), so M_det = M and b = 0, with no degrees to peel.
    result = verify_solomon(c3_group())
    assert result.invariant_degrees is None
    assert result.verified and result.supplement == 0
    assert result.det_twisted_series == result.invariant_series


def test_solomon_refuses_a_ratio_that_is_no_power_of_t():
    # -1 on three coordinates: R^G is the second Veronese ring, not Gorenstein.
    minus = generate_group([[[-1 if i == j else 0 for j in range(3)] for i in range(3)]], [(2, 3)])
    with pytest.raises(NotMonomialRatio, match=r"t\^2 has coefficient 3 in the first numerator"):
        verify_solomon(minus)


@st.composite
def small_signed_groups(draw):
    """A group generated by diagonal +-1 or signed permutation matrices on
    n <= 4 coordinates of random block degrees, each permuting coordinates
    only within its block."""
    n = draw(st.integers(1, 4))
    flags = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    cuts = [0, *(k for k, cut in enumerate(flags, start=1) if cut), n]
    dims = [hi - lo for lo, hi in zip(cuts, cuts[1:])]
    degrees = draw(st.lists(st.integers(1, 6), min_size=len(dims), max_size=len(dims), unique=True))
    diagonal = draw(st.booleans())
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        perm, start = [], 0
        for dim in dims:
            block = range(start, start + dim)
            perm += block if diagonal else draw(st.permutations(block))
            start += dim
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        generators.append([[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)])
    return generate_group(generators, list(zip(degrees, dims)))


@settings(max_examples=60, deadline=None)
@given(small_signed_groups())
def test_solomon_ratio_gives_the_functional_equation_shift(group):
    # Stanley's reciprocity: M_det/M = t^-b exactly when M has the
    # functional equation, and then shift(R^G) = a + b.
    n = group.dimension
    try:
        solomon = verify_solomon(group)
    except NotMonomialRatio:
        with pytest.raises(NotGorensteinSeries):
            gorenstein_shift_stanley(molien_series(group).series, n)
        return
    a = gorenstein_shift_formula(polynomial_presentation("base", "Q", group.graded_degrees))
    assert solomon.verified
    assert a + solomon.supplement == gorenstein_shift_stanley(solomon.invariant_series, n)
    if solomon.invariant_degrees is not None:
        assert solomon.supplement == sum(group.graded_degrees) - sum(solomon.invariant_degrees)


# -- symmetric powers and decomposition ----------------------------------------------------


def test_sym_power_zero_is_trivial(sigma3_group):
    assert sym_power_character(sigma3_group, 0) == (1, 1, 1)


def test_sym_power_one_is_the_representation(sigma3_group):
    reps = class_representatives(sigma3_group)
    traces = tuple(linalg.trace(element_matrix(sigma3_group, i)) for i in reps)
    assert sym_power_character(sigma3_group, 1) == traces
    assert sym_power_character(sigma3_group, 1) == (2, 0, -1)


def test_sym_power_two_by_brute_force(sigma3_group):
    # induced action on the three quadratic monomials
    values = []
    for rep in class_representatives(sigma3_group):
        m = element_matrix(sigma3_group, rep)
        basis = monomials_of_degree((4, 4), 8)
        total = Fraction(0)
        for expvec in basis:
            total += _substitute(m, expvec).get(expvec, Fraction(0))
        values.append(total)
    assert tuple(values) == sym_power_character(sigma3_group, 2)
    assert tuple(values) == (3, 1, 0)


def _sym_power_by_fractions(group, n):
    """Reference: the per-n Fraction recurrence h_j = -sum_i c_i h_{j-i} from
    h_0 = 1, with c_i the coefficients of det(1 - s*g), per representative."""
    values = []
    for rep in class_representatives(group):
        det_coeffs = linalg.det_one_minus_coefficients(element_matrix(group, rep))
        h = [Fraction(1)]
        for j in range(1, n + 1):
            s = Fraction(0)
            for i in range(1, min(j, len(det_coeffs) - 1) + 1):
                s += det_coeffs[i] * h[j - i]
            h.append(-s)
        values.append(h[n])
    return tuple(values)


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4"])
def test_sym_power_characters_match_the_per_n_recurrence(name):
    group = s4_group() if name == "s4" else load_group_fixture(name).build()
    characters = sym_power_characters(group, 40)
    assert len(characters) == 41
    for n, values in enumerate(characters):
        assert values == _sym_power_by_fractions(group, n), n
        assert sym_power_character(group, n) == values


def test_sym_power_characters_refuse_non_integral_determinants(monkeypatch):
    monkeypatch.setattr(
        linalg, "det_one_minus_from_traces", lambda p: [Fraction(1), Fraction(1, 2)]
    )
    # A fresh group: the session fixture may already hold its class factors.
    sigma3_group = load_group_fixture("sigma3_standard").build()
    with pytest.raises(ArithmeticError, match="non-integral"):
        sym_power_characters(sigma3_group, 3)


def test_negative_sym_power_is_refused(sigma3_group):
    with pytest.raises(ValueError):
        sym_power_characters(sigma3_group, -1)


def test_decomposition_sequence(sigma3_group, sigma3_table):
    expected = [(1, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 0, 2), (1, 1, 2)]
    got = [
        decompose(sym_power_character(sigma3_group, n), sigma3_table) for n in range(6)
    ]
    assert got == expected


def test_decomposition_period_six_adds_regular_representation(sigma3_group, sigma3_table):
    # dim Sym^{n+6} - dim Sym^n = 6 = 1 + 1 + 2*2, one regular representation
    for n in range(19):
        low = decompose(sym_power_character(sigma3_group, n), sigma3_table)
        high = decompose(sym_power_character(sigma3_group, n + 6), sigma3_table)
        assert high == (low[0] + 1, low[1] + 1, low[2] + 2)


def test_period_six_law_as_rational_functions(sigma3_group, sigma3_table):
    # In t = s^4: (1 - t^24) M_chi(t) - chi(1) t^24/(1 - t^4) is a polynomial
    # of degree below 24, so Sym^{n+6} holds chi(1) more copies of chi than Sym^n.
    expected = {
        "triv": {0: 1, 8: 1, 12: 1, 16: 1, 20: 1},
        "sign": {12: 1, 20: 1},
        "std": {4: 1, 8: 1, 12: 1, 16: 2, 20: 2},
    }
    period = HilbertSeries(prod_one_minus([24]))
    for name, values in sigma3_table.irreducibles:
        twisted = molien_series(sigma3_group, name, table=sigma3_table).series
        rest = twisted * period + shifted(HilbertSeries(1, [4]), 24) * values[0] * -1
        assert rest.denominator_degrees == ()
        assert rest.numerator.terms()[-1][0] < 24
        assert rest.numerator == LaurentPolynomial(expected[name]), name


def test_invariant_multiplicity_is_one_periodic(sigma3_group, sigma3_table):
    # the invariant-dimension string 101111212222... repeats with +1 per period
    for n in range(19):
        low = decompose(sym_power_character(sigma3_group, n), sigma3_table)
        high = decompose(sym_power_character(sigma3_group, n + 6), sigma3_table)
        assert high[0] == low[0] + 1


def test_decomposition_reproduces_dimensions(sigma3_group, sigma3_table):
    dims = {name: chi[0] for name, chi in sigma3_table.irreducibles}
    for n in range(12):
        mults = decompose(sym_power_character(sigma3_group, n), sigma3_table)
        total = sum(m * dims[name] for m, name in zip(mults, sigma3_table.names))
        assert total == n + 1  # dim Sym^n of a 2-dimensional space


def test_trivial_class_function_decomposes_as_unit(sigma3_table, c2_table):
    assert decompose((1, 1, 1), sigma3_table) == (1, 0, 0)
    assert decompose((1, 1), c2_table) == (1, 0)


def test_non_character_raises(sigma3_table):
    with pytest.raises(NonIntegralMultiplicity):
        decompose((1, 0, 0), sigma3_table)


def test_decompose_length_mismatch(sigma3_table):
    with pytest.raises(LengthMismatch):
        decompose((1, 1), sigma3_table)


# -- character tables --------------------------------------------------------------------


def test_builtin_tables(c2_group, sigma3_group, all_group_fixtures):
    assert builtin_character_table(c2_group).names == ("triv", "sign")
    assert builtin_character_table(sigma3_group).names == ("triv", "sign", "std")
    klein = builtin_character_table(all_group_fixtures["taf_d6_alphabeta"])
    assert klein.names == ("triv", "chi1", "chi2", "chi3")
    assert builtin_character_table(trivial_group()).names == ("triv",)


def test_no_builtin_table_for_rotation_group():
    with pytest.raises(NoBuiltinCharacterTable):
        builtin_character_table(c3_group())


def test_character_table_rejects_non_orthogonal_rows(sigma3_group):
    with pytest.raises(ValueError):
        character_table(sigma3_group, [("bad", (1, 1, 0))])


def _first_failing_pair(group, rows):
    """The orthogonality message of the first failing (i, j), every ordered
    pair tried, as character_table checked it before it weighted the rows
    once and tried i <= j only; kept as the reference.  None if none fails."""
    sizes = [len(c) for c in conjugacy_classes(group)]
    for i, (name_i, chi_i) in enumerate(rows):
        for j, (name_j, chi_j) in enumerate(rows):
            inner = sum(s * a * b for s, a, b in zip(sizes, chi_i, chi_j))
            if inner != (group.order if i == j else 0):
                return (
                    f"characters {name_i!r}, {name_j!r} fail orthogonality: "
                    f"<,> = {Fraction(inner, group.order)}"
                )
    return None


def test_character_table_names_the_first_failing_pair(sigma3_group):
    # triv is fine with itself; (triv, bad) is the first pair to fail, before (bad, triv).
    rows = [("triv", (1, 1, 1)), ("bad", (1, 1, 0)), ("std", (2, 0, -1))]
    expected = "characters 'triv', 'bad' fail orthogonality: <,> = 2/3"
    assert _first_failing_pair(sigma3_group, rows) == expected
    with pytest.raises(ValueError) as info:
        character_table(sigma3_group, rows)
    assert str(info.value) == expected


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["sigma3_standard", "c2_negation", "taf_d6_alphabeta"]), st.data())
def test_character_table_refuses_with_the_first_failing_pair(name, data):
    group, table = _in_test_or_fixture_group(name)
    n = len(conjugacy_classes(group))
    rows = [(chi_name, list(values)) for chi_name, values in table.irreducibles]
    # Perturb some values of the valid table, so that failing pairs are common but not universal.
    for _ in range(data.draw(st.integers(0, 3))):
        r, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        rows[r][1][k] += data.draw(st.integers(-2, 2))
    expected = _first_failing_pair(group, rows)
    if expected is None:
        assert character_table(group, rows).irreducibles == tuple((a, tuple(v)) for a, v in rows)
    else:
        with pytest.raises(ValueError) as info:
            character_table(group, rows)
        assert str(info.value) == expected


def test_character_table_rejects_incomplete_tables(sigma3_group):
    # triv and sign are orthonormal, but std is missing: 2 rows for 3 classes
    # and 1 + 1 != 6.
    with pytest.raises(ValueError, match="2 irreducibles for 3 classes.* = 2 .* order 6"):
        character_table(sigma3_group, [("triv", (1, 1, 1)), ("sign", (1, -1, 1))])


def test_character_table_rejects_non_integral_values(c2_group):
    # Orthonormal and complete, but 7/5 is no character value.
    rows = [("a", (Fraction(7, 5), Fraction(1, 5))), ("b", (Fraction(-1, 5), Fraction(7, 5)))]
    with pytest.raises(ValueError, match="'a' has the non-integral value 7/5 on class 0"):
        character_table(c2_group, rows)


def test_character_table_stores_integer_rows(sigma3_table):
    for _, row in sigma3_table.irreducibles:
        assert all(type(v) is int for v in row)


def test_decompose_scales_fractional_values(sigma3_table):
    assert decompose((Fraction(12, 2), 0, 0), sigma3_table) == (1, 1, 2)  # regular
    # 3/2 times triv: the scaled inner product 18 is a multiple of |G| = 6,
    # but not of 2|G|.
    with pytest.raises(NonIntegralMultiplicity, match="'triv' is 3/2"):
        decompose((Fraction(3, 2),) * 3, sigma3_table)
    with pytest.raises(TypeError):
        decompose((6.0, 0, 0), sigma3_table)


def test_unknown_character_name_lists_the_table(sigma3_group, sigma3_table):
    expected = "no character named 'chi1' in the table; its characters are triv, sign, std"
    with pytest.raises(UnknownCharacter) as info:
        sigma3_table.row("chi1")
    assert str(info.value) == expected
    assert isinstance(info.value, LookupError) and not isinstance(info.value, KeyError)
    with pytest.raises(UnknownCharacter, match="its characters are triv, sign, std"):
        molien_series(sigma3_group, twist="chi1", table=sigma3_table)


def test_character_table_rejects_wrong_length(sigma3_group):
    with pytest.raises(ValueError):
        character_table(sigma3_group, [("triv", (1, 1))])


def test_character_table_orthogonality_invariant(sigma3_table):
    order = sigma3_table.group_order
    assert order == 6
    for i, (_, chi_i) in enumerate(sigma3_table.irreducibles):
        for j, (_, chi_j) in enumerate(sigma3_table.irreducibles):
            inner = sum(
                Fraction(s) * a * b
                for s, a, b in zip(sigma3_table.class_sizes, chi_i, chi_j)
            ) / order
            assert inner == (1 if i == j else 0)


# -- explicit invariants --------------------------------------------------------------------


def scalar_multiple(p, q):
    """The scalar c with p = c*q, or None."""
    if p.keys() != q.keys():
        return None
    ratios = {p[e] / q[e] for e in p}
    return ratios.pop() if len(ratios) == 1 else None


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "trivial", "c3"])
def test_degree_zero_invariants_are_constants(name):
    group, _ = _in_test_or_fixture_group(name)
    assert invariant_basis(group, 0) == [{(0,) * group.dimension: 1}]


def test_quadratic_invariant_of_standard_action(sigma3_group):
    basis = invariant_basis(sigma3_group, 8)
    assert len(basis) == 1
    expected = {(2, 0): Fraction(1), (1, 1): Fraction(1), (0, 2): Fraction(1)}
    assert scalar_multiple(basis[0], expected) is not None


def test_cubic_invariant_of_standard_action(sigma3_group):
    # hand computation of the averaging operator on x^2 y gives
    # x^3 + (3/2) x^2 y - (3/2) x y^2 - y^3, spanning the degree-12 invariants
    basis = invariant_basis(sigma3_group, 12)
    assert len(basis) == 1
    expected = {
        (3, 0): Fraction(1),
        (2, 1): Fraction(3, 2),
        (1, 2): Fraction(-3, 2),
        (0, 3): Fraction(-1),
    }
    assert scalar_multiple(basis[0], expected) is not None


def test_invariant_dimensions_match_molien(c2_group, sigma3_group, all_group_fixtures):
    # S_5 up to degree 24 (1820 monomials) and B_3 up to degree 32.
    cases = [
        (c2_group, 29),
        (sigma3_group, 29),
        (all_group_fixtures["taf_d6_alphabeta"], 29),
        (signed_permutation_group(5, signed=False), 24),
        (signed_permutation_group(3, signed=True), 32),
    ]
    for group, top in cases:
        series = molien_series(group).series
        for degree in range(top + 1):
            expected = series.coefficient(degree)
            assert len(invariant_basis(group, degree)) == expected, (group.name, degree)


def test_monomial_bound(sigma3_group):
    with pytest.raises(MonomialBoundExceeded):
        invariant_basis(sigma3_group, 40, monomial_bound=2)


def test_monomial_bound_is_checked_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("monomials enumerated before the bound was checked")

    monkeypatch.setattr(invariants, "monomials_of_degree", refuse)
    # 5 variables of degree 2 at degree 400: C(204, 4), about 7.0e7 monomials.
    group = generate_group([], [(2, 5)], name="trivial5")
    with pytest.raises(MonomialBoundExceeded, match="70058751 monomials"):
        invariant_basis(group, 400)
    with pytest.raises(MonomialBoundExceeded):
        invariant_basis(s4_group(), 40, monomial_bound=10)


def _substitute(m, exponents):
    """Image of the monomial prod x_j^{e_j} under x_j -> sum_i m[i][j] x_i,
    multiplied out one linear factor at a time.  The oracles below use this
    and share no image code with ``invariant_basis``."""
    result = {(0,) * len(exponents): Fraction(1)}
    for j, e in enumerate(exponents):
        linear = [(i, row[j]) for i, row in enumerate(m) if row[j]] if e else []
        for _ in range(e):
            product = {}
            for mono, c in result.items():
                for i, a in linear:
                    key = mono[:i] + (mono[i] + 1,) + mono[i + 1:]
                    product[key] = product[key] + c * a if key in product else c * a
            result = product
    return {key: c for key, c in result.items() if c}


def _reynolds_basis(group, degree):
    """Reference basis: the averaging operator (1/|G|) sum_g g. applied to
    every monomial of the degree, over every element, then row-reduced with
    the columns in the library's order."""
    if degree == 0:
        return [{(0,) * group.dimension: Fraction(1)}]
    monomials = monomials_of_degree(group.graded_degrees, degree)
    columns = sorted(monomials, reverse=True)
    col_index = {e: i for i, e in enumerate(columns)}
    rows = []
    for expvec in monomials:
        row = {}
        for m in matrices(group):
            for e, c in _substitute(m, expvec).items():
                row[col_index[e]] = row.get(col_index[e], Fraction(0)) + c
        rows.append({j: c / group.order for j, c in row.items() if c})
    return [{columns[i]: c for i, c in row.items()} for row in linalg.rref(rows)]


def _act(m, poly):
    out = {}
    for exponents, c in poly.items():
        for e, d in _substitute(m, exponents).items():
            out[e] = out.get(e, Fraction(0)) + c * d
    return {e: c for e, c in out.items() if c}


# Monomial groups with rational scalars: x <-> y scaled by 2 and 1/2; the
# rotation C_4, whose orbits through x^a*y^b with a + b odd cancel; a scaled
# swap on a degree-2 block beside a negation on a degree-4 block; and
# x -> y/2, y -> 2z, z -> x, where a product of two Fractions is an int.
MONOMIAL_GENERATORS = {
    "scaled_swap": ([[[0, 2], [Fraction(1, 2), 0]]], [(2, 2)]),
    "c4_rotation": ([[[0, -1], [1, 0]]], [(2, 2)]),
    "mixed_monomial": ([[[0, 3, 0], [Fraction(1, 3), 0, 0], [0, 0, -1]]], [(2, 2), (4, 1)]),
    "scaled_3_cycle": ([[[0, 0, 1], [Fraction(1, 2), 0, 0], [0, 2, 0]]], [(2, 3)]),
}


@pytest.mark.parametrize(
    "name", [*GROUP_FIXTURES, "s4", "trivial", "s5", "b3", "s4_conjugated", *MONOMIAL_GENERATORS]
)
def test_invariant_basis_matches_the_reynolds_oracle(name):
    if name in MONOMIAL_GENERATORS:
        group, top = generate_group(*MONOMIAL_GENERATORS[name], name=name), 20
    elif name in ("s4", "s5", "b3"):
        group, top = signed_permutation_group(int(name[1]), signed=name == "b3"), 12
    elif name == "trivial":  # no generators: every monomial is invariant
        group, top = trivial_group(((2, 1), (4, 2))), 12
    elif name == "s4_conjugated":  # dense kernel vectors; about 2.5 s to degree 8
        group, top = conjugated_s4_group(), 8
    else:
        group, top = load_group_fixture(name).build(), 48
    for degree in range(top + 1):
        basis = invariant_basis(group, degree)
        assert basis == _reynolds_basis(group, degree), degree
        assert all(in_exact_form(c) for poly in basis for c in poly.values()), degree
        for m in matrices(group):
            for poly in basis:
                assert _act(m, poly) == poly, degree


@pytest.mark.parametrize("name", ["sigma3_standard", "s4_conjugated"])
def test_invariant_basis_reduces_sparse_rows(monkeypatch, name):
    # Groups that are not monomial take the elimination path.
    if name in GROUP_FIXTURES:
        group, degree = load_group_fixture(name).build(), 24
    else:  # dense rows of Fractions: low degree keeps it quick
        group, degree = conjugated_s4_group(), 6
    calls = []
    original = linalg.rref

    def recording(rows):
        calls.append(list(rows))
        return original(rows)

    monkeypatch.setattr(linalg, "rref", recording)
    assert invariant_basis(group, degree)
    # One elimination: the kernel is read off its pivot rows already in
    # reduced row echelon form.
    assert len(calls) == 1 and calls[0]
    for row in calls[0]:
        assert isinstance(row, Mapping) and all(row.values())


@pytest.mark.parametrize("name", ["s4", "b3", "c2_negation", "taf_d6_alphabeta", "trivial"])
def test_monomial_groups_walk_the_orbits(monkeypatch, name):
    # A group whose generators send each variable to one scaled variable
    # builds no polynomial product and runs no elimination.
    if name in GROUP_FIXTURES:
        group, top = load_group_fixture(name).build(), 48
    elif name == "trivial":
        group, top = trivial_group(((2, 1), (4, 2))), 12
    else:
        group, top = signed_permutation_group(int(name[1]), signed=name == "b3"), 12
    expected = [_reynolds_basis(group, degree) for degree in range(top + 1)]
    calls = []
    for module, attr in ((linalg, "rref"), (invariants, "_poly_mul")):
        original = getattr(module, attr)
        monkeypatch.setattr(module, attr, lambda *a, f=original, k=attr: calls.append(k) or f(*a))
    assert [invariant_basis(group, degree) for degree in range(top + 1)] == expected
    assert calls == []


def _monomial_maps_by_orbit(group):
    """_monomial_maps as it read each generator's permutation of the orbit
    before it read the generator's matrix, kept as the reference."""
    n, maps = group.dimension, []
    for perm in generator_permutations(group):
        targets = sorted(
            (i, j, c) for j, k in enumerate(perm[:n]) for i, c in enumerate(group.orbit[k]) if c
        )
        if len(targets) != n:
            return None
        maps.append(([j for _, j, _ in targets], [(j, c) for _, j, c in targets if c != 1]))
    return maps


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_monomial_maps_read_off_the_generators_match_the_orbit_route(name):
    # The group keeps no generator permutations; a generator is monomial when
    # each column of its matrix has one nonzero entry.
    group, _ = _in_test_or_fixture_group(name)
    assert not hasattr(group, "generator_permutations")
    maps = invariants._monomial_maps(group)
    assert maps == _monomial_maps_by_orbit(group)
    monomial = all(sum(map(bool, column)) == 1 for g in group.generators for column in zip(*g))
    assert (maps is not None) is monomial


def _monomials_by_recursion(var_degrees, total):
    """The exponent vectors as monomials_of_degree listed them by recursion,
    copying the prefix at every level; kept as the reference for their order."""
    out = []

    def rec(i, remaining, prefix):
        if i == len(var_degrees) - 1:
            if remaining % var_degrees[i] == 0:
                out.append(tuple(prefix + [remaining // var_degrees[i]]))
            return
        d = var_degrees[i]
        for e in range(remaining // d + 1):
            rec(i + 1, remaining - e * d, prefix + [e])

    if total < 0:
        return []
    rec(0, total, [])
    return out


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.integers(-3, 30))
@settings(max_examples=300)
def test_monomials_match_the_recursive_listing(var_degrees, total):
    assert monomials_of_degree(var_degrees, total) == _monomials_by_recursion(var_degrees, total)


@pytest.mark.parametrize(
    "var_degrees, total, expected",
    [
        ((3,), 12, [(4,)]),
        ((3,), 13, []),
        ((2, 4, 6), 0, [(0, 0, 0)]),
        ((4, 6), 2, []),
        ((4, 6, 10), 7, []),
        ((2, 2), -2, []),
        ((1, 2), 4, [(0, 2), (2, 1), (4, 0)]),
    ],
    ids=["one-variable", "one-variable-indivisible", "total-0", "below-every-degree", "no-degree-divides",
         "negative", "lexicographic"],
)
def test_monomials_of_degree_edge_cases(var_degrees, total, expected):
    assert monomials_of_degree(var_degrees, total) == expected == _monomials_by_recursion(var_degrees, total)


def test_off_grading_degree_has_no_monomials(sigma3_group):
    assert invariant_basis(sigma3_group, 6) == []


def test_format_polynomial():
    poly = {(2, 0): Fraction(1), (1, 1): Fraction(3, 2), (0, 2): Fraction(-1)}
    assert format_polynomial(poly, ["x", "y"]) == "x^2 + (3/2)*x*y - y^2"
    assert format_polynomial({}, ["x"]) == "0"
    assert format_polynomial({(0,): Fraction(5)}, ["x"]) == "5"
    assert format_polynomial({(0,): Fraction(-1, 2)}, ["x"]) == "-(1/2)"


def test_conjugated_group_keeps_the_exact_scalar_rule():
    # Rational generators: orbit vectors, matrices, characteristic
    # polynomials and invariants are ints where integral, Fractions otherwise.
    group = conjugated_s4_group()
    assert all(in_exact_form(x) for v in group.orbit for x in v)
    assert any(type(x) is Fraction for v in group.orbit for x in v)
    for m in group.generators + tuple(element_matrix(group, i) for i in class_representatives(group)):
        assert all(in_exact_form(x) for row in m for x in row)
    for factors in invariants._class_record(group)[3]:
        assert all(type(c) is int for f in factors for c in f)
    for degree in range(9):
        basis = invariant_basis(group, degree)
        assert all(in_exact_form(c) for poly in basis for c in poly.values()), degree
    assert len(basis) == 5  # degree 8: e1^4, e1^2*e2, e2^2, e1*e3, e4 in the x_i of degree 2


def test_float_matrix_entries_are_rejected():
    with pytest.raises(TypeError):
        generate_group([[[0.5]]], [(2, 1)])


def test_float_character_values_are_rejected(sigma3_group):
    with pytest.raises(TypeError):
        character_table(sigma3_group, [("triv", (1.0, 1, 1))])


def test_monomial_images_keep_only_the_powers_in_use(c2_group):
    # v^10000 is the one monomial of degree 20000: only that power of -v is
    # kept, not the 10000 powers below it.
    tracemalloc.start()
    try:
        basis = invariant_basis(c2_group, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis == [{(10000,): 1}]
    assert peak < 1_000_000


def test_monomial_images_reach_a_power_by_squaring(monkeypatch):
    # y^100000 under the non-monomial x -> x + y, y -> y: about two products
    # per bit of the exponent, not one per unit.
    calls = []
    original = invariants._poly_mul
    monkeypatch.setattr(invariants, "_poly_mul", lambda a, b: calls.append(1) or original(a, b))
    images = list(invariants._monomial_images(((1, 0), (1, 1)), [(0, 100000)]))
    assert images == [{(0, 100000): 1}]
    assert 0 < len(calls) <= 2 * (100000).bit_length() + 2


def test_poly_pow_matches_repeated_products():
    linear = {(1, 0): 2, (0, 1): Fraction(-1, 3)}
    assert invariants._poly_pow(linear, 1) is linear
    power = linear
    for k in range(2, 12):
        power = invariants._poly_mul(power, linear)
        assert invariants._poly_pow(linear, k) == power, k


# -- degree extraction against the coefficient-window peel ------------------------


def _window_peel(series, rank):
    """The coefficient-window peel that exact division replaced, kept as the
    reference: expand a window, take the least positive degree with a
    positive coefficient, multiply its factor away, rank times."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    current = series
    degrees = []
    for _ in range(rank):
        if current.is_zero:
            raise NotPolynomial("series vanished before peeling finished")
        num = current.numerator
        span = max(0, num.terms()[-1][0]) - min(0, num.min_exponent)
        limit = sum(current.denominator_degrees) + span + 1
        coeffs = current.expand(1, limit)
        e = next((k for k, c in enumerate(coeffs, start=1) if c > 0), None)
        if e is None:
            raise NotPolynomial("no positive coefficient left to peel")
        degrees.append(e)
        current = current * HilbertSeries(prod_one_minus([e]))
    if current != 1:
        raise NotPolynomial(f"residue after peeling {degrees} is {current}, not 1")
    return tuple(sorted(degrees))


def _degrees_or_refusal(peel, series, rank):
    try:
        return peel(series, rank)
    except NotPolynomial:
        return None


def _assert_peels_agree(series, rank):
    expected = _degrees_or_refusal(_window_peel, series, rank)
    assert _degrees_or_refusal(extract_polynomial_degrees, series, rank) == expected, (series, rank)
    return expected


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4", "b3", "c3", "s4_conjugated", "mixed"])
def test_exact_division_matches_the_window_peel_on_every_twist(name):
    group, table = _in_test_or_fixture_group(name)
    twists = ["trivial", "det", *(table.names if table else ())]
    polynomial = 0
    for series in invariants._molien_sums(group, twists, table):
        for rank in range(max(group.dimension - 1, 1), group.dimension + 2):
            polynomial += _assert_peels_agree(series, rank) is not None
    # Every one of these groups but three is generated by pseudoreflections,
    # so its untwisted series at least is polynomial.
    assert polynomial or name in ("c3", "taf_d6_alphabeta", "mixed")


peel_numerators = st.dictionaries(
    st.integers(min_value=-4, max_value=14),
    st.one_of(st.integers(-3, 3), st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    max_size=4,
).map(LaurentPolynomial)
peel_degrees = st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4)


@given(peel_numerators, peel_degrees, st.integers(-1, 1))
def test_exact_division_matches_the_window_peel_on_random_series(numerator, degrees, offset):
    _assert_peels_agree(HilbertSeries(numerator, degrees), max(len(degrees) + offset, 1))


@given(peel_degrees, st.lists(st.integers(min_value=1, max_value=8), max_size=2), st.integers(-1, 1))
def test_exact_division_matches_the_window_peel_on_products(degrees, extra, offset):
    # 1/prod(1 - t^e), and the same times a product of factors 1 - t^d,
    # which the canonical reduction may or may not cancel.
    series = HilbertSeries(1, degrees)
    assert _assert_peels_agree(series, len(degrees)) == tuple(sorted(degrees))
    _assert_peels_agree(series, max(len(degrees) + offset, 1))
    _assert_peels_agree(series * HilbertSeries(prod_one_minus(extra)), len(degrees))


def test_refusal_names_the_degrees_divided_away_and_the_rest():
    with pytest.raises(NotPolynomial, match=r"for e in \[8\] leaves 1 - t\^12$"):
        extract_polynomial_degrees(HilbertSeries(1, [8, 12]), 1)
    with pytest.raises(NotPolynomial, match="numerator does not divide its denominator"):
        extract_polynomial_degrees(HilbertSeries(LaurentPolynomial({0: 1, 8: 1}), [8, 8]), 2)
    with pytest.raises(NotPolynomial, match=r"^0 is not"):
        extract_polynomial_degrees(HilbertSeries(0), 1)


@pytest.mark.parametrize("name", [*GROUP_FIXTURES, "s4"])
def test_degrees_and_solomon_expand_no_coefficient_window(name, monkeypatch):
    group, table = _in_test_or_fixture_group(name)

    def refuse(self, lo, hi):
        raise AssertionError(f"expanded {self} over degrees {lo}..{hi}")

    monkeypatch.setattr(HilbertSeries, "expand", refuse)
    twists = ["trivial", "det", *(table.names if table else ())]
    reports = [molien_series(group, twist, table=table) for twist in twists]
    solomon = verify_solomon(group)
    assert solomon.verified
    assert solomon.invariant_degrees == reports[0].polynomial_degrees


# -- refusals that no command reaches ---------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: generate_group([[[-1]]], [(2, 1)], cap=0), ValueError, "cap must be at least 1"),
        (
            lambda: generate_group([[[-1]]], [(0, 1)]),
            ValueError,
            r"bad block \(0, 1\): degree and dimension must be >= 1",
        ),
        (
            lambda: character_table(load_group_fixture("c2_negation").build(), [("a", (1, 1)), ("a", (1, -1))]),
            ValueError,
            "duplicate character name 'a'",
        ),
        (lambda: extract_polynomial_degrees(HilbertSeries(1, [2]), 0), ValueError, "rank must be >= 1"),
    ],
    ids=["cap-zero", "block-degree-zero", "duplicate-character", "rank-zero"],
)
def test_refusals_of_direct_calls(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_peel_stops_where_one_minus_t_to_the_e_does_not_divide():
    # 1/(1 - t^2 + t^4) = (1 + t^2)(1 - t^6)/(1 - t^12): the peel reads e = 2
    # off 1 - t^2 + t^4, and 1 - t^2 does not divide it.
    series = HilbertSeries(LaurentPolynomial({0: 1, 2: 1}) * prod_one_minus([6]), [12])
    assert series * HilbertSeries(LaurentPolynomial({0: 1, 2: -1, 4: 1})) == 1
    for rank in (1, 2):
        with pytest.raises(NotPolynomial, match=r"for e in \[\] leaves 1 - t\^2 \+ t\^4$"):
            extract_polynomial_degrees(series, rank)


def test_a_verified_solomon_check_has_no_witness():
    solomon = verify_solomon(s4_group())
    assert solomon.verified and solomon.witness() == ""
