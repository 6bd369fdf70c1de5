from fractions import Fraction

import pytest

from gorenstein_kit.dataset import load_group_fixture, load_ring_fixture
from gorenstein_kit.invariants import generate_group
from gorenstein_kit.series import HilbertSeries


def in_exact_form(c):
    """An int exactly when integral, otherwise a Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def shifted(s, k):
    """t^k times the series s."""
    return HilbertSeries(s.numerator.shift(k), s.denominator_degrees)


def element_matrix(group, i):
    """Element i's matrix: column j is ``orbit[permutations[i][j]]``."""
    return tuple(zip(*(group.orbit[k] for k in group.permutations[i][: group.dimension])))


def signed_permutation_group(n, signed):
    """S_n, or B_n when signed, on n degree-2 coordinates: a transposition,
    an n-cycle and, for B_n, the sign change of the first coordinate."""

    def matrix(p, sign=1):
        return [[(sign if j == 0 else 1) if p[j] == i else 0 for j in range(n)] for i in range(n)]

    generators = [matrix([1, 0, *range(2, n)]), matrix([*range(1, n), 0])]
    if signed:
        generators.append(matrix(list(range(n)), -1))
    return generate_group(generators, [(2, n)], name=f"{'B' if signed else 'S'}{n}")


@pytest.fixture(scope="session")
def ku():
    return load_ring_fixture("ku")


@pytest.fixture(scope="session")
def tmf2():
    return load_ring_fixture("tmf2")


@pytest.fixture(scope="session")
def taf_d6():
    return load_ring_fixture("taf_d6")


@pytest.fixture(scope="session")
def all_ring_fixtures():
    from gorenstein_kit.dataset import RING_FIXTURES

    return {name: load_ring_fixture(name) for name in RING_FIXTURES}


@pytest.fixture(scope="session")
def c2_group():
    return load_group_fixture("c2_negation").build()


@pytest.fixture(scope="session")
def c2_table(c2_group):
    return load_group_fixture("c2_negation").table(c2_group)


@pytest.fixture(scope="session")
def sigma3_group():
    return load_group_fixture("sigma3_standard").build()


@pytest.fixture(scope="session")
def sigma3_table(sigma3_group):
    return load_group_fixture("sigma3_standard").table(sigma3_group)


@pytest.fixture(scope="session")
def all_group_fixtures():
    from gorenstein_kit.dataset import GROUP_FIXTURES

    return {name: load_group_fixture(name).build() for name in GROUP_FIXTURES}


@pytest.fixture
def failing_solomon():
    """``failing_solomon(twist)`` is a stand-in for ``verify_solomon`` whose
    determinant-twisted series is ``twist`` of the untwisted one and whose
    verdict is a failure, for testing the failure's witness."""
    from gorenstein_kit.invariants import verify_solomon

    def make(twist):
        def failing(group):
            real = verify_solomon(group)
            return real._replace(verified=False, det_twisted_series=twist(real.invariant_series))

        return failing

    return make
