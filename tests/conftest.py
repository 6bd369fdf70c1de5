from fractions import Fraction

import pytest

from gorenstein_kit.dataset import load_group_fixture, load_ring_fixture


def in_exact_form(c):
    """An int exactly when integral, otherwise a Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


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
    group, table = load_group_fixture("c2_negation").build()
    return group


@pytest.fixture(scope="session")
def c2_table():
    _, table = load_group_fixture("c2_negation").build()
    return table


@pytest.fixture(scope="session")
def sigma3_group():
    group, _ = load_group_fixture("sigma3_standard").build()
    return group


@pytest.fixture(scope="session")
def sigma3_table():
    _, table = load_group_fixture("sigma3_standard").build()
    return table


@pytest.fixture(scope="session")
def all_group_fixtures():
    from gorenstein_kit.dataset import GROUP_FIXTURES

    out = {}
    for name in GROUP_FIXTURES:
        group, _ = load_group_fixture(name).build()
        out[name] = group
    return out
