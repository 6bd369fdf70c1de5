"""Descended Gorenstein and Anderson shifts for rings of invariants."""

import pytest

from gorenstein_kit.descent import (
    BlockMismatch,
    NotPolynomialBase,
    NotPolynomialInvariants,
    cross_check_invariant_shift,
    descent_report,
)
from gorenstein_kit.graded_ring import gorenstein_shift_formula
from gorenstein_kit.invariants import generate_group


def test_negation_chain(ku, c2_group):
    report = descent_report(ku, c2_group)
    assert report.base_shift_a == -3
    assert report.invariant_degrees == (4,)
    assert report.solomon_b == -2
    assert report.descended_gorenstein_shift == -5
    assert report.descended_anderson_shift == -4
    assert report.solomon_verified
    assert gorenstein_shift_formula(report.invariant_presentation) == -5
    assert cross_check_invariant_shift(report)[0]


def test_standard_action_chain(tmf2, sigma3_group):
    report = descent_report(tmf2, sigma3_group)
    assert report.base_shift_a == -10
    assert report.invariant_degrees == (8, 12)
    assert report.solomon_b == -12
    assert report.descended_gorenstein_shift == -22
    assert report.descended_anderson_shift == -21
    assert report.solomon_verified
    assert gorenstein_shift_formula(report.invariant_presentation) == -22
    assert cross_check_invariant_shift(report)[0]


def test_trivial_group_descends_to_itself(tmf2):
    trivial = generate_group([], [(4, 2)], name="trivial")
    report = descent_report(tmf2, trivial)
    assert report.solomon_b == 0
    assert report.invariant_degrees == (4, 4)
    assert report.descended_gorenstein_shift == report.base_shift_a
    assert cross_check_invariant_shift(report)[0]


def test_gorenstein_and_anderson_shifts_differ_by_one(ku, tmf2, c2_group, sigma3_group):
    for p, g in ((ku, c2_group), (tmf2, sigma3_group)):
        report = descent_report(p, g)
        assert report.descended_anderson_shift - report.descended_gorenstein_shift == 1


def test_hypersurface_base_is_refused(taf_d6, all_group_fixtures):
    with pytest.raises(NotPolynomialBase):
        descent_report(taf_d6, all_group_fixtures["taf_d6_alpha"])


def test_block_mismatch(ku, sigma3_group):
    with pytest.raises(BlockMismatch):
        descent_report(ku, sigma3_group)


def test_non_reflection_action_is_refused(tmf2):
    rotation = generate_group([[[0, -1], [1, -1]]], [(4, 2)], name="c3")
    with pytest.raises(NotPolynomialInvariants):
        descent_report(tmf2, rotation)


def test_invariant_presentation_is_polynomial(ku, c2_group):
    report = descent_report(ku, c2_group)
    inv = report.invariant_presentation
    assert not inv.relations
    assert inv.generator_degrees == (4,)
    assert inv.coefficient_label == ku.coefficient_label
