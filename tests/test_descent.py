"""Descended Gorenstein and Anderson shifts for rings of invariants."""

import sys

import pytest
from conftest import signed_permutation_group

from gorenstein_kit import graded_ring
from gorenstein_kit.descent import (
    BlockMismatch,
    NotPolynomialBase,
    cross_check_invariant_shift,
    descent_report,
)
from gorenstein_kit.duality import DualityReport, duality_report
from gorenstein_kit.graded_ring import gorenstein_shift_formula, polynomial_presentation
from gorenstein_kit.invariants import coordinate_degrees, generate_group


def test_negation_chain(ku, c2_group):
    report = descent_report(ku, c2_group)
    assert report.base_shift_a == -3
    assert report.solomon.invariant_degrees == (4,)
    assert report.solomon.supplement == -2
    assert report.invariant.shift_a == -5
    assert report.invariant.anderson_selfdual_display == -4
    assert report.solomon.verified
    assert gorenstein_shift_formula(report.invariant_presentation) == -5
    assert cross_check_invariant_shift(report)[0]


def test_standard_action_chain(tmf2, sigma3_group):
    report = descent_report(tmf2, sigma3_group)
    assert report.base_shift_a == -10
    assert report.solomon.invariant_degrees == (8, 12)
    assert report.solomon.supplement == -12
    assert report.invariant.shift_a == -22
    assert report.invariant.anderson_selfdual_display == -21
    assert report.solomon.verified
    assert gorenstein_shift_formula(report.invariant_presentation) == -22
    assert cross_check_invariant_shift(report)[0]


def test_trivial_group_descends_to_itself(tmf2):
    trivial = generate_group([], [(4, 2)], name="trivial")
    report = descent_report(tmf2, trivial)
    assert report.solomon.supplement == 0
    assert report.solomon.invariant_degrees == (4, 4)
    assert report.invariant.shift_a == report.base_shift_a
    assert cross_check_invariant_shift(report)[0]


def test_gorenstein_and_anderson_shifts_differ_by_one(ku, tmf2, c2_group, sigma3_group):
    for p, g in ((ku, c2_group), (tmf2, sigma3_group)):
        report = descent_report(p, g)
        assert report.invariant.anderson_selfdual_display - report.invariant.shift_a == 1


def test_hypersurface_base_is_refused(taf_d6, all_group_fixtures):
    with pytest.raises(NotPolynomialBase):
        descent_report(taf_d6, all_group_fixtures["taf_d6_alpha"])


def test_block_mismatch(ku, sigma3_group):
    with pytest.raises(BlockMismatch):
        descent_report(ku, sigma3_group)


def test_non_reflection_action_descends_to_the_base_shift(tmf2):
    # C_3 in SL(V) has no pseudoreflection: its invariants are not
    # polynomial, but R^G is Gorenstein with b = 0 (Watanabe).
    rotation = generate_group([[[0, -1], [1, -1]]], [(4, 2)], name="c3")
    report = descent_report(tmf2, rotation)
    assert report.solomon.invariant_degrees is None
    assert report.invariant_presentation is None
    assert report.solomon.verified and report.solomon.supplement == 0
    assert report.invariant.shift_a == report.base_shift_a == -10
    assert cross_check_invariant_shift(report) == (
        True, "predicted a+b = -10, functional equation -10"
    )


def test_invariant_presentation_is_polynomial(ku, c2_group):
    report = descent_report(ku, c2_group)
    inv = report.invariant_presentation
    assert not inv.relations
    assert inv.generator_degrees == (4,)
    assert inv.coefficient_label == ku.coefficient_label


def _descent_cases(all_ring_fixtures, all_group_fixtures):
    """(base ring, group) for both fixture chains, the trivial group, S_4 and B_3."""
    tmf2 = all_ring_fixtures["tmf2"]
    cases = [
        (all_ring_fixtures["ku"], all_group_fixtures["c2_negation"]),
        (tmf2, all_group_fixtures["sigma3_standard"]),
        (tmf2, generate_group([], [(4, 2)], name="trivial")),
    ]
    for group in (signed_permutation_group(4, signed=False), signed_permutation_group(3, signed=True)):
        cases.append((polynomial_presentation("base", "Q", coordinate_degrees(group.blocks)), group))
    return cases


def test_invariant_report_is_the_duality_report_of_the_molien_series(
    all_ring_fixtures, all_group_fixtures
):
    for p, group in _descent_cases(all_ring_fixtures, all_group_fixtures):
        report = descent_report(p, group)
        expected = duality_report(
            report.solomon.invariant_series, group.dimension, f"{p.name}^{group.name}"
        )
        for name in DualityReport._fields:
            assert getattr(report.invariant, name) == getattr(expected, name), (group.name, name)
        shift = report.invariant.shift_a
        assert shift == report.base_shift_a + report.solomon.supplement
        assert shift == gorenstein_shift_formula(report.invariant_presentation)
        assert report.invariant.anderson_selfdual_display == shift + 1
        assert cross_check_invariant_shift(report)[0]


def test_descent_reads_the_functional_equation_once(ku, c2_group, monkeypatch):
    # Counted under every package module that binds the name.
    calls = []
    original = graded_ring.gorenstein_shift_stanley
    for name, module in list(sys.modules.items()):
        if name.startswith("gorenstein_kit") and hasattr(module, "gorenstein_shift_stanley"):
            monkeypatch.setattr(
                module, "gorenstein_shift_stanley", lambda s, dim: calls.append(dim) or original(s, dim)
            )
    report = descent_report(ku, c2_group)
    assert cross_check_invariant_shift(report)[0]
    assert calls == [1]
