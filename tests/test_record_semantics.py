"""The records keep the semantics of the frozen dataclasses they replaced.

Every record is immutable, compares and hashes by value, and prints as
``Name(field=value, ...)``.  ``GradedGroupRep`` compares and hashes as a
tuple of all its fields, the class record included, and prints its name,
blocks, generators and order only: every field follows from the name,
blocks and generators, so two builds from one input are equal.
``GradedModuleSeries`` compares without its label and, like its series, is
unhashable.  The repr literals below are what the dataclasses printed.
"""

import pytest

from gorenstein_kit.dataset import PaperTableRow, load_group_fixture
from gorenstein_kit.descent import descent_report
from gorenstein_kit.duality import duality_report
from gorenstein_kit.graded_ring import (
    GradedModuleSeries,
    RingPresentation,
    hilbert_series,
    polynomial_presentation,
)
from gorenstein_kit.invariants import (
    GradedGroupRep,
    builtin_character_table,
    generate_group,
    molien_series,
    verify_solomon,
)


def _c2():
    return generate_group([[[-1]]], [(2, 1)], name="c2")


def _ku():
    return RingPresentation("ku", "Z", (("v", 2),))


# Each builds a fresh instance, equal to any other it builds.
FACTORIES = {
    "PaperTableRow": lambda: PaperTableRow("tmf(3)", "2", "BT_48", (2, 2), None, -6),
    "RingPresentation": _ku,
    "GradedModuleSeries": lambda: GradedModuleSeries(hilbert_series(_ku()), 3, True, "x"),
    "GroupInputRecord": lambda: load_group_fixture("c2_negation"),
    "GradedGroupRep": _c2,
    "RationalCharacterTable": lambda: builtin_character_table(_c2()),
    "MolienReport": lambda: molien_series(_c2()),
    "SolomonVerification": lambda: verify_solomon(_c2()),
    "DualityReport": lambda: duality_report(hilbert_series(_ku()), 1, "ku"),
    "DescentReport": lambda: descent_report(polynomial_presentation("b", "Q", [2]), _c2()),
}

# The records that hold a series are unhashable, as the series is.
HASHABLE = {"PaperTableRow", "RingPresentation", "GroupInputRecord", "GradedGroupRep", "RationalCharacterTable"}

HILBERT_KU = "HilbertSeries(LaurentPolynomial({0: 1}), (2,))"
HILBERT_C2 = "HilbertSeries(LaurentPolynomial({0: 1}), (4,))"
SOLOMON_C2 = (
    f"SolomonVerification(verified=True, supplement=-2, invariant_degrees=(4,), invariant_series={HILBERT_C2}, "
    "det_twisted_series=HilbertSeries(LaurentPolynomial({2: 1}), (4,)))"
)
REPRS = {
    "PaperTableRow": "PaperTableRow(name='tmf(3)', prime_label='2', group_label='BT_48', generator_degrees=(2, 2), "
    "relation_degree=None, expected_shift_a=-6)",
    "RingPresentation": "RingPresentation(name='ku', coefficient_label='Z', generators=(('v', 2),), relations=(), "
    "regular_sequence_asserted=True)",
    "GradedModuleSeries": f"GradedModuleSeries(series={HILBERT_KU}, shift=3, dualized=True, label='x')",
    "GroupInputRecord": "GroupInputRecord(name='c2_negation', blocks=((2, 1),), generators=(((-1,),),), "
    "character_rows=(('triv', (1, 1)), ('sign', (1, -1))), class_sizes=(1, 1))",
    "GradedGroupRep": "GradedGroupRep(name='c2', blocks=((2, 1),), generators=(((-1,),),), order=2)",
    "RationalCharacterTable": "RationalCharacterTable(class_sizes=(1, 1), "
    "irreducibles=(('triv', (1, 1)), ('sign', (1, -1))))",
    "MolienReport": f"MolienReport(series={HILBERT_C2}, twist='trivial', polynomial_degrees=(4,), "
    "pseudoreflection_count=1)",
    "SolomonVerification": SOLOMON_C2,
    "DualityReport": f"DualityReport(dim=1, shift_a=-3, gamma_series=GradedModuleSeries(series={HILBERT_KU}, "
    "shift=-3, dualized=True, label='pi_*(Gamma r)'), "
    f"cech_ring_part=GradedModuleSeries(series={HILBERT_KU}, shift=0, dualized=False, label='r_*'), "
    f"cech_dual_part=GradedModuleSeries(series={HILBERT_KU}, shift=-2, dualized=True, "
    "label='Sigma^-2 dual(r_*)'), anderson_shift=2, splitting=<Splitting.VANISHING_RANGE: 'vanishing-range'>, "
    "recovery_hypotheses_hold=True)",
    "DescentReport": f"DescentReport(base_shift_a=-3, solomon={SOLOMON_C2}, "
    f"invariant=DualityReport(dim=1, shift_a=-5, gamma_series=GradedModuleSeries(series={HILBERT_C2}, "
    "shift=-5, dualized=True, label='pi_*(Gamma r)'), "
    f"cech_ring_part=GradedModuleSeries(series={HILBERT_C2}, shift=0, dualized=False, label='r_*'), "
    f"cech_dual_part=GradedModuleSeries(series={HILBERT_C2}, shift=-4, dualized=True, "
    "label='Sigma^-4 dual(r_*)'), anderson_shift=4, splitting=<Splitting.VANISHING_RANGE: 'vanishing-range'>, "
    "recovery_hypotheses_hold=True), invariant_presentation=RingPresentation(name='b^c2', coefficient_label='Q', "
    "generators=(('f1', 4),), relations=(), regular_sequence_asserted=True))",
}


@pytest.mark.parametrize("name", FACTORIES)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = FACTORIES[name]()
    for field in (*type(record)._fields, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == FACTORIES[name]()


@pytest.mark.parametrize("name", FACTORIES)
def test_equal_instances_compare_and_hash_equal(name):
    left, right = FACTORIES[name](), FACTORIES[name]()
    assert left is not right
    assert left == right and not left != right
    if name in HASHABLE:
        assert hash(left) == hash(right)
    else:
        with pytest.raises(TypeError):
            hash(left)


@pytest.mark.parametrize("name", FACTORIES)
def test_repr_is_the_dataclass_repr(name):
    assert repr(FACTORIES[name]()) == REPRS[name]


def test_group_equality_is_tuple_equality_over_every_field():
    # Every field follows from the name, blocks and generators, so two builds
    # from one input compare and hash equal; changing any field, the class
    # record included, breaks equality, though the repr shows four fields.
    group, again = _c2(), _c2()
    assert group == again == tuple(again) and hash(group) == hash(again) == hash(tuple(again))
    assert GradedGroupRep._fields[-4:] == ("classes", "representatives", "class_orders", "block_factors")
    for field in GradedGroupRep._fields:
        other = group._replace(**{field: ()})
        assert other != group, field
        assert (repr(other) == repr(group)) == (field not in ("name", "blocks", "generators", "order")), field


def test_module_series_equality_ignores_the_label():
    series = hilbert_series(_ku())
    assert GradedModuleSeries(series, 3, True, "a") == GradedModuleSeries(series, 3, True, "b")
    assert not GradedModuleSeries(series, 3, True, "a") != GradedModuleSeries(series, 3, True, "b")
    assert GradedModuleSeries(series, 3, True, "a") != GradedModuleSeries(series, 2, True, "a")
    assert GradedModuleSeries(series, 3, True, "a") != GradedModuleSeries(series, 3, False, "a")
    assert GradedModuleSeries(series, 3) != GradedModuleSeries(hilbert_series(polynomial_presentation("", "", [4])), 3)


BAD_PRESENTATIONS = {
    "no_generator": {"generators": ()},
    "excess_relations": {"relations": (("f", 4), ("g", 6))},
    "degree_one_relation": {"relations": (("f", 1),)},
    "repeated_generator": {"generators": (("x", 2), ("x", 4))},
    "relation_named_as_generator": {"relations": (("x", 4),)},
    "degree_zero_generator": {"generators": (("x", 0),)},
}


@pytest.mark.parametrize("bad", BAD_PRESENTATIONS.values(), ids=BAD_PRESENTATIONS)
def test_presentation_validates_on_every_construction_path(bad):
    good = RingPresentation("bad", "", (("x", 2),))
    fields = good._asdict() | bad
    paths = {
        "positional": lambda: RingPresentation(*fields.values()),
        "keyword": lambda: RingPresentation(**fields),
        "_make": lambda: RingPresentation._make(fields.values()),
        "_replace": lambda: good._replace(**bad),
    }
    for path, build in paths.items():
        with pytest.raises(ValueError):
            build()
            pytest.fail(f"{path} accepted {bad}")


def test_presentation_normalises_on_every_construction_path():
    expected = RingPresentation("r", "Z", (("x", 2),), (("f", 4),))
    assert RingPresentation("r", "Z", [["x", 2]], [["f", 4]]) == expected
    assert RingPresentation._make(["r", "Z", [["x", 2]], [["f", 4]]]) == expected
    assert expected._replace(generators=[["x", 2]]) == expected
    assert type(expected._replace(generators=[["x", 2]]).generators[0]) is tuple
