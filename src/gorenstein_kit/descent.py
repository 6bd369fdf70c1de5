"""Compose base-ring duality with invariant theory: descended shifts.

For a polynomial base ring acted on by a finite group whose invariants are
again polynomial, the Gorenstein shift of the invariant ring is the base
shift a plus the Solomon supplement b, and the localized invariants are
self-dual with shift a + b + 1.  The invariant ring's own shifts come from
its duality report, built from its Molien series with no presentation; the
prediction a + b is checked against that report and against the closed
formula on the extracted invariant degrees.  For integral (non-rational)
coefficients this is a necessary condition and a prediction of the shift,
not a theorem, and reports should be labelled accordingly.  Bases with
relations are outside this regime and are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .duality import DualityReport, duality_report
from .graded_ring import RingPresentation, gorenstein_shift_formula, polynomial_presentation
from .invariants import GradedGroupRep, NotPolynomial, SolomonVerification, verify_solomon


class NotPolynomialBase(ValueError):
    """The base presentation has relations; descent prediction needs a
    polynomial base ring."""


class NotPolynomialInvariants(ArithmeticError):
    """Invariant degrees could not be extracted: the invariants are not a
    polynomial ring (or the group is not generated by pseudoreflections), so
    no descent prediction is available."""


class BlockMismatch(ValueError):
    """The group's grading blocks do not match the ring's generator degrees."""


@dataclass(frozen=True)
class DescentReport:
    """The base shift, the Solomon check, and the invariant ring's own report.

    ``invariant`` is the duality report of R^G's Molien series at the
    group's dimension, so its ``shift_a`` is the descended Gorenstein shift
    a + b and its ``anderson_selfdual_display`` is a + b + 1 whenever the
    prediction holds.  ``invariant_presentation`` is the relation-free
    presentation on the extracted invariant degrees, whose closed-formula
    shift is the third value :func:`cross_check_invariant_shift` compares.
    """

    base_shift_a: int
    solomon: SolomonVerification
    invariant: DualityReport
    invariant_presentation: RingPresentation


def check_grading(p: RingPresentation, blocks: tuple[tuple[int, int], ...]) -> None:
    """Refuse grading blocks whose coordinate degrees, in block order, differ
    from the ring's generator degrees in generator order (matrix columns
    follow the ring's generators), before any group is enumerated."""
    degrees = [degree for degree, dim in blocks for _ in range(dim)]
    if list(p.generator_degrees) != degrees:
        raise BlockMismatch(
            f"group grading {degrees} does not match "
            f"generator degrees {list(p.generator_degrees)} of {p.name}"
        )


def descent_report(p: RingPresentation, group: GradedGroupRep) -> DescentReport:
    """Predict the invariant ring's shifts from the base ring and the action.

    Requires generator degrees that match the group's grading blocks
    (checked first, as by every group command), a relation-free base, and
    an action whose invariants are polynomial (otherwise
    :class:`NotPolynomialInvariants`: the Gorenstein property need not
    descend, and this library makes no prediction).
    """
    check_grading(p, group.blocks)
    if p.relations:
        raise NotPolynomialBase(
            f"{p.name}: base ring has relations; descent prediction needs a polynomial base"
        )
    a = gorenstein_shift_formula(p)
    try:
        solomon = verify_solomon(group)
    except NotPolynomial as exc:
        raise NotPolynomialInvariants(
            f"{p.name}: invariants of {group.name or 'the group'} are not polynomial; {exc}"
        ) from exc
    name = f"{p.name}^{group.name or 'G'}"
    return DescentReport(
        base_shift_a=a,
        solomon=solomon,
        invariant=duality_report(solomon.invariant_series, group.dimension, name),
        invariant_presentation=polynomial_presentation(
            name=name, coefficient_label=p.coefficient_label, degrees=solomon.invariant_degrees
        ),
    )


def cross_check_invariant_shift(report: DescentReport) -> tuple[bool, str]:
    """Whether both independent routes agree with the predicted shift a + b,
    and a witness line naming all three.

    Route one: the closed formula on the extracted invariant presentation.
    Route two: the invariant ring's duality report, whose shift is read off
    the functional equation of its Molien series.
    """
    predicted = report.base_shift_a + report.solomon.supplement
    by_formula = gorenstein_shift_formula(report.invariant_presentation)
    by_series = report.invariant.shift_a
    witness = (
        f"predicted a+b = {predicted}, closed formula {by_formula}, functional equation {by_series}"
    )
    return by_formula == predicted and by_series == predicted, witness
