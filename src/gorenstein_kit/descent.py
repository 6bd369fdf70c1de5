"""Compose base-ring duality with invariant theory: descended shifts.

For a polynomial base ring acted on by a finite group whose invariants are
again polynomial, the Gorenstein shift of the invariant ring is the base
shift a plus the Solomon supplement b, and the localized invariants are
self-dual with shift a + b + 1.  For integral (non-rational) coefficients
this is a necessary condition and a prediction of the shift, not a theorem,
and reports should be labelled accordingly.  Bases with relations are
outside this regime and are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded_ring import (
    RingPresentation,
    gorenstein_shift_formula,
    gorenstein_shift_stanley,
    krull_dimension,
    polynomial_presentation,
)
from .invariants import GradedGroupRep, NotPolynomial, verify_solomon
from .series import HilbertSeries


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
    """Shift bookkeeping for the passage to a ring of invariants.

    ``invariant_presentation`` is the relation-free presentation on the
    extracted invariant degrees; its closed-formula shift always equals
    ``descended_gorenstein_shift``, which is how the two routes of the
    prediction are kept consistent.
    """

    base: RingPresentation
    group: GradedGroupRep
    base_shift_a: int
    invariant_degrees: tuple[int, ...]
    solomon_b: int
    descended_gorenstein_shift: int
    descended_anderson_shift: int
    solomon_verified: bool
    solomon_witness: str
    invariant_presentation: RingPresentation
    invariant_series: HilbertSeries


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
    degrees = solomon.invariant_degrees
    b = solomon.supplement
    invariant_presentation = polynomial_presentation(
        name=f"{p.name}^{group.name or 'G'}",
        coefficient_label=p.coefficient_label,
        degrees=degrees,
    )
    return DescentReport(
        base=p,
        group=group,
        base_shift_a=a,
        invariant_degrees=degrees,
        solomon_b=b,
        descended_gorenstein_shift=a + b,
        descended_anderson_shift=a + b + 1,
        solomon_verified=solomon.verified,
        solomon_witness=solomon.witness(),
        invariant_presentation=invariant_presentation,
        invariant_series=solomon.invariant_series,
    )


def cross_check_invariant_shift(report: DescentReport) -> tuple[bool, str]:
    """Whether both independent routes agree with the predicted shift a + b,
    and a witness line naming all three.

    Route one: the closed formula on the extracted invariant presentation.
    Route two: the functional-equation extraction from the Molien series at
    the invariant ring's Krull dimension.
    """
    predicted = report.base_shift_a + report.solomon_b
    by_formula = gorenstein_shift_formula(report.invariant_presentation)
    by_series = gorenstein_shift_stanley(
        report.invariant_series, krull_dimension(report.invariant_presentation)
    )
    witness = (
        f"predicted a+b = {predicted}, closed formula {by_formula}, functional equation {by_series}"
    )
    return by_formula == predicted and by_series == predicted, witness
