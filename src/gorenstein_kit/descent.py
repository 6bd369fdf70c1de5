"""Compose base-ring duality with invariant theory: descended shifts.

For a polynomial base ring acted on by a finite group with Gorenstein
invariants R^G, the Gorenstein shift of R^G is the base shift a plus the
supplement b read off M_det/M (see :func:`verify_solomon`), and the
localized invariants are self-dual with shift a + b + 1.  R^G's own shifts
come from its duality report, built from its Molien series with no
presentation; the prediction a + b is checked against that report.  For
integral (non-rational) coefficients this is a necessary condition and a
prediction of the shift, not a theorem, and reports should be labelled
accordingly.  Bases with relations are outside this regime and are refused.
"""

from __future__ import annotations

from typing import NamedTuple

from .duality import DualityReport, duality_report
from .graded_ring import (
    NotGorensteinSeries,
    RingPresentation,
    gorenstein_shift_formula,
    polynomial_presentation,
)
from .invariants import GradedGroupRep, SolomonVerification, verify_solomon
from .series import NotMonomialRatio


class NotPolynomialBase(ValueError):
    """The base presentation has relations; descent prediction needs a
    polynomial base ring."""


class BlockMismatch(ValueError):
    """The group's grading blocks do not match the ring's generator degrees."""


class DescentReport(NamedTuple):
    """The base shift, the Solomon check, and the invariant ring's own report.

    ``invariant`` is the duality report of R^G's Molien series at the
    group's dimension, so its ``shift_a`` is the descended Gorenstein shift
    a + b and its ``anderson_selfdual_display`` is a + b + 1 whenever the
    prediction holds.  ``invariant_presentation`` is the relation-free
    presentation on the invariant degrees, None without them.
    """

    base_shift_a: int
    solomon: SolomonVerification
    invariant: DualityReport
    invariant_presentation: RingPresentation | None


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
    (checked first, as by every group command), a relation-free base, and a
    Gorenstein R^G, else :class:`NotGorensteinSeries` names R^G and the
    first exponent at which M_det/M fails to be a signed power of t.
    """
    check_grading(p, group.blocks)
    if p.relations:
        raise NotPolynomialBase(
            f"{p.name}: base ring has relations; descent prediction needs a polynomial base"
        )
    a = gorenstein_shift_formula(p)
    name = f"{p.name}^{group.name or 'G'}"
    try:
        solomon = verify_solomon(group)
    except NotMonomialRatio as exc:
        raise NotGorensteinSeries(f"{name} is not Gorenstein: {exc}") from exc
    degrees = solomon.invariant_degrees
    return DescentReport(
        base_shift_a=a,
        solomon=solomon,
        invariant=duality_report(solomon.invariant_series, group.dimension, name),
        invariant_presentation=None if degrees is None else polynomial_presentation(
            name=name, coefficient_label=p.coefficient_label, degrees=degrees
        ),
    )


def cross_check_invariant_shift(report: DescentReport) -> tuple[bool, str]:
    """Whether the predicted shift a + b equals the one read off the
    functional equation of R^G's Molien series M, with a witness line.

    Two exact routes, b from M_det/M and the shift from M(1/t)/M(t), which
    Stanley's reciprocity M(1/t) = (-1)^n t^{sum d} M_det(t) relates.  The
    closed formula on invariant degrees e_i, -sum e - n, equals a + b by
    construction, so it is no third route.
    """
    predicted = report.base_shift_a + report.solomon.supplement
    by_series = report.invariant.shift_a
    return by_series == predicted, f"predicted a+b = {predicted}, functional equation {by_series}"
