"""Coefficient-level bookkeeping for local cohomology and duality.

For a graded Gorenstein ring r_* of Krull dimension rho with Gorenstein
shift a, local cohomology at the irrelevant ideal is concentrated in
cohomological degree rho, where it is Sigma^{a+rho} applied to the
degreewise dual of r_*.  Desuspending by the cohomological degree gives the
homotopy of the torsion (stable Koszul) construction, Sigma^a dual(r_*), and
the localized ring splits degreewise as r_* plus Sigma^{a+1} dual(r_*).  The
dual of the ring is then a Sigma^{-a-1} shift of the ring itself; both of the
usual display conventions for that shift are rendered, since they differ by a
sign that is easy to get wrong downstream.

All of this reads only the Hilbert series, its Krull dimension and the shift
its functional equation gives (Stanley), so :func:`duality_report` needs no
presentation.  :func:`ring_duality_report` also checks a presented ring's
closed-formula shift against it on every call.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graded_ring import (
    GradedModuleSeries,
    RingPresentation,
    gorenstein_shift_formula,
    gorenstein_shift_stanley,
    hilbert_series,
    krull_dimension,
)
from .series import HilbertSeries


class ZeroDimensional(ValueError):
    """Krull dimension zero: no interesting local cohomology bookkeeping."""


class TorsionNotVanishing(ArithmeticError):
    """The torsion homotopy has a nonzero coefficient above the Gorenstein shift."""


class ShiftMismatch(ArithmeticError):
    """A presentation's closed-formula shift differs from the shift its
    Hilbert series' functional equation gives."""


class Splitting(enum.Enum):
    """How the localized ring decomposes into ring and dual summands."""

    VANISHING_RANGE = "vanishing-range"
    PARITY_DISJOINT = "parity-disjoint"
    NOT_SPLIT = "not-split"


def local_cohomology_series(series: HilbertSeries, dim: int, name: str) -> GradedModuleSeries:
    """Top local cohomology Sigma^{a+dim} dual(r_*), in cohomological degree
    dim; a series without the functional equation raises NotGorensteinSeries."""
    if dim == 0:
        raise ZeroDimensional(f"{name}: Krull dimension 0")
    a = gorenstein_shift_stanley(series, dim)
    label = f"Sigma^{a + dim} dual(r_*)"
    return GradedModuleSeries(series, shift=a + dim, dualized=True, label=label)


class DualityReport(NamedTuple):
    """Everything this library can say about the duality of one Gorenstein series.

    ``anderson_shift`` is the exponent q in "the dual of R is Sigma^q R";
    the other common convention, "Anderson self-dual of shift s", reports
    s = -q, see :attr:`anderson_selfdual_display`.  ``recovery_hypotheses_hold``
    records whether the shift is at most -2 and the torsion homotopy
    vanishes in degrees above the shift, the range conditions under which
    self-duality of the localized ring forces duality of the connective one.
    The vanishing is checked when the report is built: :func:`duality_report`
    raises :class:`TorsionNotVanishing` when it fails.
    """

    dim: int
    shift_a: int
    gamma_series: GradedModuleSeries
    cech_ring_part: GradedModuleSeries
    cech_dual_part: GradedModuleSeries
    anderson_shift: int
    splitting: Splitting
    recovery_hypotheses_hold: bool

    @property
    def anderson_selfdual_display(self) -> int:
        """Shift in the 'self-dual of shift a+1' display convention."""
        return self.shift_a + 1

    def display_strings(self) -> tuple[str, str]:
        """Both renderings of the duality statement for the localized ring."""
        return (
            f"Anderson self-dual of shift {self.shift_a + 1}",
            f"K^R = Sigma^{-self.shift_a - 1} R",
        )


def duality_report(series: HilbertSeries, dim: int, name: str) -> DualityReport:
    """Assemble the torsion and localized series and the diagnostics of a
    Gorenstein series of Krull dimension ``dim``; ``name`` labels errors.

    The torsion homotopy is the local cohomology desuspended by dim.  The
    localized ring splits as VANISHING_RANGE when a <= -2 (the torsion part
    maps to the ring by zero for degree reasons); otherwise PARITY_DISJOINT
    when the ring sits in even degrees and a is even, so the shifted dual
    sits in odd degrees; otherwise NOT_SPLIT, in which case the two series
    are only an associated-graded answer.
    """
    gamma = local_cohomology_series(series, dim, name).suspended(-dim, label="pi_*(Gamma r)")
    a = gamma.shift
    # gamma in degree a + k is the series' coefficient in degree -k, and the
    # series starts at its least numerator exponent m, so above the shift
    # gamma can be nonzero only in degrees a+1 .. a-m (none when m >= 0).
    m = series.numerator.min_exponent
    if m < 0:
        for degree, c in enumerate(gamma.expand(a + 1, a - m), start=a + 1):
            if c:
                raise TorsionNotVanishing(
                    f"{name}: torsion homotopy is {c} in degree {degree}, above the shift {a}"
                )
    if a <= -2:
        splitting = Splitting.VANISHING_RANGE
    elif a % 2 == 0 and series.substitute_negative() == series:
        splitting = Splitting.PARITY_DISJOINT
    else:
        splitting = Splitting.NOT_SPLIT
    return DualityReport(
        dim=dim,
        shift_a=a,
        gamma_series=gamma,
        cech_ring_part=GradedModuleSeries(series, shift=0, dualized=False, label="r_*"),
        cech_dual_part=GradedModuleSeries(
            series, shift=a + 1, dualized=True, label=f"Sigma^{a + 1} dual(r_*)"
        ),
        anderson_shift=-a - 1,
        splitting=splitting,
        recovery_hypotheses_hold=a <= -2,
    )


def ring_duality_report(p: RingPresentation) -> DualityReport:
    """The duality report of a presented complete intersection.

    Needs the relations asserted as a regular sequence.  The shift is read
    off the Hilbert series and checked against the closed degree formula;
    :class:`ShiftMismatch` names both when they differ.
    """
    if not p.regular_sequence_asserted:
        raise ValueError(
            f"{p.name}: local cohomology needs the relations asserted as a regular sequence"
        )
    report = duality_report(hilbert_series(p), krull_dimension(p), p.name)
    by_formula = gorenstein_shift_formula(p)
    if report.shift_a != by_formula:
        raise ShiftMismatch(
            f"{p.name}: gorenstein shift {by_formula} by the degree formula, "
            f"{report.shift_a} by the functional equation"
        )
    return report
