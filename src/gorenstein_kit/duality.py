"""Coefficient-level bookkeeping for local cohomology and duality.

For a graded complete intersection r_* of Krull dimension rho with
Gorenstein shift a, local cohomology at the irrelevant ideal is concentrated
in cohomological degree rho, where it is Sigma^{a+rho} applied to the
degreewise dual of r_*.  Desuspending by the cohomological degree gives the
homotopy of the torsion (stable Koszul) construction, Sigma^a dual(r_*), and
the localized ring splits degreewise as r_* plus Sigma^{a+1} dual(r_*).  The
dual of the ring is then a Sigma^{-a-1} shift of the ring itself; both of the
usual display conventions for that shift are rendered, since they differ by a
sign that is easy to get wrong downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .graded_ring import (
    GradedModuleSeries,
    RingPresentation,
    gorenstein_shift_formula,
    hilbert_series,
    krull_dimension,
)
from .series import HilbertSeries


class ZeroDimensional(ValueError):
    """Krull dimension zero: no interesting local cohomology bookkeeping."""


class TorsionNotVanishing(ArithmeticError):
    """The torsion homotopy has a nonzero coefficient above the Gorenstein shift."""


class Splitting(enum.Enum):
    """How the localized ring decomposes into ring and dual summands."""

    VANISHING_RANGE = "vanishing-range"
    PARITY_DISJOINT = "parity-disjoint"
    NOT_SPLIT = "not-split"


class LocalCohomology(NamedTuple):
    cohomological_degree: int
    module: GradedModuleSeries
    det_twisted: bool


class CechHomotopy(NamedTuple):
    ring_part: GradedModuleSeries
    dual_part: GradedModuleSeries
    splitting: Splitting


def local_cohomology_series(p: RingPresentation) -> LocalCohomology:
    """Top local cohomology of the presented ring, as a graded module series.

    Returns the cohomological degree rho = Krull dimension, the module
    Sigma^{a+rho} dual(r_*), and whether the answer carries a determinant
    twist.  The twist appears exactly in the relation-free (polynomial)
    case; it is metadata only, since twisting by a character does not change
    graded ranks.
    """
    if not p.regular_sequence_asserted:
        raise ValueError(
            f"{p.name}: local cohomology needs the relations asserted as a regular sequence"
        )
    rho = krull_dimension(p)
    if rho == 0:
        raise ZeroDimensional(f"{p.name}: Krull dimension 0")
    a = gorenstein_shift_formula(p)
    module = GradedModuleSeries(
        hilbert_series(p),
        shift=a + rho,
        dualized=True,
        label=f"Sigma^{a + rho} dual(r_*)",
    )
    return LocalCohomology(rho, module, det_twisted=p.is_polynomial)


def _torsion_part(lc: LocalCohomology) -> GradedModuleSeries:
    return lc.module.suspended(-lc.cohomological_degree, label="pi_*(Gamma r)")


def gamma_homotopy(p: RingPresentation) -> GradedModuleSeries:
    """Homotopy of the torsion construction: Sigma^a dual(r_*).

    Equals the top local cohomology desuspended by the cohomological degree
    (the homotopy spectral sequence collapses because local cohomology sits
    in one degree).
    """
    return _torsion_part(local_cohomology_series(p))


def _cech_split(series: HilbertSeries, a: int) -> CechHomotopy:
    ring_part = GradedModuleSeries(series, shift=0, dualized=False, label="r_*")
    dual_part = GradedModuleSeries(
        series, shift=a + 1, dualized=True, label=f"Sigma^{a + 1} dual(r_*)"
    )
    if a <= -2:
        splitting = Splitting.VANISHING_RANGE
    elif a % 2 == 0 and series.substitute_negative() == series:
        splitting = Splitting.PARITY_DISJOINT
    else:
        splitting = Splitting.NOT_SPLIT
    return CechHomotopy(ring_part, dual_part, splitting)


def cech_homotopy(p: RingPresentation) -> CechHomotopy:
    """The two degreewise summands of the localized ring, with a splitting tag.

    The splitting is VANISHING_RANGE when a <= -2 (the torsion part maps to
    the ring by zero for degree reasons); otherwise PARITY_DISJOINT when the
    ring sits in even degrees and a is even, so the shifted dual sits in odd
    degrees; otherwise NOT_SPLIT, in which case the two series are only an
    associated-graded answer.
    """
    return _cech_split(hilbert_series(p), gorenstein_shift_formula(p))


@dataclass(frozen=True)
class DualityReport:
    """Everything this library can say about the duality of one presentation.

    ``anderson_shift`` is the exponent q in "the dual of R is Sigma^q R";
    the other common convention reports -q - 1 + ... see
    :meth:`anderson_selfdual_display`.  ``recovery_hypotheses_hold`` records
    whether the shift is at most -2 and the torsion homotopy vanishes in
    degrees above the shift, the range conditions under which self-duality
    of the localized ring forces duality of the connective one.  The
    vanishing is checked when the report is built: :func:`duality_report`
    raises :class:`TorsionNotVanishing` when it fails.
    """

    presentation: RingPresentation
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


def duality_report(p: RingPresentation) -> DualityReport:
    """Assemble dimension, shift, torsion/localized series, and diagnostics.

    The series, the shift a and the dimension are computed once, for the
    local cohomology; the torsion and localized modules are read off it.
    """
    lc = local_cohomology_series(p)
    gamma = _torsion_part(lc)
    a = gamma.shift
    cech = _cech_split(gamma.series, a)
    # The gamma series vanishes in degrees >= a+1 by construction; check it
    # on a window rather than assuming it.
    for degree, c in enumerate(gamma.expand(a + 1, a + 200), start=a + 1):
        if c:
            raise TorsionNotVanishing(
                f"{p.name}: torsion homotopy is {c} in degree {degree}, above the shift {a}"
            )
    return DualityReport(
        presentation=p,
        dim=lc.cohomological_degree,
        shift_a=a,
        gamma_series=gamma,
        cech_ring_part=cech.ring_part,
        cech_dual_part=cech.dual_part,
        anderson_shift=-a - 1,
        splitting=cech.splitting,
        recovery_hypotheses_hold=a <= -2,
    )
