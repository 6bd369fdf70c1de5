#!/usr/bin/env python3
"""Walk the two classical descent chains end to end, printing every number
the library computes along the way: base shifts, Molien series, invariant
degrees, Solomon supplements, and descended shifts."""

from gorenstein_kit.dataset import load_group_fixture, load_ring_fixture
from gorenstein_kit.descent import cross_check_invariant_shift, descent_report
from gorenstein_kit.duality import ring_duality_report
from gorenstein_kit.graded_ring import hilbert_series
from gorenstein_kit.invariants import (
    decompose,
    format_polynomial,
    invariant_basis,
    molien_series,
    sym_power_characters,
)


def chain(ring_name: str, group_name: str, sym_powers: int = 0) -> None:
    ring = load_ring_fixture(ring_name)
    record = load_group_fixture(group_name)
    group = record.build()
    print(f"== {ring.name} with {group.name} (order {group.order}) ==")
    print(f"  coefficients {ring.coefficient_label}, series {hilbert_series(ring)}")

    base = ring_duality_report(ring)
    first, second = base.display_strings()
    print(f"  base gorenstein shift a = {base.shift_a}; {second} ({first})")

    trivial = molien_series(group)
    print(f"  molien series {trivial.series}")
    degrees = trivial.polynomial_degrees
    shape = (f"invariant degrees {list(degrees)}" if degrees is not None
             else "invariants are not polynomial at this rank")
    print(f"  {shape}; {trivial.pseudoreflection_count} pseudoreflections")

    report = descent_report(ring, group)
    solomon = report.solomon
    print(f"  det-twisted series {solomon.det_twisted_series}; "
          f"supplement b = {solomon.supplement} "
          f"({'verified' if solomon.verified else 'FAILED: ' + solomon.witness()})")
    print(f"  descended gorenstein shift a+b = {report.invariant.shift_a}")
    print(f"  descended anderson shift a+b+1 = {report.invariant.anderson_selfdual_display}")
    consistent, witness = cross_check_invariant_shift(report)
    print(f"  cross-check: {'ok' if consistent else f'MISMATCH ({witness})'}")

    symbols = [s for s, _ in ring.generators]
    for degree in sorted(set(solomon.invariant_degrees or ())):
        for poly in invariant_basis(group, degree):
            print(f"  invariant of degree {degree}: {format_polynomial(poly, symbols)}")

    if sym_powers:
        table = record.table(group)
        print(f"  symmetric powers against ({', '.join(table.names)}):")
        for n, values in enumerate(sym_power_characters(group, sym_powers)):
            print(f"    Sym^{n}: {decompose(values, table)}")
    print()


if __name__ == "__main__":
    chain("ku", "c2_negation")
    chain("tmf2", "sigma3_standard", sym_powers=8)
