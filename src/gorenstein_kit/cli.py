"""Command-line front end.

Subcommands mirror the library: ``hilbert``, ``shift``, ``duality``,
``molien``, ``sympow``, ``invgen``, ``descent`` and ``table``.  Ring and
group arguments are file paths; a name that is not a file names a bundled
fixture of its kind (see ``dataset.load_ring_fixture``), so
``gorenstein-kit shift taf_d15`` works out of the box.  Every subcommand
accepts ``--json`` for machine output: a single newline-terminated JSON
object with a versioned ``schema`` field, all rationals rendered as exact
``p/q`` strings.  The environment variable ``GORENSTEIN_KIT_MAX_ORDER``
overrides the group-enumeration cap.  ``invgen``, and ``descent`` on a
ring with relations, enumerate no group: they take the checked generators
from ``invariants.basis_orbit``, so the cap bounds them only through the
orbit of the basis vectors, which refuses an infinite group.

Exit status is 0 on success (for ``table``: all rows PASS), 1 on a
computation or input error, 2 on bad usage.  A warning, such as a failed
regularity check, is one ``warning: <Name>: <message>`` line on stderr.
When the first argument names a subcommand, its own parser reads the rest
and the top parser only refuses what it leaves (`_parse_args`); anything
else goes to the top parser.  Help, usage errors and the namespace are
argparse's either way.

Each ``cmd_*`` function returns its output and writes nothing: a JSON
payload, or the text lines after the ring header, built only for the mode
it prints.  `main` alone loads the ring and the group record (for every
subcommand whose parser declares a ``ring`` or ``group`` argument, the
group's blocks checked against the ring's grading), writes the ring header
in text mode and stamps ``"schema": "gorenstein-kit/<subcommand>/1"`` on
every JSON payload, renders the coefficient window of ``hilbert`` and
``molien`` in pieces of a bounded number of coefficients, so that no
window is ever one string, writes the output as pieces in one
``writelines`` call and sets the exit status.  One row builder and
piece loop (`_window_pieces`) renders every piece of both windows; text
and JSON differ only in their row and in that the text drops the rows of
zero coefficients.  Only ``sympow`` and ``molien --twist <name>`` read a
character table, so only they check the group file's table
(``GroupInputRecord.table``); ``invgen``, ``descent`` and the trivial and
det twists print nothing that depends on it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from itertools import compress

from .dataset import TABLE_ROWS, load_group_fixture, load_ring_fixture
from .descent import check_grading, cross_check_invariant_shift, descent_report
from .duality import DualityReport, ring_duality_report
from .graded_ring import (
    GradedModuleSeries,
    RingPresentation,
    gorenstein_shift_formula,
    gorenstein_shift_stanley,
    hilbert_series,
    krull_dimension,
)
from .invariants import (
    DEFAULT_ORDER_CAP,
    basis_orbit,
    decompose,
    format_polynomial,
    invariant_basis,
    molien_series,
    sym_power_characters,
)
from .records import GroupInputRecord, ParseError
from .series import HilbertSeries

SCHEMA_PREFIX = "gorenstein-kit"
MAX_ORDER_ENV = "GORENSTEIN_KIT_MAX_ORDER"
# Largest --max-degree of hilbert and molien, whose whole window is printed,
# and largest invgen --degree, whose monomial count expands a whole window.
MAX_WINDOW_DEGREE = 200_000
# Largest sympow --n: every power up to it is decomposed and printed.
MAX_SYMPOW_N = 20_000
# Coefficients per piece of a rendered window, so that no window is ever
# held as one string.  1000, so that every index of a piece after the first
# is the piece's number followed by three digits (`_window_pieces`).
_WINDOW_CHUNK = 1000


def _order_cap() -> int:
    raw = os.environ.get(MAX_ORDER_ENV)
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0  # not an integer: refused as a cap below 1
    if cap < 1:
        raise ValueError(f"{MAX_ORDER_ENV} must be a positive integer, got {raw!r}")
    return cap


# -- rendering helpers ---------------------------------------------------------


def _ring_json(p: RingPresentation) -> dict:
    return {
        "name": p.name,
        "coefficients": p.coefficient_label,
        "generators": [[s, d] for s, d in p.generators],
        "relations": [[s, d] for s, d in p.relations],
        "regular_sequence_asserted": p.regular_sequence_asserted,
    }


def _series_json(series: HilbertSeries) -> dict:
    return {
        "display": str(series),
        "numerator": [[e, str(c)] for e, c in series.numerator.terms()],
        "denominator_degrees": list(series.denominator_degrees),
    }


def _module_json(m: GradedModuleSeries, lo: int, hi: int) -> dict:
    return {
        "label": m.label,
        "shift": m.shift,
        "dualized": m.dualized,
        "series": _series_json(m.series),
        "window": {
            "from": lo,
            "to": hi,
            "coefficients": [str(c) for c in m.expand(lo, hi)],
        },
    }


def _window_pieces(coefficients: list, row: str, skip_zeros: bool = False) -> list[str]:
    """``row`` once for each coefficient of a window from degree 0, ``@``
    written as its index and ``%s`` as the coefficient (``str(c)`` of an int
    or Fraction), in pieces of `_WINDOW_CHUNK` coefficients, without the rows
    of zero coefficients if ``skip_zeros``.

    No index is converted on its own.  Each digit pass puts copies of the
    rows so far side by side, the k-th with the digit k written right after
    ``@`` (so the digit written last leads), as many as the window reaches.
    Piece 0 takes its indices below 10, 100 and 1000 from passes 1, 2 and 3
    with ``@`` dropped; piece P >= 1 takes pass 3 with ``@`` replaced by P.
    Each piece is the join of its rows (those ``itertools.compress`` keeps
    if ``skip_zeros``; else, after piece 0, a cut of pass 3 joined once),
    one ``str.replace`` and one ``%`` format."""
    rows, piece_rows = [row], []
    for reach in (0, 10, 100):  # @0..@9, then @00..@99, then @000..@999
        if len(coefficients) <= reach:
            break
        digits = "0123456789"[:-(-len(coefficients) // len(rows))]
        rows = [r.replace("@", at) for at in ["@" + d for d in digits] for r in rows]
        piece_rows += rows[reach:]
    template = "".join(rows)
    pieces = []
    for lo in range(0, len(coefficients), _WINDOW_CHUNK):
        chunk = coefficients[lo:lo + _WINDOW_CHUNK]
        if skip_zeros:
            kept, values = "".join(compress(piece_rows, chunk)), tuple(filter(None, chunk))
        else:  # every row of pass 3 has one width
            kept = template[:len(template) // len(rows) * len(chunk)] if lo else "".join(piece_rows[:len(chunk)])
            values = tuple(chunk)
        pieces.append(kept.replace("@", str(lo // _WINDOW_CHUNK or "")) % values)
        piece_rows = rows  # every piece after the first: pass 3
    return pieces


def _emit(pieces: list[str]) -> None:
    """Write the command's whole output, given as pieces, and a newline to
    stdout in one ``writelines`` call."""
    sys.stdout.writelines([*pieces, "\n"])


def _ring_header(p: RingPresentation) -> list[str]:
    gens = " ".join(f"{s}:{d}" for s, d in p.generators)
    lines = [f"ring {p.name}" + (f"  (coefficients {p.coefficient_label})" if p.coefficient_label else "")]
    lines.append(f"  generators: {gens}")
    if p.relations:
        rels = " ".join(f"{s}:{d}" for s, d in p.relations)
        lines.append(f"  relations:  {rels}")
    return lines


# -- subcommands ----------------------------------------------------------------
# ``hilbert`` and ``molien`` return their output with its coefficient window,
# ``table`` with its verdict; the others return the output alone.


def cmd_hilbert(args: argparse.Namespace, p: RingPresentation) -> tuple[dict | list[str], list]:
    series = hilbert_series(p)
    window = series.expand(0, args.max_degree)
    if args.json:
        return {"ring": _ring_json(p), "series": _series_json(series)}, window
    return [f"  hilbert series: {series}"], window


def cmd_shift(args: argparse.Namespace, p: RingPresentation) -> dict | list[str]:
    dim = krull_dimension(p)
    by_formula = gorenstein_shift_formula(p)
    by_series = gorenstein_shift_stanley(hilbert_series(p), dim)
    agree = by_formula == by_series
    if args.json:
        return {
            "ring": _ring_json(p),
            "krull_dimension": dim,
            "shift_by_formula": by_formula,
            "shift_by_series": by_series,
            "agree": agree,
        }
    return [
        f"  krull dimension: {dim}",
        f"  gorenstein shift by degree formula:      {by_formula}",
        f"  gorenstein shift by functional equation: {by_series}",
        f"  agreement: {'yes' if agree else 'NO -- MISMATCH'}",
    ]


def _duality_json(p: RingPresentation, report: DualityReport) -> dict:
    a = report.shift_a
    return {
        "ring": _ring_json(p),
        "krull_dimension": report.dim,
        "gorenstein_shift": a,
        "anderson_shift_exponent": report.anderson_shift,
        "anderson_selfdual_display": report.anderson_selfdual_display,
        "splitting": report.splitting.value,
        "recovery_hypotheses_hold": report.recovery_hypotheses_hold,
        "gamma": _module_json(report.gamma_series, a - 24, a),
        "cech_ring_part": _module_json(report.cech_ring_part, 0, 24),
        "cech_dual_part": _module_json(report.cech_dual_part, a + 1 - 24, a + 1),
    }


def cmd_duality(args: argparse.Namespace, p: RingPresentation) -> dict | list[str]:
    report = ring_duality_report(p)
    if args.json:
        return _duality_json(p, report)
    first, second = report.display_strings()
    return [
        f"  hilbert series: {report.cech_ring_part.series}",
        f"  krull dimension {report.dim}, gorenstein shift a = {report.shift_a}",
        f"  torsion part:   {report.gamma_series.label}  = Sigma^{report.shift_a} dual(r_*)",
        f"  localized ring: {report.cech_ring_part.label} (+) {report.cech_dual_part.label}"
        f"   [{report.splitting.value}]",
        f"  anderson: {second}, i.e. {first}",
        "  duality recovery range (shift <= -2, torsion vanishing above it): "
        + ("yes" if report.recovery_hypotheses_hold else "no"),
    ]


def cmd_molien(
    args: argparse.Namespace, p: RingPresentation, record: GroupInputRecord
) -> tuple[dict | list[str], list]:
    group = record.build(cap=_order_cap())
    table = None if args.twist in ("trivial", "det") else record.table(group)
    report = molien_series(group, twist=args.twist, table=table)
    window = report.series.expand(0, args.max_degree)
    if args.json:
        return {
            "ring": _ring_json(p),
            "group": group.name,
            "group_order": group.order,
            "twist": report.twist,
            "series": _series_json(report.series),
            "polynomial_degrees": report.polynomial_degrees,
            "pseudoreflection_count": report.pseudoreflection_count,
            "relations_ignored": bool(p.relations),
        }, window
    lines = [f"  group {group.name} of order {group.order}, twist {report.twist}"]
    if p.relations:
        lines.append(
            "  note: relations ignored; this is the invariant series of the free"
            " ring on the generators"
        )
    lines.append(f"  molien series: {report.series}")
    if report.polynomial_degrees is not None:
        lines.append(f"  polynomial invariant degrees: {list(report.polynomial_degrees)}")
    else:
        lines.append("  invariants are not polynomial at this rank")
    lines.append(f"  pseudoreflections: {report.pseudoreflection_count}")
    return lines, window


def cmd_sympow(args: argparse.Namespace, p: RingPresentation, record: GroupInputRecord) -> dict | list[str]:
    group = record.build(cap=_order_cap())
    table = record.table(group)
    names = list(table.names)
    rows = [
        (n, decompose(values, table))
        for n, values in enumerate(sym_power_characters(group, args.n))
    ]
    if args.json:
        return {
            "ring": _ring_json(p),
            "group": group.name,
            "irreducibles": names,
            "multiplicities": [[n, list(m)] for n, m in rows],
        }
    block_degrees = {d for d, _ in group.blocks}
    uniform_degree = block_degrees.pop() if len(block_degrees) == 1 else None
    lines = [f"  group {group.name}, decomposition against ({', '.join(names)})"]
    for n, mults in rows:
        degree = f"  (degree {n * uniform_degree})" if uniform_degree else ""
        vec = "".join(str(m) for m in mults) if all(m < 10 for m in mults) else str(mults)
        lines.append(f"    Sym^{n}: ({vec}){degree}")
    return lines


def cmd_invgen(args: argparse.Namespace, p: RingPresentation, record: GroupInputRecord) -> dict | list[str]:
    symbols = [s for s, _ in p.generators]
    basis = invariant_basis(basis_orbit(record.generators, record.blocks, cap=_order_cap()), args.degree)
    if args.json:
        return {
            "ring": _ring_json(p),
            "group": record.name,
            "degree": args.degree,
            "dimension": len(basis),
            "basis": [
                {"display": format_polynomial(terms, symbols),
                 "terms": [[e, str(c)] for e, c in terms]}
                for terms in (sorted(poly.items(), reverse=True) for poly in basis)
            ],
        }
    return [
        f"  invariants of {record.name} in degree {args.degree}: dimension {len(basis)}",
        *(f"    {format_polynomial(poly, symbols)}" for poly in basis),
    ]


def cmd_descent(args: argparse.Namespace, p: RingPresentation, record: GroupInputRecord) -> dict | list[str]:
    if p.relations:  # descent_report would refuse the base: no group is built
        basis_orbit(record.generators, record.blocks, cap=_order_cap())
        base = ring_duality_report(p)
        if args.json:
            return {
                "descent": None,
                "note": (
                    "descent prediction out of regime: the base ring is not"
                    " polynomial, so only the base-ring duality report is given"
                ),
                "base_duality": _duality_json(p, base),
            }
        first, second = base.display_strings()
        return [
            "  note: base ring is not polynomial; descent prediction out of"
            " regime, base-ring report follows",
            f"  gorenstein shift a = {base.shift_a}",
            f"  anderson: {second}, i.e. {first}",
        ]
    group = record.build(cap=_order_cap())
    report = descent_report(p, group)
    solomon, invariant = report.solomon, report.invariant
    degrees, presentation = solomon.invariant_degrees, report.invariant_presentation
    consistent, witness = cross_check_invariant_shift(report)
    if args.json:
        return {
            "descent": {
                "ring": _ring_json(p),
                "group": group.name,
                "base_shift": report.base_shift_a,
                "invariant_degrees": degrees,
                "solomon_supplement": solomon.supplement,
                "descended_gorenstein_shift": invariant.shift_a,
                "descended_anderson_shift": invariant.anderson_selfdual_display,
                "solomon_verified": solomon.verified,
                "cross_check": consistent,
                "invariant_ring": None if presentation is None else _ring_json(presentation),
                "invariant_series": _series_json(solomon.invariant_series),
                "prediction_only": True,
            },
            "note": "for non-rational coefficients this is a prediction, not a theorem",
            "base_duality": None,
        }
    return [
        f"  group {group.name} of order {group.order}",
        f"  base gorenstein shift a = {report.base_shift_a}",
        "  invariants are not polynomial at this rank" if degrees is None
        else f"  invariant degrees: {list(degrees)}",
        f"  solomon supplement b = {solomon.supplement}"
        + ("  (verified)" if solomon.verified else f"  (FAILED verification: {solomon.witness()})"),
        f"  descended gorenstein shift a+b = {invariant.shift_a}",
        f"  descended anderson shift a+b+1 = {invariant.anderson_selfdual_display}",
        "  cross-check of the invariant ring's shift: "
        + ("ok" if consistent else f"MISMATCH ({witness})"),
        "  (prediction: exact for rational coefficients, necessary condition otherwise)",
    ]


def cmd_table(args: argparse.Namespace) -> tuple[dict | list[str], bool]:
    rows = []
    all_pass = True
    for row in TABLE_ROWS:
        computed = gorenstein_shift_formula(row.presentation())
        ok = computed == row.expected_shift_a
        all_pass = all_pass and ok
        rows.append((row, computed, ok))
    if args.json:
        return {
            "rows": [
                {
                    "name": row.name,
                    "prime": row.prime_label,
                    "group": row.group_label,
                    "generator_degrees": list(row.generator_degrees),
                    "relation_degree": row.relation_degree,
                    "computed_shift": computed,
                    "expected_shift": row.expected_shift_a,
                    "pass": ok,
                }
                for row, computed, ok in rows
            ],
            "all_pass": all_pass,
        }, all_pass
    header = f"{'name':<20} {'p':<12} {'group':<10} {'degrees':<12} {'rel':<5} {'a':>4} {'expected':>9}  status"
    lines = [header, "-" * len(header)]
    for row, computed, ok in rows:
        degrees = ",".join(str(d) for d in row.generator_degrees)
        rel = str(row.relation_degree) if row.relation_degree is not None else "-"
        lines.append(
            f"{row.name:<20} {row.prime_label:<12} {row.group_label:<10} "
            f"{degrees:<12} {rel:<5} {computed:>4} {row.expected_shift_a:>9}  "
            + ("PASS" if ok else "FAIL")
        )
    lines.append("all rows pass" if all_pass else "some rows fail")
    return lines, all_pass


# -- parser ---------------------------------------------------------------------


def non_negative_int(text: str, cap: int) -> int:
    """argparse type for degrees and powers; a negative count, or one above
    ``cap``, is bad usage."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    if value > cap:
        raise argparse.ArgumentTypeError(f"must be at most {cap}, got {value}")
    return value


def window_degree(text: str) -> int:
    """argparse type for --max-degree and invgen --degree: a non-negative
    degree up to MAX_WINDOW_DEGREE."""
    return non_negative_int(text, MAX_WINDOW_DEGREE)


def sympow_power(text: str) -> int:
    """argparse type for sympow --n: a non-negative power up to MAX_SYMPOW_N."""
    return non_negative_int(text, MAX_SYMPOW_N)


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="gorenstein-kit",
        description=(
            "Exact duality-shift arithmetic for graded complete intersections"
            " and their rings of invariants."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str, *positionals: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        sp.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        for positional in positionals:
            sp.add_argument(positional)
        return sp

    sp = add("hilbert", cmd_hilbert, "Hilbert series and coefficient table of a ring", "ring")
    sp.add_argument("--max-degree", type=window_degree, default=40)

    add("shift", cmd_shift, "Gorenstein shift, by formula and by functional equation", "ring")
    add("duality", cmd_duality, "full duality report for a ring", "ring")

    sp = add("molien", cmd_molien, "(twisted) Molien series of a group action", "ring", "group")
    sp.add_argument("--twist", default="trivial",
                    help="'trivial', 'det', or a character name from the table")
    sp.add_argument("--max-degree", type=window_degree, default=48)

    sp = add("sympow", cmd_sympow, "symmetric-power decompositions against a character table",
             "ring", "group")
    sp.add_argument("--n", type=sympow_power, required=True, help="largest symmetric power")

    sp = add("invgen", cmd_invgen, "explicit invariant polynomials of one degree", "ring", "group")
    sp.add_argument("--degree", type=window_degree, required=True)

    add("descent", cmd_descent, "descended shift prediction for a ring of invariants", "ring", "group")
    add("table", cmd_table, "recompute the bundled twelve-row example table")
    return parser, sub.choices


# Built once: in-process callers of main parse many argument lists.
_PARSER, _SUBPARSERS = _build_parsers()


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """``_PARSER.parse_args(argv)``, with the arguments after a subcommand's
    name read once, by that subcommand's parser."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _SUBPARSERS.get(argv[0]) if argv else None
    if parser is None:
        return _PARSER.parse_args(argv)
    args, extras = parser.parse_known_args(argv[1:])
    if extras:
        _PARSER.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {category.__name__}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand: parse, load the ring and the group, compute,
    write stdout in one call.  Returns the exit status; bad usage exits 2 from
    argparse."""
    args = _parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            p = load_ring_fixture(args.ring) if "ring" in args else None
            inputs = [] if p is None else [p]
            if "group" in args:
                record = load_group_fixture(args.group)
                check_grading(p, record.blocks)
                inputs.append(record)
            output = args.func(args, *inputs)
        except ParseError as exc:
            # parse errors already carry their source:line location
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (OSError, ValueError, ArithmeticError, RuntimeError, LookupError) as exc:
            message = str(exc) or repr(exc)
            print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
            return 1
    window, all_pass = None, True
    if "max_degree" in args:
        output, window = output
    elif args.command == "table":
        output, all_pass = output
    if args.json:
        text = json.dumps({**output, "schema": f"{SCHEMA_PREFIX}/{args.command}/1"}, sort_keys=True)
        pieces = [text]
        if window is not None:  # sort_keys puts "coefficients" ahead of every other key
            first, *rest = _window_pieces(window, ', [@, "%s"]')  # first[2:] drops its ", "
            pieces = ['{"coefficients": [', first[2:], *rest, "], " + text[1:]]
    else:
        lines = output if p is None else _ring_header(p) + output
        rows = []
        if window is not None:
            lines.append(f"  coefficients 0..{args.max_degree}:")
            rows = _window_pieces(window, "\n    t^@: %s", skip_zeros=True)
        pieces = ["\n".join(lines), *rows]
    _emit(pieces)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
