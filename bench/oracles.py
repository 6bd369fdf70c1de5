"""Output checks that do not use gorenstein_kit.

Each check takes one job's captured stdout and the parameters recorded
with the job, and returns ``None`` when the output is right or a witness
``(field, expected, got)`` naming the first field that differs.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Callable

Witness = tuple[str, object, object]


def monomial_counts(degrees: list[int], relations: list[int], hi: int) -> list[int]:
    """Coefficients 0..hi of prod(1 - t^r) / prod(1 - t^d), by counting
    monomials with a dynamic programme and folding the relation factors in
    by inclusion-exclusion."""
    counts = [1] + [0] * hi
    for d in degrees:
        for k in range(d, hi + 1):
            counts[k] += counts[k - d]
    out = list(counts)
    for r in relations:
        out = [out[k] - (out[k - r] if k >= r else 0) for k in range(hi + 1)]
    return out


def partitions_bounded(k: int, largest: int) -> int:
    """Number of partitions of k into parts of size at most ``largest``."""
    if k < 0:
        return 0
    return monomial_counts(list(range(1, largest + 1)), [], k)[k]


def _first_difference(field: str, expected: list, got: list) -> Witness | None:
    for i, (e, g) in enumerate(zip(expected, got)):
        if e != g:
            return (f"{field}[{i}]", e, g)
    if len(expected) != len(got):
        return (f"len({field})", len(expected), len(got))
    return None


def _rational(text: str) -> Fraction | int:
    # int() is much cheaper than Fraction() on the integer strings that
    # make up almost every window; the two compare equal.
    return Fraction(text) if "/" in text else int(text)


def _window(payload: dict) -> list[Fraction | int]:
    return [_rational(c) for _, c in payload["coefficients"]]


def _text_window(text: str, hi: int) -> list[Fraction | int]:
    """Read the ``t^k: c`` lines of text output (zero rows are omitted)."""
    values: list[Fraction | int] = [0] * (hi + 1)
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("t^") and ": " in line:
            k, c = line[2:].split(": ", 1)
            values[int(k)] = _rational(c)
    return values


def check_digest(out: str, sha256: str) -> Witness | None:
    got = hashlib.sha256(out.encode()).hexdigest()
    return None if got == sha256 else ("sha256(stdout)", sha256, got)


def check_hilbert(
    out: str, degrees: list[int], relations: list[int], hi: int, json_mode: bool, shift: int = 0
) -> Witness | None:
    """Coefficient window 0..hi against the monomial count, moved up by
    ``shift`` (the Solomon shift of a det-twisted Molien series)."""
    got = _window(json.loads(out)) if json_mode else _text_window(out, hi)
    counts = monomial_counts(degrees, relations, hi)
    expected = [counts[k - shift] if k >= shift else 0 for k in range(hi + 1)]
    return _first_difference("coefficients", expected, got)


def check_molien(
    out: str, order: int, reflections: int, invariant_degrees: list[int], hi: int, shift: int
) -> Witness | None:
    payload = json.loads(out)
    if payload["group_order"] != order:
        return ("group_order", order, payload["group_order"])
    if payload["pseudoreflection_count"] != reflections:
        return ("pseudoreflection_count", reflections, payload["pseudoreflection_count"])
    return check_hilbert(out, invariant_degrees, [], hi, True, shift)


def check_descent(
    out: str, order: int, generator_degrees: list[int], invariant_degrees: list[int]
) -> Witness | None:
    d = json.loads(out)["descent"]
    if d is None:
        return ("descent", "report", None)
    if d["invariant_degrees"] != invariant_degrees:
        return ("invariant_degrees", invariant_degrees, d["invariant_degrees"])
    # For a reflection group the invariant degrees multiply to |G|.
    got_order = math.prod(Fraction(e, g) for e, g in zip(d["invariant_degrees"], generator_degrees))
    if got_order != order:
        return ("prod(invariant_degrees / generator_degrees)", order, got_order)
    supplement = sum(generator_degrees) - sum(invariant_degrees)
    if d["solomon_supplement"] != supplement:
        return ("solomon_supplement", supplement, d["solomon_supplement"])
    for flag in ("solomon_verified", "cross_check"):
        if d[flag] is not True:
            return (flag, True, d[flag])
    return None


def check_sympow(out: str, names: list[str], dims: list[int], rank: int, n: int) -> Witness | None:
    """sum_i m_i * chi_i(1) must be dim Sym^k = C(rank + k - 1, k)."""
    payload = json.loads(out)
    if payload["irreducibles"] != names:
        return ("irreducibles", names, payload["irreducibles"])
    rows = payload["multiplicities"]
    if [k for k, _ in rows] != list(range(n + 1)):
        return ("multiplicities[*][0]", list(range(n + 1)), [k for k, _ in rows])
    for k, mults in rows:
        got = sum(m * d for m, d in zip(mults, dims))
        expected = math.comb(rank + k - 1, k)
        if got != expected:
            return (f"sum m_i chi_i(1) at Sym^{k}", expected, got)
    return None


def check_invgen(out: str, degree: int, dimension: int, generator_degrees: list[int]) -> Witness | None:
    payload = json.loads(out)
    if payload["dimension"] != dimension:
        return ("dimension", dimension, payload["dimension"])
    if len(payload["basis"]) != dimension:
        return ("len(basis)", dimension, len(payload["basis"]))
    for i, poly in enumerate(payload["basis"]):
        for exponents, _ in poly["terms"]:
            got = sum(e * g for e, g in zip(exponents, generator_degrees))
            if got != degree:
                return (f"basis[{i}] term degree", degree, got)
    return None


CHECKS: dict[str, Callable[..., Witness | None]] = {
    "digest": check_digest,
    "hilbert": check_hilbert,
    "molien": check_molien,
    "descent": check_descent,
    "sympow": check_sympow,
    "invgen": check_invgen,
}


def verdict(job: dict, exit_code: int, out: str) -> Witness | None:
    """First failed check of a finished job, or None when all pass."""
    if exit_code != 0:
        return ("exit code", 0, exit_code)
    if not out.strip():
        return ("stdout", "non-empty", "")
    for kind, params in job["checks"]:
        try:
            witness = CHECKS[kind](out, **params)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            witness = (f"{kind} output", "parseable", f"{type(exc).__name__}: {exc}")
        if witness is not None:
            return witness
    return None
