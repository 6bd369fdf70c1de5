"""Span recorder that wraps gorenstein_kit's entry points from outside.

Nothing under ``src/`` knows about it.  ``Recorder.install`` replaces each
target function or method by a timing wrapper in every namespace that holds
the same object: a name copied into another module by ``from .x import y``
is wrapped there too, and a method aliased inside its class (``__rmul__ =
__mul__``) is wrapped under both names.  ``Recorder.uninstall`` puts every
original back.

Two kinds of wrapper:

- a *span* keeps a record (name, start, end, parent span, job id).  Its
  self time is its duration minus that of its child spans, so the self
  times of all span layers sum to the duration of the root span.
- a *counter* wraps a hot primitive (``mat_mul``, ``divide_exact``, the
  series operators) and keeps only its call count and its time minus that
  of nested counters.  Counter time is not taken out of the enclosing
  span's self time: it says how much of that self time the primitive used.

Spans stay in memory until the caller writes them out.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "gorenstein_kit"

Observer = Callable[["Recorder", tuple, Any], None]


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    layer: str
    span: bool
    observe: Observer | None = None


@dataclass
class Recorder:
    spans: list[tuple[str, float, float, int, str | None]] = field(default_factory=list)
    stats: dict[str, LayerStat] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    job: str | None = None
    # Open spans are [child span time, span index]; open counters are
    # [child counter time].
    _spans_open: list[list] = field(default_factory=list)
    _counters_open: list[list] = field(default_factory=list)
    _restore: list[tuple[object, str, object]] = field(default_factory=list)
    _seen: set[tuple[str | None, int]] = field(default_factory=set)

    # -- extra per-layer values ------------------------------------------------

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.values[name] = max(self.values.get(name, value), value)

    def first_sight(self, obj: object) -> bool:
        """True the first time ``obj`` is seen within the current job."""
        key = (self.job, id(obj))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    # -- timing ---------------------------------------------------------------

    def span(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._spans_open
        parent = stack[-1][1] if stack else -1
        index = len(self.spans)
        self.spans.append((layer, 0.0, 0.0, parent, self.job))
        frame = [0.0, index]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if stack:
                stack[-1][0] += end - start
            self._stat(layer, end - start - frame[0])
            self.spans[index] = (layer, start, end, parent, self.job)

    def count(self, layer: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._counters_open
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            self._stat(layer, duration - frame[0])

    def _stat(self, layer: str, self_s: float) -> None:
        stat = self.stats.get(layer)
        if stat is None:
            stat = self.stats[layer] = LayerStat()
        stat.calls += 1
        stat.self_s += self_s

    def run(self, layer: str, fn: Callable, *args: Any) -> Any:
        """Call ``fn`` inside a span of the recorder's own, such as the root."""
        return self.span(layer, fn, args, {})

    # -- installing wrappers --------------------------------------------------

    def _wrapper(self, target: Target, original: Callable) -> Callable:
        layer, observe = target.layer, target.observe
        call = self.span if target.span else self.count

        def wrapper(*args, **kwargs):
            result = call(layer, original, args, kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", target.attr)
        return wrapper

    def install(self, targets: list[Target]) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for target in targets:
                module_name, _, class_name = target.owner.partition(":")
                owner = sys.modules[module_name]
                if class_name:
                    owner = getattr(owner, class_name)
                    original = owner.__dict__[target.attr]
                    holders = [owner]
                else:
                    original = getattr(owner, target.attr)
                    holders = modules
                wrapper = self._wrapper(target, original)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, name, original))
                            setattr(holder, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)


# -- observers: sizes recorded where the work happens ---------------------------


def _count_elements(rec: Recorder, args: tuple, group: Any) -> None:
    rec.add("invariants.closure.elements", group.order)


def _count_classes(rec: Recorder, args: tuple, classes: Any) -> None:
    # conjugacy_classes caches its result on the group; count each group once.
    if rec.first_sight(args[0]):
        rec.add("invariants.classes.count", len(classes))


def _count_monomials(rec: Recorder, args: tuple, monomials: Any) -> None:
    rec.add("invariants.basis.monomials", len(monomials))


def _count_basis(rec: Recorder, args: tuple, basis: Any) -> None:
    rec.add("invariants.basis.dimension", len(basis))


def _count_rref(rec: Recorder, args: tuple, rows: Any) -> None:
    rec.add("linalg.rref.rows", len(args[0]))
    rec.add("linalg.rref.rank", len(rows))


def _count_expand(rec: Recorder, args: tuple, coefficients: Any) -> None:
    rec.add("series.expand.coefficients", len(coefficients))


def _count_reduce(rec: Recorder, args: tuple, quotient: Any) -> None:
    rec.add("series.reduce.hits", quotient is not None)


def _numerator_terms(rec: Recorder, args: tuple, series: Any) -> None:
    if series is not NotImplemented:
        rec.peak("series.max_numerator_terms", len(series.numerator))


def _count_input(rec: Recorder, args: tuple, record: Any) -> None:
    rec.add("records.parse.input_bytes", len(args[0].encode()))


def _targets() -> list[Target]:
    gk = PACKAGE
    inv, lin, ser = f"{gk}.invariants", f"{gk}.linalg", f"{gk}.series"
    hs, lp = f"{ser}:HilbertSeries", f"{ser}:LaurentPolynomial"
    spans = [
        (f"{gk}.cli", "main", "cli", None),
        (f"{gk}.records", "parse_ring_record", "records.parse", _count_input),
        (f"{gk}.records", "parse_group_record", "records.parse", _count_input),
        (f"{gk}.graded_ring", "hilbert_series", "graded_ring.hilbert_series", None),
        (f"{gk}.graded_ring", "gorenstein_shift_stanley", "graded_ring.shift_stanley", None),
        (f"{gk}.duality", "duality_report", "duality.report", None),
        (f"{gk}.descent", "descent_report", "descent.report", None),
        (f"{gk}.descent", "cross_check_invariant_shift", "descent.report", None),
        (inv, "generate_group", "invariants.closure", _count_elements),
        (inv, "conjugacy_classes", "invariants.classes", _count_classes),
        (inv, "class_representatives", "invariants.classes", None),
        (inv, "character_table", "invariants.character_table", None),
        (inv, "builtin_character_table", "invariants.character_table", None),
        (inv, "molien_series", "invariants.molien", None),
        (inv, "pseudoreflection_count", "invariants.pseudoreflections", None),
        (inv, "extract_polynomial_degrees", "invariants.peel", None),
        (inv, "verify_solomon", "invariants.solomon", None),
        (inv, "sym_power_character", "invariants.sympow", None),
        (inv, "decompose", "invariants.sympow", None),
        (inv, "invariant_basis", "invariants.basis", _count_basis),
        (inv, "monomials_of_degree", "invariants.monomials", _count_monomials),
        (lin, "rref", "linalg.rref", _count_rref),
        (hs, "expand", "series.expand", _count_expand),
    ]
    counters = [
        (lin, "mat_mul", "linalg.mat_mul", None),
        (lin, "inverse", "linalg.inverse", None),
        (lin, "determinant", "linalg.determinant", None),
        (lin, "rank", "linalg.rank", None),
        (lin, "det_one_minus_coefficients", "linalg.det_one_minus", None),
        (hs, "__add__", "series.add", _numerator_terms),
        (hs, "__mul__", "series.mul", _numerator_terms),
        (lp, "divide_exact", "series.reduce", _count_reduce),
    ]
    counters += [
        (lp, op, "series.laurent", None)
        for op in ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "scale", "shift")
    ]
    return [Target(o, a, l, True, f) for o, a, l, f in spans] + [
        Target(o, a, l, False, f) for o, a, l, f in counters
    ]


TARGETS = _targets()

# Layers whose calls and self time are reported, and the extra values.
LAYERS = sorted({t.layer for t in TARGETS} | {"bench.harness"})
EXTRA_VALUES = (
    "cli.output_bytes",
    "records.parse.input_bytes",
    "invariants.closure.elements",
    "invariants.classes.count",
    "invariants.basis.monomials",
    "invariants.basis.dimension",
    "linalg.rref.rows",
    "linalg.rref.rank",
    "series.expand.coefficients",
    "series.reduce.hits",
    "series.max_numerator_terms",
)
