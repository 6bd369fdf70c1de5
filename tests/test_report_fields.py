"""Every field of an immutable report record, and every public member of
the series types, has a reader in the program.

A field that only its own class reads is an input carried along for
nobody; this names it.  A read is an attribute access ``.<name>`` in
``src/`` or ``scripts/`` outside the class body itself.  A public member of
``LaurentPolynomial`` or ``HilbertSeries`` may instead be a name that the
benchmark's tracer wraps, which keeps it alive on its own.
"""

import ast
import inspect
from pathlib import Path

import pytest
from test_tracing_targets import _load_tracing

from gorenstein_kit.descent import DescentReport
from gorenstein_kit.duality import DualityReport
from gorenstein_kit.invariants import MolienReport, RationalCharacterTable, SolomonVerification
from gorenstein_kit.records import GroupInputRecord
from gorenstein_kit.series import HilbertSeries, LaurentPolynomial

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))


def _attribute_reads():
    """(path, line, receiver name or None, attribute name) for every
    attribute load in the program."""
    reads = []
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                receiver = node.value.id if isinstance(node.value, ast.Name) else None
                reads.append((path.resolve(), node.lineno, receiver, node.attr))
    return reads


READS = _attribute_reads()


SERIES_CLASSES = {"LaurentPolynomial", "HilbertSeries"}


def _read_outside(cls):
    """Attribute names read outside cls's body.  ``HilbertSeries.name`` is a
    read of HilbertSeries' member only, and likewise ``LaurentPolynomial.name``."""
    path = Path(inspect.getsourcefile(cls)).resolve()
    body = next(
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__
    )
    inside = range(body.lineno, body.end_lineno + 1)
    return {
        attr for where, line, receiver, attr in READS
        if not (where == path and line in inside)
        and (receiver == cls.__name__ or receiver not in SERIES_CLASSES)
    }


@pytest.mark.parametrize(
    "cls",
    [
        DescentReport,
        SolomonVerification,
        DualityReport,
        MolienReport,
        RationalCharacterTable,
        GroupInputRecord,
    ],
    ids=lambda cls: cls.__name__,
)
def test_every_report_field_is_read_outside_its_class(cls):
    read = _read_outside(cls)
    unread = [name for name in cls._fields if name not in read]
    assert not unread, f"{cls.__name__} fields with no reader outside the class: {unread}"


@pytest.mark.parametrize("cls", [LaurentPolynomial, HilbertSeries], ids=lambda cls: cls.__name__)
def test_every_public_series_member_is_read_or_traced(cls, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    traced = {t.attr for t in tracing.TARGETS if t.owner.endswith(f".series:{cls.__name__}")}
    read = _read_outside(cls)
    members = [name for name in vars(cls) if not name.startswith("_")]
    unused = [name for name in members if name not in read and name not in traced]
    assert not unused, f"{cls.__name__} members with no reader or tracer outside the class: {unused}"
