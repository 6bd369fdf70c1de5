"""Every field of a report dataclass has a reader in the program.

A field that only its own class reads is an input carried along for
nobody; this names it.  A read is an attribute access ``.<field>`` in
``src/`` or ``scripts/`` outside the class body itself.
"""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

from gorenstein_kit.descent import DescentReport
from gorenstein_kit.duality import DualityReport
from gorenstein_kit.invariants import MolienReport, SolomonVerification

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))


def _attribute_reads():
    """(path, line, attribute name) for every attribute load in the program."""
    reads = []
    for path in PROGRAM:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((path.resolve(), node.lineno, node.attr))
    return reads


READS = _attribute_reads()


@pytest.mark.parametrize(
    "cls", [DescentReport, SolomonVerification, DualityReport, MolienReport],
    ids=lambda cls: cls.__name__,
)
def test_every_report_field_is_read_outside_its_class(cls):
    path = Path(inspect.getsourcefile(cls)).resolve()
    body = next(
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__
    )
    inside = range(body.lineno, body.end_lineno + 1)
    read = {attr for where, line, attr in READS if not (where == path and line in inside)}
    unread = [f.name for f in fields(cls) if f.name not in read]
    assert not unread, f"{cls.__name__} fields with no reader outside the class: {unread}"
