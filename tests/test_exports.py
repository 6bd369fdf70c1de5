"""The package's public names: every export resolves, and none repeats.

``from gorenstein_kit import *`` fails on a stale name in ``__all__``; this
catches one left behind by a deletion without anyone importing ``*``.  An
exported exception class must still be raised or warned somewhere.
"""

import ast
from pathlib import Path

import gorenstein_kit

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_export_resolves_on_the_package():
    missing = [name for name in gorenstein_kit.__all__ if not hasattr(gorenstein_kit, name)]
    assert not missing, f"__all__ names that are gone: {missing}"


def test_no_export_repeats():
    names = gorenstein_kit.__all__
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"__all__ names listed more than once: {repeated}"


def _raised_or_warned():
    """Every name called in src/ (constructing a class calls it), and every
    name passed to ``warn``, where a warning class is the category."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            names.add(name)
            if name == "warn":
                args = [*node.args, *(k.value for k in node.keywords)]
                names.update(arg.id for arg in args if isinstance(arg, ast.Name))
    return names


def test_every_exported_exception_is_raised_or_warned():
    # An exception class outlives its last raise unnoticed: importers can
    # still catch it, and nothing says it can no longer happen.
    exceptions = [
        name for name in gorenstein_kit.__all__
        if isinstance(cls := getattr(gorenstein_kit, name), type) and issubclass(cls, BaseException)
    ]
    assert exceptions
    unused = [name for name in exceptions if name not in _raised_or_warned()]
    assert not unused, f"exported exception classes that src/ never raises or warns: {unused}"
