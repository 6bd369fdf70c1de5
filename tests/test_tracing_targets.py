"""Every entry point the benchmark's tracer wraps still exists.

``bench/tracing.py`` replaces named functions and methods of gorenstein_kit
by timing wrappers and fails on a name that is gone.  Some of them (such as
``linalg.inverse`` and ``linalg.determinant``) have no caller inside the
package, so this is what keeps them from being deleted as dead code.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    if not TRACING_PATH.is_file():
        pytest.skip(f"no benchmark tracer at {TRACING_PATH.name}")
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    assert tracing.TARGETS
    missing = []
    for target in tracing.TARGETS:
        module_name, _, class_name = target.owner.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
            found = owner is not None and target.attr in vars(owner)
        else:
            found = hasattr(owner, target.attr)
        if not found:
            missing.append(f"{target.owner}.{target.attr}")
    assert not missing, f"bench/tracing.py wraps names that are gone: {missing}"
