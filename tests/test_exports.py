"""The package's public names: every export resolves, and none repeats.

``from gorenstein_kit import *`` fails on a stale name in ``__all__``; this
catches one left behind by a deletion without anyone importing ``*``.
"""

import gorenstein_kit


def test_every_export_resolves_on_the_package():
    missing = [name for name in gorenstein_kit.__all__ if not hasattr(gorenstein_kit, name)]
    assert not missing, f"__all__ names that are gone: {missing}"


def test_no_export_repeats():
    names = gorenstein_kit.__all__
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"__all__ names listed more than once: {repeated}"
