"""Start-up cost: importing the CLI loads none of the heavy standard-library
modules that ``dataclasses`` pulls in.

Every CLI call imports ``gorenstein_kit.cli`` before it computes anything,
so what that import drags in is paid on every call.  ``dataclasses`` imports
``inspect``, which imports ``ast``, ``dis`` and ``tokenize``, and then
``exec``-compiles methods for every class it builds; the records are named
tuples and slotted classes instead.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_importing_the_cli_loads_no_heavy_module():
    probe = (
        "import sys\n"
        "import gorenstein_kit.cli\n"
        f"print(' '.join(name for name in {HEAVY!r} if name in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == [], f"importing gorenstein_kit.cli loaded: {proc.stdout.strip()}"


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "gorenstein_kit").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "dataclasses" for name in names):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"modules importing dataclasses: {found}"
