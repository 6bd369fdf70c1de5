"""The command line has one writer.

Every ``cmd_*`` function of ``cli.py`` returns its output; `main` calls
``_emit`` once and is its only caller, ``_emit`` is the only code that
touches ``sys.stdout`` (one ``writelines`` call for all the output's
pieces), every ``print`` goes to stderr, the ring and the group record
are each loaded in one place, and `main` alone stamps the JSON
``schema``.  A new subcommand, or a flag that changes what every
subcommand writes, then has one place to hook in.  The rule "the group
file's character table, else the built-in one" lives in
``GroupInputRecord.table``, not here.
"""

import ast
from pathlib import Path

from gorenstein_kit import cli

TREE = ast.parse(Path(cli.__file__).read_text())
FUNCTIONS = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}
COMMANDS = sorted(name for name in FUNCTIONS if name.startswith("cmd_"))


def _callee(call: ast.Call) -> str:
    """``name`` or ``receiver.attr`` of a call, as written."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return ast.unparse(func)
    return ""


def _calls(node: ast.AST) -> list[tuple[ast.Call, str]]:
    return [(n, _callee(n)) for n in ast.walk(node) if isinstance(n, ast.Call)]


def _callers(name: str) -> list[str]:
    return sorted(
        outer for outer, node in FUNCTIONS.items()
        for _, callee in _calls(node) if callee == name
    )


def test_every_subcommand_is_a_command_function():
    assert COMMANDS == sorted(f"cmd_{name}" for name in (
        "hilbert", "shift", "duality", "molien", "sympow", "invgen", "descent", "table"))


def test_no_command_writes():
    written = [
        (name, callee) for name in COMMANDS for _, callee in _calls(FUNCTIONS[name])
        if callee in ("_emit", "print", "sys.stdout.write", "sys.stdout.writelines")
    ]
    assert written == []


def test_main_is_the_only_caller_of_emit():
    assert _callers("_emit") == ["main"]


def test_main_calls_emit_once():
    assert [callee for _, callee in _calls(FUNCTIONS["main"])].count("_emit") == 1


def test_only_emit_touches_stdout():
    touching = sorted(
        name for name, node in FUNCTIONS.items()
        if any(ast.unparse(n) == "sys.stdout" for n in ast.walk(node) if isinstance(n, ast.Attribute))
    )
    assert touching == ["_emit"]


def test_every_print_goes_to_stderr():
    prints = [call for call, callee in _calls(TREE) if callee == "print"]
    assert prints
    for call in prints:
        assert [ast.unparse(k.value) for k in call.keywords if k.arg == "file"] == ["sys.stderr"]


def test_the_ring_is_loaded_once_in_main():
    loads = [callee for _, callee in _calls(TREE) if callee == "load_ring_fixture"]
    assert loads == ["load_ring_fixture"]
    assert _callers("load_ring_fixture") == ["main"]


def test_the_group_is_loaded_once_in_main():
    loads = [callee for _, callee in _calls(TREE) if callee == "load_group_fixture"]
    assert loads == ["load_group_fixture"]
    assert _callers("load_group_fixture") == ["main"]


def test_cli_does_not_name_the_builtin_table():
    names = {
        getattr(node, attr) for node in ast.walk(TREE)
        for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)
    }
    assert "load_group_fixture" in names
    assert "builtin_character_table" not in names


def test_the_schema_is_stamped_once_in_main():
    readers = sorted(
        name for name, node in FUNCTIONS.items()
        if any(isinstance(n, ast.Name) and n.id == "SCHEMA_PREFIX" for n in ast.walk(node))
    )
    assert readers == ["main"]
