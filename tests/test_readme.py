"""The README's command-line examples run as written."""

import shlex
from pathlib import Path

import pytest

from gorenstein_kit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _commands() -> list[list[str]]:
    """The argument lists of the ``gorenstein-kit ...`` lines in the first
    code block under "Command line", comments dropped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("gorenstein-kit ")
    ]


COMMANDS = _commands()


def test_the_command_line_block_is_found():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero_with_output(capsys, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out
