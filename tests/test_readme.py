"""The README's console examples, each run through the CLI in-process."""

import shlex
from pathlib import Path

import pytest

from runcomp.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def console_examples():
    """(argv, expected stdout) for each "$ runcomp ..." line of the console block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("```console\n", 1)[1].split("```", 1)[0]
    examples = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        assert command.startswith("$ runcomp "), command
        examples.append((shlex.split(command)[2:], "".join(line + "\n" for line in output)))
    return examples


EXAMPLES = console_examples()


def test_every_example_is_found():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example(capsys, argv, expected):
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out == expected
