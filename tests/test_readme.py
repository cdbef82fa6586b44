"""The README's `$ suturekup ...` examples print exactly what it shows."""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from suturekup.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    """(argv, expected stdout) for each `$ suturekup` command in a code block."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S):
        lines = block.splitlines()
        i = 0
        while i < len(lines):
            if not lines[i].startswith("$ suturekup "):
                i += 1
                continue
            command = lines[i][2:]
            while command.endswith("\\"):
                i += 1
                command = command[:-1] + lines[i]
            i += 1
            output = []
            while i < len(lines) and not lines[i].startswith("$ "):
                output.append(lines[i] + "\n")
                i += 1
            examples.append((shlex.split(command)[1:], "".join(output)))
    return examples


EXAMPLES = readme_examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv[:2]) for argv, _ in EXAMPLES])
def test_readme_example_output(monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(argv) == 0
    assert buf.getvalue() == expected
