"""Mutated input documents end in an exit code, never in a traceback.

Each example takes one shipped document, applies one mutation (drop a key
or list item, wrap a value in a list, or replace a value with a JSON value
of another kind) and runs one command on it in-process.  The command must
end the way the console script would: exit code 0, 1 or 2, where 2 prints
exactly one ``error:`` line on stderr.  An invalid diagram ends in
``SystemExit`` with its message (exit code 1), as it does from the shell.
"""

import copy
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from operator import getitem

from conftest import data_path
from hypothesis import given, settings, strategies as st

from suturekup.cli import main

TESTS_DATA = os.path.join(os.path.dirname(__file__), "data")

DIAGRAM = data_path("figure8.json")
PRESENTATION = data_path("figure8_wirtinger.json")
REPRESENTATION = data_path("figure8_parabolic_rep.json")
WIRTINGER_REPRESENTATION = os.path.join(TESTS_DATA, "figure8_wirtinger_nonintegral_rep.json")

REPLACEMENTS = [None, True, 0, 10**40, -10**40, 1.5, "", [], {}]


# shipped document -> the commands that read it; MUTATED marks where the
# mutated copy's path goes
MUTATED = None


def _input_commands(rep):
    return [
        ["validate", MUTATED],
        ["presentation", MUTATED],
        ["homology", MUTATED],
        ["alexander", MUTATED],
        ["kuperberg", MUTATED, "--hopf", "exterior:1"],
        ["kuperberg", MUTATED, "--hopf", "exterior:2"],
        ["twisted-alexander", MUTATED, rep],
    ]


COMMANDS = {
    DIAGRAM: _input_commands(REPRESENTATION),
    PRESENTATION: _input_commands(WIRTINGER_REPRESENTATION),
    REPRESENTATION: [
        ["kuperberg", DIAGRAM, "--hopf", "exterior:1", "--rep", MUTATED],
        ["kuperberg", DIAGRAM, "--hopf", "exterior:2", "--rep", MUTATED],
        ["twisted-alexander", DIAGRAM, MUTATED],
    ],
}


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _paths(value, prefix=()):
    """Every position in a JSON value, the root () first."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


@st.composite
def mutations(draw):
    """(shipped path, mutated document, command) for one example."""
    source = draw(st.sampled_from(sorted(COMMANDS)))
    doc = _read(source)
    kind = draw(st.sampled_from(["drop", "wrap", "replace"]))
    paths = list(_paths(doc))
    path = draw(st.sampled_from(paths[1:] if kind == "drop" else paths))
    mutated = copy.deepcopy(doc)
    if kind == "drop":
        del reduce(getitem, path[:-1], mutated)[path[-1]]
    else:
        old = reduce(getitem, path, mutated)
        new = [old] if kind == "wrap" else draw(st.sampled_from(REPLACEMENTS))
        if path:
            reduce(getitem, path[:-1], mutated)[path[-1]] = new
        else:
            mutated = new
    return source, mutated, draw(st.sampled_from(COMMANDS[source]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # as from the shell: a message goes to stderr with exit code 1
            code = exc.code
            if not isinstance(code, int):
                print(code, file=err)
                code = 1
    return code, err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=600)
@given(mutations())
def test_mutated_documents_end_in_an_exit_code(tmp_path_factory, case):
    source, mutated, command = case
    path = str(tmp_path_factory.getbasetemp() / ("mutated-" + os.path.basename(source)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(mutated, fh)
    argv = [path if arg is MUTATED else arg for arg in command]
    code, err = _run(argv)
    assert code in (0, 1, 2), (argv, mutated, code, err)
    if code == 2:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, mutated, err)
