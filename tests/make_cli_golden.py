"""Record the CLI golden outputs replayed by tests/test_cli_golden.py.

Run from the repository root as ``PYTHONPATH=src python3 tests/make_cli_golden.py``.
Each entry holds the argv (file arguments written as ``{data}/NAME`` for the
package data and ``{tests}/NAME`` for tests/data), the exit code, the stdout
and the stderr of one in-process ``suturekup`` call; a file path in stderr is
written back the same way.  Regenerate only when a change of
output is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

from suturekup.cli import SEED_ENV, main

TESTS_DATA = Path(__file__).resolve().parent / "data"
GOLDEN = TESTS_DATA / "cli_golden.json"

FIXTURES = ("{data}/trefoil.json", "{data}/figure8.json")
# (representation file, its dimension)
REPS = (("{data}/trefoil_trivial_rep.json", 1),
        ("{data}/figure8_parabolic_rep.json", 2),
        ("{tests}/figure8_nonintegral_rep.json", 2))
WIRTINGER = "{data}/figure8_wirtinger.json"
WIRTINGER_REP = "{tests}/figure8_wirtinger_nonintegral_rep.json"
# one closed alpha and one arc with free abelianization of rank 2, and a
# representation over Q[x]/(x^2 + x + 1) that names a meridian
RANK_TWO = "{tests}/rank_two.json"
RANK_TWO_REP = "{tests}/rank_two_rep.json"
# presentations whose Smith normal form takes the column swap, the column swap
# and the offender fold, and torsion 2 10 with a non-unit free image
SNF_BRANCHES = ("{tests}/homology_column_swap.json", "{tests}/homology_offender_fold.json",
                "{tests}/homology_torsion_2_10.json")
# three closed curves whose Fox block elimination sweeps a fill-in pivot; with the
# second representation that pivot is singular and bareiss_det takes the blocks left
FILL_IN = "{tests}/fill_in.json"
FILL_IN_REPS = ("{tests}/fill_in_rep.json", "{tests}/fill_in_singular_rep.json")
# bad input: each of these calls ends in one error line on stderr, with exit code 2
# for unreadable or unusable input and 1 for an invalid diagram
FIGURE8 = FIXTURES[1]
BAD_REPS = ("missing", "malformed", "figure8_nan_rep", "figure8_singular_rep",
            "figure8_rational_root_rep", "figure8_square_rep", "figure8_square_quartic_rep",
            "figure8_entry_kind_rep", "figure8_no_meridian_rep")
INVALID = "{tests}/trefoil_invalid.json"


def resolve(arg: str) -> str:
    if arg.startswith("{data}/"):
        return str(resources.files("suturekup").joinpath("data", arg[len("{data}/"):]))
    if arg.startswith("{tests}/"):
        return str(TESTS_DATA / arg[len("{tests}/"):])
    return arg


def unresolve(text: str) -> str:
    """text with every resolved file path written back as {data}/NAME or {tests}/NAME."""
    data = str(resources.files("suturekup").joinpath("data"))
    return text.replace(data + os.sep, "{data}/").replace(str(TESTS_DATA) + os.sep, "{tests}/")


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main([resolve(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
            if isinstance(exc.code, str):
                # what the interpreter prints when the message ends the process
                print(exc.code, file=sys.stderr)
    return code, out.getvalue(), unresolve(err.getvalue())


def commands():
    out = []
    signs = (["--sign", "1"], ["--sign", "-1"])
    flavours = ([], ["--twisted"])
    for fixture in FIXTURES:
        for n in (1, 2, 3):
            for twisted in flavours:
                for sign in signs:
                    out.append(["kuperberg", fixture, "--hopf", f"exterior:{n}"] + twisted + sign)
        for rep, n in REPS:
            for twisted in flavours:
                for sign in signs:
                    out.append(["kuperberg", fixture, "--hopf", f"exterior:{n}", "--rep", rep]
                               + twisted + sign)
        for n in (1, 2, 3):
            for twisted in flavours:
                out.append(["crosscheck", fixture, "--hopf", f"exterior:{n}"] + twisted)
        for rep, n in REPS:
            for twisted in flavours:
                out.append(["crosscheck", fixture, "--hopf", f"exterior:{n}", "--rep", rep]
                           + twisted)
        out.append(["validate", fixture])
    for n in (1, 2):
        for twisted in flavours:
            out.append(["crosscheck", "--hopf", f"exterior:{n}", "--random", "6"] + twisted)
    for fixture in FIXTURES:
        for rep, _ in REPS:
            out.append(["twisted-alexander", fixture, rep])
    out.append(["twisted-alexander", WIRTINGER, WIRTINGER_REP])
    for knot in FIXTURES + (WIRTINGER,):
        for command in ("alexander", "presentation", "homology"):
            out.append([command, knot])
    for n in (1, 2, 3):
        out.append(["axioms", "--hopf", f"exterior:{n}"])
    for sign in signs:
        out.append(["kuperberg", RANK_TWO, "--hopf", "exterior:2", "--rep", RANK_TWO_REP,
                    "--twisted"] + sign)
    out.append(["crosscheck", RANK_TWO, "--hopf", "exterior:2", "--rep", RANK_TWO_REP,
                "--twisted"])
    out.append(["twisted-alexander", RANK_TWO, RANK_TWO_REP])
    for pres in SNF_BRANCHES:
        out.append(["homology", pres])
    for rep in FILL_IN_REPS:
        out.append(["twisted-alexander", FILL_IN, rep])
        out.append(["crosscheck", FILL_IN, "--hopf", "exterior:2", "--rep", rep, "--twisted"])
    for name in BAD_REPS:
        out.append(["twisted-alexander", FIGURE8, f"{{tests}}/{name}.json"])
    out.append(["kuperberg", INVALID, "--hopf", "exterior:1"])
    return out


def write_golden():
    os.environ.pop(SEED_ENV, None)
    records = []
    for argv in commands():
        code, stdout, stderr = run(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": stdout, "stderr": stderr})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
