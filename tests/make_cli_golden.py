"""Record the CLI golden outputs replayed by tests/test_cli_golden.py.

Run from the repository root as ``PYTHONPATH=src python3 tests/make_cli_golden.py``.
Each entry holds the argv (file arguments written as ``{data}/NAME`` for the
package data and ``{tests}/NAME`` for tests/data), the stdout and the exit
code of one in-process ``suturekup`` call.  Regenerate only when a change of
output is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
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


def resolve(arg: str) -> str:
    if arg.startswith("{data}/"):
        return str(resources.files("suturekup").joinpath("data", arg[len("{data}/"):]))
    if arg.startswith("{tests}/"):
        return str(TESTS_DATA / arg[len("{tests}/"):])
    return arg


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        try:
            code = main([resolve(a) for a in argv])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue()


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
    return out


def write_golden():
    os.environ.pop(SEED_ENV, None)
    records = []
    for argv in commands():
        code, stdout = run(argv)
        records.append({"argv": argv, "exit_code": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} commands to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
