"""The three workloads: fixed operation lists over generated inputs.

An operation is a dict with an ``id`` and a ``kind``:

* ``crosscheck``: ``torsion.crosscheck`` on a datum loaded during set-up;
  its output is the text ``suturekup crosscheck`` prints.
* ``cli``: an in-process ``cli.main(argv)`` call on generated files; its
  output is what the call writes to stdout.

Each workload's shapes are fixed; the seed only picks the contents (see
gen.py), so every seed costs about the same.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stdout

import suturekup
from suturekup import cli, files, torsion

import gen

DEFAULT_SEED = 0

WORKLOADS = ("oracle50", "contraction-sweep", "torsion-nf")

# contraction-sweep grid: (n, closed-curve lengths, layouts); prod L_i^n runs
# 81..4096.  The ~50 ms cells get three layouts each, so the middle of the
# latency distribution is a plateau of operations of similar cost rather
# than a gap whose side the median would pick by chance.
SWEEP_CELLS = (
    (2, (10,), 2), (2, (20,), 1), (3, (5,), 3), (3, (7,), 1), (4, (3,), 3), (4, (4,), 1),
    (2, (3, 4), 2), (2, (5, 6), 1), (3, (2, 3), 3), (3, (3, 3), 1), (4, (2, 2), 1),
    (4, (2, 3), 1), (2, (2, 2, 3), 2), (2, (4, 4, 4), 1), (3, (2, 2, 2), 1),
    (3, (2, 2, 3), 1), (4, (1, 2, 2), 1), (4, (1, 2, 3), 1),
)

# torsion-nf grid: d closed curves of length 2, dimension n, homology rank,
# two layouts per cell
TORSION_CELLS = tuple(
    (d, n, rank, variant)
    for d in (3, 4, 5, 6)
    for n in (2, 3)
    for rank in (1, 2)
    for variant in (0, 1)
)


def fixture(name):
    return os.path.join(os.path.dirname(suturekup.__file__), "data", name)


def build(workload, seed, workdir):
    """Write the workload's inputs under workdir; return its operation list."""
    if workload == "oracle50":
        return _build_oracle(seed, workdir)
    if workload == "contraction-sweep":
        return _build_sweep(seed, workdir)
    if workload == "torsion-nf":
        return _build_torsion(seed, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _build_oracle(seed, workdir):
    ops = []
    for k, D, n, mats in gen.oracle_data(seed):
        name = f"o{k:02d}"
        diagram, rep = gen.write_case(workdir, name, D, gen.QQ, mats)
        for twisted in (False, True):
            ops.append({
                "id": f"{name}-{'twisted' if twisted else 'plain'}",
                "kind": "crosscheck",
                "diagram": diagram,
                "rep": rep,
                "n": n,
                "twisted": twisted,
            })
    return ops


def _kuperberg_op(op_id, diagram, n, rep=None):
    argv = ["kuperberg", diagram, "--hopf", f"exterior:{n}"]
    if rep is not None:
        argv += ["--rep", rep]
    return {"id": op_id, "kind": "cli", "argv": argv + ["--twisted"],
            "diagram": diagram, "rep": rep, "n": n}


def _build_sweep(seed, workdir):
    ops = []
    for n, lengths, layouts in SWEEP_CELLS:
        d = len(lengths)
        for variant in range(layouts):
            D, mats, _ = gen.generate(f"{seed}/{variant}", d, n, lengths, arcs=1, rank=1)
            name = f"d{d}n{n}L{'.'.join(map(str, lengths))}v{variant}"
            diagram, rep = gen.write_case(workdir, name, D, gen.QQ, mats)
            ops.append(_kuperberg_op(name, diagram, n, rep))
    for knot in ("trefoil", "figure8"):
        for n in (1, 2, 3):
            ops.append(_kuperberg_op(f"{knot}-n{n}", fixture(f"{knot}.json"), n))
    return ops


def _alexander_op(op_id, diagram, rep):
    return {"id": op_id, "kind": "cli", "argv": ["twisted-alexander", diagram, rep],
            "diagram": diagram, "rep": rep}


def _build_torsion(seed, workdir):
    ops = []
    for d, n, rank, variant in TORSION_CELLS:
        D, mats, meridian = gen.generate(f"{seed}/{variant}", d, n, (2,) * d, arcs=rank,
                                         rank=rank, field=gen.EISENSTEIN)
        name = f"d{d}n{n}r{rank}v{variant}"
        diagram, rep = gen.write_case(workdir, name, D, gen.EISENSTEIN, mats, meridian)
        ops.append(_alexander_op(name, diagram, rep))
    ops.append(_alexander_op("figure8-parabolic", fixture("figure8.json"),
                             fixture("figure8_parabolic_rep.json")))
    return ops


def load_inputs(ops):
    """Read every input through suturekup.files; the loaded data by path."""
    loaded = {}
    for op in ops:
        diagram, rep = op["diagram"], op["rep"]
        if diagram not in loaded:
            loaded[diagram] = files.load_diagram(diagram)
        if rep is not None and rep not in loaded:
            names = loaded[diagram].generator_names()
            loaded[rep] = files.load_representation(rep).matrices_for(names)
    return loaded


def crosscheck_text(report):
    status = "PASS" if report.passed else "FAIL"
    return f"{status}\nZ = {report.z_value}\ndet = {report.det_value}\n"


def run_op(op, loaded):
    """Issue one operation; its output text and exit code."""
    if op["kind"] == "crosscheck":
        report = torsion.crosscheck(loaded[op["diagram"]], op["n"], loaded[op["rep"]],
                                    twisted=op["twisted"])
        return crosscheck_text(report), 0 if report.passed else 1
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(op["argv"])
    return buf.getvalue(), code
