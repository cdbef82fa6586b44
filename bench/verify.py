"""Correctness checks for every operation's output, run outside the timed region.

* ``crosscheck`` operations must report PASS, with Z equal to det.
* ``kuperberg`` operations must print the Fox-block determinant computed by
  ``bareiss_det``, the other side of the crosscheck identity.
* ``twisted-alexander`` operations must print the normalized library result,
  and that result must agree with an independent evaluation: at fixed
  rational points the Fox Jacobian is evaluated through the representation
  with plain matrix arithmetic over the number field and its determinant
  taken by Gaussian elimination.

For the default seed the output bytes must also equal the committed ones in
expected/<workload>.json.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from suturekup.abelian import abelianize
from suturekup.diagram import presentation
from suturekup.files import load_diagram, load_representation
from suturekup.kuperberg import Representation
from suturekup.laurent import normalize_unit
from suturekup.numberfield import QQ
from suturekup.torsion import bareiss_det, fox_matrix, twisted_alexander_knot
from suturekup.words import parse_word

import gen

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# evaluation points for the Laurent variables t1, t2
POINTS = ((Fraction(2), Fraction(3)), (Fraction(-3), Fraction(5, 2)))


def expected_path(workload):
    return os.path.join(EXPECTED_DIR, f"{workload}.json")


def load_expected(workload):
    with open(expected_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["outputs"]


def assemble(blocks, n):
    """d x d blocks of n x n matrices as one dn x dn matrix."""
    d = len(blocks)
    return [[blocks[bi][bj][i][j] for bj in range(d) for j in range(n)]
            for bi in range(d) for i in range(n)]


def fox_block_det(diagram, n, rep):
    """Twisted Fox-block determinant, the det side of the crosscheck."""
    D = load_diagram(diagram)
    if rep is None:
        field, matrices = QQ, None
    else:
        rep_file = load_representation(rep)
        field, matrices = rep_file.field, rep_file.matrices_for(D.generator_names())
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    rho = Representation.twisted(matrices, amap, n, field)
    square = fox_matrix(pres, field).closed_square()
    blocks = [[rho.apply_to_groupring(e) for e in row] for row in square]
    return bareiss_det(assemble(blocks, n), rho.ring)


def alexander_text(result):
    """The three lines ``suturekup twisted-alexander`` prints for a result."""
    quotient = normalize_unit(result.quotient) if result.exact else "not exact"
    return (f"torsion: {normalize_unit(result.torsion)}\n"
            f"boundary_factor: {normalize_unit(result.boundary_factor)}\n"
            f"quotient: {quotient}\n")


def evaluate_laurent(p, point):
    total = p.ring.field.zero
    for exps, c in p.terms.items():
        scale = Fraction(1)
        for r, e in zip(point, exps):
            scale *= r ** e
        total = total + c * scale
    return total


def _identity(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def _matmul(a, b, field):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            if not a[i][k].is_zero():
                aik = a[i][k]
                row = b[k]
                out[i] = [x + aik * y for x, y in zip(out[i], row)]
    return out


def _inverse(m, field):
    """Gauss-Jordan inverse over the field."""
    n = len(m)
    aug = [list(row) + ident for row, ident in zip(m, _identity(n, field))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if not aug[r][col].is_zero())
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inv()
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def evaluated_images(matrices, amap, field, point):
    """(t^h(g) * rho(g), its inverse) for every generator g, at t = point."""
    images = []
    for g, m in enumerate(matrices):
        scale = Fraction(1)
        for r, e in zip(point, amap.gen_images[g]):
            scale *= r ** e
        img = [[c * scale for c in row] for row in m]
        images.append((img, _inverse(img, field)))
    return images


def evaluated_torsion(pres, images, n, field):
    """det((rho (x) h)(sigma(A))) at the images' point, without the Laurent ring.

    Block (i, j) is the image of sigma(d rel_j / d gen_i); by the Fox rules a
    letter gen_i at prefix u adds rho(u)^-1 and a letter gen_i^-1 subtracts
    rho(u gen_i^-1)^-1 = rho(gen_i) rho(u)^-1.
    """
    d = pres.closed_count
    big = [[field.zero] * (d * n) for _ in range(d * n)]
    for j, rel in enumerate(pres.relators):
        prefix_inv = _identity(n, field)
        for g, e in rel.letters:
            img, img_inv = images[g]
            if g < d:
                term = prefix_inv if e == 1 else _matmul(img, prefix_inv, field)
                for r in range(n):
                    for c in range(n):
                        x = term[r][c]
                        big[g * n + r][j * n + c] += x if e == 1 else -x
            prefix_inv = _matmul(img_inv if e == 1 else img, prefix_inv, field)
    return gen.field_det(big, field)


def alexander_problems(diagram, rep, text):
    """Reasons the printed twisted-alexander output is wrong (empty if right)."""
    D = load_diagram(diagram)
    rep_file = load_representation(rep)
    field, n = rep_file.field, rep_file.dimension
    pres = presentation(D)
    names = pres.generator_names()
    matrices = rep_file.matrices_for(names)
    meridian = parse_word(rep_file.meridian, names)
    result = twisted_alexander_knot(pres, matrices, meridian, n, field)
    problems = []
    if text != alexander_text(result):
        problems.append("printed output differs from the library result")
    amap = abelianize(pres.num_generators, pres.relators)
    for point in POINTS:
        point = point[:amap.rank]
        images = evaluated_images(matrices, amap, field, point)
        torsion_value = evaluate_laurent(result.torsion, point)
        if torsion_value != evaluated_torsion(pres, images, n, field):
            problems.append(f"torsion disagrees with the evaluated Fox Jacobian at {point}")
        m = _identity(n, field)
        for g, e in meridian.letters:
            m = _matmul(m, images[g][0 if e == 1 else 1], field)
        boundary = [[m[i][j] - (field.one if i == j else field.zero) for j in range(n)]
                    for i in range(n)]
        boundary_value = evaluate_laurent(result.boundary_factor, point)
        if boundary_value != gen.field_det(boundary, field):
            problems.append(f"boundary factor disagrees with det(t*rho(m) - I) at {point}")
        if result.exact and (evaluate_laurent(result.quotient, point) * boundary_value
                             != torsion_value):
            problems.append(f"quotient times boundary factor is not the torsion at {point}")
    return problems


def crosscheck_problems(text):
    lines = text.splitlines()
    if len(lines) != 3 or lines[0] != "PASS":
        return ["crosscheck did not report PASS"]
    z, det = lines[1].removeprefix("Z = "), lines[2].removeprefix("det = ")
    return [] if z == det else ["Z and det lines differ"]


def problems(op, text, code, expected=None):
    """Reasons one operation's output is wrong; expected bytes when given."""
    found = [] if code == 0 else [f"exit code {code}"]
    if expected is not None and text != expected.get(op["id"]):
        found.append("output differs from the committed expected bytes")
    if op["kind"] == "crosscheck":
        return found + crosscheck_problems(text)
    if op["argv"][0] == "kuperberg":
        det = fox_block_det(op["diagram"], op["n"], op["rep"])
        return found + ([] if text == f"{det}\n" else ["Z differs from the Fox-block det"])
    return found + alexander_problems(op["diagram"], op["rep"], text)
