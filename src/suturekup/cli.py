"""Command-line front end; deterministic text output, exit code 0 on success.

Unreadable or invalid input (a missing file, malformed JSON, a singular
representation matrix, a reducible min_poly, ...) ends in one ``error: ...``
line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import cache

# every command reads files; each imports the modules of its own computation
from .diagram import HeegaardDatum, presentation, random_datum, validate, validation_error
from .files import load_diagram, load_diagram_or_presentation, load_representation
from .numberfield import MAX_DIGITS, MAX_DIM, QQ, echo
from .words import parse_word

SEED_ENV = "SUTURE_KUP_SEED"
MAX_AXIOMS_DIM = 6  # verify_axioms: 5.5-8.6 s at N = 6, over 60 s at N = 7 (CPython 3.11)


def _parse_hopf(spec: str) -> int:
    kind, _, dim = spec.partition(":")
    if kind != "exterior" or not (dim.isascii() and dim.isdigit()):
        raise ValueError(f"unsupported Hopf algebra {echo(spec)}; use exterior:N")
    if len(dim.lstrip("0")) > len(str(MAX_DIM)) or int(dim) > MAX_DIM:
        raise ValueError(f"--hopf takes exterior:N with N in 0..{MAX_DIM}, not {echo(spec)}")
    return int(dim)


def _valid(D):
    """D; an invalid diagram ends the command with exit code 1."""
    if error := validation_error(D):
        raise SystemExit(error)
    return D


def _load_representation_file(args, n, names):
    """Field and generator matrices of --rep (QQ and None without it)."""
    if not args.rep:
        return QQ, None
    rep_file = load_representation(args.rep)
    if rep_file.dimension != n:
        raise ValueError("representation dimension does not match --hopf")
    return rep_file.field, rep_file.matrices_for(names)


def _load_presentation_any(path):
    doc = load_diagram_or_presentation(path)
    return presentation(_valid(doc)) if isinstance(doc, HeegaardDatum) else doc


def cmd_validate(args) -> int:
    D = load_diagram(args.diagram)
    report = validate(D)
    if report.valid:
        print("valid")
        return 0
    for message in report.errors:
        print(f"error: {message}")
    return 1


def cmd_presentation(args) -> int:
    pres = _load_presentation_any(args.input)
    names = pres.generator_names()
    print("generators: " + " ".join(names))
    print(f"closed_count: {pres.closed_count}")
    for j, rel in enumerate(pres.relators):
        print(f"relator {j + 1}: {rel.format(names)}")
    return 0


def cmd_homology(args) -> int:
    from .abelian import abelianize
    pres = _load_presentation_any(args.input)
    amap = abelianize(pres.num_generators, pres.relators)
    names = pres.generator_names()
    print(f"rank: {amap.rank}")
    print("torsion: " + (" ".join(str(t) for t in amap.torsion) if amap.torsion else "none"))
    for name, img in zip(names, amap.gen_images):
        print(f"{name} -> ({', '.join(str(x) for x in img)})")
    return 0


def cmd_alexander(args) -> int:
    from .torsion import twisted_torsion
    pres = _load_presentation_any(args.input)
    result = twisted_torsion(pres)
    print(result.normalized)
    return 0


def cmd_twisted_alexander(args) -> int:
    from .laurent import normalize_unit
    from .torsion import twisted_alexander_knot
    pres = _load_presentation_any(args.input)
    rep_file = load_representation(args.representation)
    if rep_file.meridian is None:
        raise ValueError("representation file must name a meridian word")
    names = pres.generator_names()
    matrices = rep_file.matrices_for(names)
    meridian = parse_word(rep_file.meridian, names)
    result = twisted_alexander_knot(pres, matrices, meridian,
                                    rep_file.dimension, rep_file.field)
    print(f"torsion: {normalize_unit(result.torsion)}")
    print(f"boundary_factor: {normalize_unit(result.boundary_factor)}")
    if result.exact:
        print(f"quotient: {normalize_unit(result.quotient)}")
    else:
        print("quotient: not exact")
    return 0


def cmd_kuperberg(args) -> int:
    from .kuperberg import EvaluationOptions, evaluate_valid_z, representation_for
    D = _valid(load_diagram(args.diagram))
    n = _parse_hopf(args.hopf)
    field, matrices = _load_representation_file(args, n, D.generator_names())
    opts = EvaluationOptions(homology_orientation_sign=args.sign)
    rep = representation_for(presentation(D), n, matrices, field, args.twisted)
    value = evaluate_valid_z(D, rep, opts)
    print(value)
    return 0


def cmd_crosscheck(args) -> int:
    from .torsion import crosscheck, crosscheck_valid
    n = _parse_hopf(args.hopf)
    failures = 0
    if args.random:
        text = os.environ.get(SEED_ENV, "0")
        if not re.fullmatch(f"[+-]?[0-9]{{1,{MAX_DIGITS}}}", text):
            raise ValueError(f"${SEED_ENV} must be an integer of at most {MAX_DIGITS} digits, "
                             f"not {echo(text)}")
        base = int(text)
        for k in range(args.random):
            seed = base + k
            D = random_datum(seed, d=1 + k % 2, l=k % 3, max_crossings=4)
            report = crosscheck(D, n, twisted=bool(args.twisted))
            status = "PASS" if report.passed else "FAIL"
            print(f"seed {seed}: {status}")
            failures += not report.passed
        return 1 if failures else 0
    D = _valid(load_diagram(args.diagram))
    field, matrices = _load_representation_file(args, n, D.generator_names())
    report = crosscheck_valid(D, n, matrices, bool(args.twisted), field)
    print("PASS" if report.passed else "FAIL")
    print(f"Z = {report.z_value}")
    print(f"det = {report.det_value}")
    return 0 if report.passed else 1


def cmd_axioms(args) -> int:
    from .hopf import ExteriorAlgebra, verify_axioms
    n = _parse_hopf(args.hopf)
    if n > MAX_AXIOMS_DIM:
        raise ValueError(f"axioms takes --hopf exterior:N with N in 0..{MAX_AXIOMS_DIM}, not {n}")
    report = verify_axioms(ExteriorAlgebra(n))
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="suturekup",
        description="Twisted Kuperberg invariants and twisted torsion from "
                    "combinatorial Heegaard data, over exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a diagram file")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("presentation", help="print the induced group presentation")
    p.add_argument("input")
    p.set_defaults(func=cmd_presentation)

    p = sub.add_parser("homology", help="free abelianization of the group")
    p.add_argument("input")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("alexander",
                       help="normalized n=1 trivial-representation torsion")
    p.add_argument("input")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("twisted-alexander",
                       help="twisted torsion, boundary factor and quotient")
    p.add_argument("input")
    p.add_argument("representation")
    p.set_defaults(func=cmd_twisted_alexander)

    p = sub.add_parser("kuperberg", help="evaluate the invariant on a diagram")
    p.add_argument("diagram")
    p.add_argument("--hopf", required=True, help="exterior:N")
    p.add_argument("--rep", help="representation file")
    p.add_argument("--twisted", action="store_true")
    p.add_argument("--sign", type=int, default=1, choices=(1, -1),
                   help="homology orientation sign")
    p.set_defaults(func=cmd_kuperberg)

    p = sub.add_parser("crosscheck",
                       help="compare the invariant with the Fox determinant")
    p.add_argument("diagram", nargs="?")
    p.add_argument("--hopf", required=True, help="exterior:N")
    p.add_argument("--rep", help="representation file")
    p.add_argument("--twisted", action="store_true")
    p.add_argument("--random", type=int, default=0, metavar="N",
                   help=f"run N seeded random data (seed base from ${SEED_ENV})")
    p.set_defaults(func=cmd_crosscheck)

    p = sub.add_parser("axioms", help="verify the Hopf superalgebra axioms")
    p.add_argument("--hopf", required=True, help="exterior:N")
    p.set_defaults(func=cmd_axioms)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "crosscheck" and args.random < 0:
        parser.error(f"--random N must not be negative, not {args.random}")
    if args.command == "crosscheck" and not args.random and not args.diagram:
        parser.error("crosscheck needs a diagram file or --random N")
    if args.command == "crosscheck" and args.random and (args.diagram or args.rep):
        parser.error("crosscheck --random N takes no diagram file and no --rep")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
