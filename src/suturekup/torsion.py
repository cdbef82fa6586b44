"""Twisted Reidemeister torsion and twisted Alexander polynomials via Fox calculus.

The torsion of a presentation with d relators and d closed generators (arcs
excluded) is the determinant of the Fox Jacobian evaluated through the
inverted representation, det((rho (x) h)(sigma(A))), defined up to a unit.
The same Jacobian without sigma, in the (relator, generator) convention,
equals the tensor-contraction invariant over an exterior algebra exactly;
crosscheck computes both sides and compares with no unit slack.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import HeegaardDatum, Presentation, presentation
from .hopf import ExteriorAlgebra
from .kuperberg import EvaluationOptions, Representation, evaluate_z, representation_for
from .laurent import InexactDivision, LaurentPoly, divide_exact, normalize_unit
from .linalg import assemble_blocks, bareiss_det
from .numberfield import QQ
from .words import GroupRingElement, Word, fox_derivative, sigma


class FoxMatrix:
    """d x (d+l) matrix of group-ring entries; row j, column i = d(rel_j)/d(gen_i)."""

    def __init__(self, pres: Presentation, field=None):
        self.field = field if field is not None else QQ
        self.presentation = pres
        self.rows = [
            [fox_derivative(rel, i, self.field) for i in range(pres.num_generators)]
            for rel in pres.relators
        ]

    @property
    def shape(self):
        return (len(self.rows), self.presentation.num_generators)

    def entry(self, j, i) -> GroupRingElement:
        return self.rows[j][i]

    def closed_square(self):
        """Rows = relators, columns = closed-curve generators; must be square."""
        d = self.presentation.closed_count
        if len(self.rows) != d:
            raise ValueError(
                f"need {len(self.rows)} closed generators for a square Fox block, "
                f"presentation declares {d}"
            )
        return [row[:d] for row in self.rows]


def fox_matrix(pres: Presentation, field=None) -> FoxMatrix:
    return FoxMatrix(pres, field)


def _fox_block_det(pres: Presentation, rep, field, torsion_convention):
    """Bareiss determinant of the closed Fox block evaluated through rep.

    The torsion convention puts sigma(d rel_j / d gen_i) at block (i, j); the
    crosscheck puts d rel_i / d gen_j there.
    """
    square = fox_matrix(pres, field).closed_square()
    d = len(square)
    blocks = [
        [rep.apply_to_groupring(sigma(square[j][i]) if torsion_convention
                                else square[i][j]) for j in range(d)]
        for i in range(d)
    ]
    return bareiss_det(assemble_blocks(blocks, rep.n, rep.ring), rep.ring)


@dataclass
class TorsionResult:
    raw: LaurentPoly
    normalized: LaurentPoly


def twisted_torsion(pres: Presentation, rho_matrices=None, amap=None,
                    n=None, field=None, rep=None) -> TorsionResult:
    """det((rho (x) h)(sigma(A))) over the Laurent ring of the free abelianization.

    A is the square closed-generator Fox block in the (generator, relator)
    convention; the result is returned raw and normalized up to units.  A
    twisted representation already built from the same data can be passed
    as rep, which then replaces rho_matrices, amap, n and field.
    """
    if rep is None:
        if n is None:
            n = len(rho_matrices[0]) if rho_matrices else 1
        if amap is None:
            rep = representation_for(pres, n, rho_matrices, field, twisted=True)
        else:
            rep = Representation.twisted(rho_matrices, amap, n, field)
    det = _fox_block_det(pres, rep, rep.ring.field, torsion_convention=True)
    return TorsionResult(det, normalize_unit(det))


@dataclass
class AlexanderResult:
    torsion: LaurentPoly
    boundary_factor: LaurentPoly
    quotient: LaurentPoly | None
    exact: bool


def twisted_alexander_knot(pres: Presentation, rho_matrices, meridian: Word,
                           n=None, field=None) -> AlexanderResult:
    """Torsion together with the factor det(t*rho(m) - I) of the chosen meridian.

    The twisted Alexander polynomial is the exact quotient when it exists;
    an inexact division is reported, not rationalized.
    """
    if n is None:
        n = len(rho_matrices[0]) if rho_matrices else 1
    rep = representation_for(pres, n, rho_matrices, field, twisted=True)
    tor = twisted_torsion(pres, rep=rep)
    ring = rep.ring
    factor = [[a - b for a, b in zip(row, ident_row)]
              for row, ident_row in zip(rep.word_matrix(meridian), rep.identity)]
    boundary = bareiss_det(factor, ring)
    if boundary.is_zero():
        raise ValueError("boundary factor det(t*rho(m) - I) vanishes")
    try:
        quotient = divide_exact(tor.raw, boundary)
        return AlexanderResult(tor.raw, boundary, quotient, True)
    except InexactDivision:
        return AlexanderResult(tor.raw, boundary, None, False)


@dataclass
class CrosscheckReport:
    z_value: object
    det_value: object

    @property
    def passed(self):
        return self.z_value == self.det_value


def crosscheck(D: HeegaardDatum, n: int, rho_matrices=None, twisted=False,
               field=None, opts=None) -> CrosscheckReport:
    """Tensor contraction versus Fox determinant, compared exactly.

    The determinant side uses the matrix (i, j) -> d(rel_i)/d(gen_j) over the
    closed generators, with no sigma and no unit normalization; for the
    twisted case both sides carry the homology monomials.
    """
    pres = presentation(D)
    rep = representation_for(pres, n, rho_matrices, field, twisted)
    z = evaluate_z(D, ExteriorAlgebra(n, rep.ring), rep, opts or EvaluationOptions())
    det = _fox_block_det(pres, rep, field, torsion_convention=False)
    return CrosscheckReport(z, det)
