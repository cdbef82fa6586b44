"""Twisted Reidemeister torsion and twisted Alexander polynomials via Fox calculus.

The torsion of a presentation with d relators and d closed generators (arcs
excluded) is the determinant of the Fox Jacobian evaluated through the
inverted representation, det((rho (x) h)(sigma(A))), defined up to a unit.
The same Jacobian without sigma, in the (relator, generator) convention,
equals the tensor-contraction invariant over an exterior algebra exactly;
crosscheck computes both sides and compares with no unit slack.  Both read
the Jacobian from one prefix walk per relator over the field, each entry a
sum of terms t^e * c kept by exponent; FoxMatrix is the reference route
through group-ring elements, multiplied out over the Laurent ring.
"""

from __future__ import annotations

from .diagram import HeegaardDatum, Presentation, Record, presentation
from .hopf import ExteriorAlgebra
from .kuperberg import evaluate_z, representation_for
from .laurent import InexactDivision, divide_exact, normalize_unit
from .linalg import bareiss_det
from .numberfield import QQ, accumulate
from .words import Word, fox_derivative


class FoxMatrix:
    """d x (d+l) matrix of group-ring entries; row j, column i = d(rel_j)/d(gen_i).

    The reference route that the tests and the benchmark's oracles use; the
    torsion and the crosscheck build their Fox block from prefix walks.
    """

    def __init__(self, pres: Presentation, field=None):
        self.field = field if field is not None else QQ
        self.presentation = pres
        self.rows = [
            [fox_derivative(rel, i, self.field) for i in range(pres.num_generators)]
            for rel in pres.relators
        ]

    def closed_square(self):
        """Rows = relators, columns = closed-curve generators; must be square."""
        d = _square_size(self.presentation)
        return [row[:d] for row in self.rows]


def _square_size(pres: Presentation) -> int:
    """Closed generator count of a square Fox block; it must equal the relator count."""
    d = pres.closed_count
    if len(pres.relators) != d:
        raise ValueError(
            f"need {len(pres.relators)} closed generators for a square Fox block, "
            f"presentation declares {d}"
        )
    return d


def fox_matrix(pres: Presentation, field=None) -> FoxMatrix:
    return FoxMatrix(pres, field)


def _fox_block(pres: Presentation, rep):
    """The dn x dn matrix whose block (i, g) is rep(d rel_i / d gen_g), g closed.

    One prefix walk per relator gives every term: a letter g at position pos
    adds +rep(prefix_pos) to block (i, g), and a letter g^-1 adds
    -rep(prefix_pos * g^-1) = -rep(prefix_{pos+1}).  The walk stops at the
    last prefix a closed letter needs.
    """
    d = _square_size(pres)
    n = rep.n
    big = [[{} for _ in range(d * n)] for _ in range(d * n)]
    for i, rel in enumerate(pres.relators):
        # (prefix index, generator, sign) of every closed letter, in order
        terms = [(pos + (e < 0), g, e) for pos, (g, e) in enumerate(rel.letters) if g < d]
        if not terms:
            continue
        prefixes = rep.prefix_walk(rel.letters[:terms[-1][0]])
        for p, g, s in terms:
            e, m = prefixes[p]
            for r in range(n):
                row = big[i * n + r]
                for c, x in enumerate(m[r], g * n):
                    accumulate(row[c], e, x if s > 0 else -x)
    return [[rep.wrap(entry) for entry in row] for row in big]


def _fox_block_det(pres: Presentation, rep):
    """Determinant of the closed Fox block evaluated through rep.

    This is the crosscheck convention, d rel_i / d gen_j at block (i, j).
    The torsion convention, rep(sigma(d rel_j / d gen_i)) at block (i, j), is
    the transpose of this block through rep.inverse_transpose(), since
    rep(sigma(w)) = rep(w)^-1; callers pass that representation instead.
    """
    return bareiss_det(_fox_block(pres, rep), rep.ring)


class TorsionResult(Record):
    __slots__ = ("raw", "normalized")


def twisted_torsion(pres: Presentation, rho_matrices=None, amap=None,
                    n=None, field=None) -> TorsionResult:
    """det((rho (x) h)(sigma(A))) over the Laurent ring of the free abelianization.

    A is the square closed-generator Fox block in the (generator, relator)
    convention.  Its image through rep is the transpose of the (relator,
    generator) block through rep.inverse_transpose(), so the determinant is
    taken there; the result is returned raw and normalized up to units.
    """
    rep = representation_for(pres, n, rho_matrices, field, twisted=True, amap=amap)
    det = _fox_block_det(pres, rep.inverse_transpose())
    return TorsionResult(det, normalize_unit(det))


class AlexanderResult(Record):
    # quotient is None when the division is inexact
    __slots__ = ("torsion", "boundary_factor", "quotient", "exact")


def twisted_alexander_knot(pres: Presentation, rho_matrices, meridian: Word,
                           n=None, field=None) -> AlexanderResult:
    """Torsion together with the factor det(t*rho(m) - I) of the chosen meridian.

    The twisted Alexander polynomial is the exact quotient when it exists;
    an inexact division is reported, not rationalized.
    """
    rep = representation_for(pres, n, rho_matrices, field, twisted=True)
    torsion = _fox_block_det(pres, rep.inverse_transpose())
    factor = [[a - b for a, b in zip(row, ident_row)]
              for row, ident_row in zip(rep.word_matrix(meridian), rep.identity)]
    boundary = bareiss_det(factor, rep.ring)
    if boundary.is_zero():
        raise ValueError("boundary factor det(t*rho(m) - I) vanishes")
    try:
        return AlexanderResult(torsion, boundary, divide_exact(torsion, boundary), True)
    except InexactDivision:
        return AlexanderResult(torsion, boundary, None, False)


class CrosscheckReport(Record):
    __slots__ = ("z_value", "det_value")

    @property
    def passed(self):
        return self.z_value == self.det_value


def crosscheck(D: HeegaardDatum, n: int, rho_matrices=None, twisted=False,
               field=None) -> CrosscheckReport:
    """Tensor contraction versus Fox determinant, compared exactly.

    The determinant side uses the matrix (i, j) -> d(rel_i)/d(gen_j) over the
    closed generators, with no sigma and no unit normalization; for the
    twisted case both sides carry the homology monomials.
    """
    pres = presentation(D)
    rep = representation_for(pres, n, rho_matrices, field, twisted)
    z = evaluate_z(D, ExteriorAlgebra(n, rep.ring), rep)
    det = _fox_block_det(pres, rep)
    return CrosscheckReport(z, det)
