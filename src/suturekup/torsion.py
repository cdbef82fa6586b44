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

from .abelian import abelianize
from .diagram import HeegaardDatum, Presentation, presentation
from .hopf import ExteriorAlgebra
from .kuperberg import EvaluationOptions, Representation, evaluate_z
from .laurent import InexactDivision, LaurentPoly, LaurentRing, divide_exact, normalize_unit
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


def bareiss_det(matrix, ring):
    """Exact fraction-free determinant over a field or Laurent ring.

    Laurent entries are cleared to polynomial form by a tracked monomial shift
    per row; Bareiss elimination then divides exactly at every step, by a
    division prepared once per step for that step's divisor.
    """
    n = len(matrix)
    if n == 0:
        return ring.one
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    if isinstance(ring, LaurentRing):
        shift = [0] * ring.nvars
        rows = []
        for row in matrix:
            mins = None
            for e in row:
                if not e.is_zero():
                    m = e.min_exponents()
                    mins = m if mins is None else tuple(map(min, mins, m))
            if mins is None:
                return ring.zero
            mins = tuple(min(x, 0) for x in mins)
            shift = [a + b for a, b in zip(shift, mins)]
            rows.append([e.scale_monomial(tuple(-x for x in mins)) for e in row])
        det = _bareiss(rows, ring, _laurent_divider)
        return det.scale_monomial(tuple(shift))
    return _bareiss([list(row) for row in matrix], ring, _field_divider)


def _field_divider(pivot):
    inv = pivot.inv()
    return lambda a: a * inv


def _laurent_divider(pivot):
    # a monomial pivot is a unit, so multiplying by its inverse is exact
    if pivot.is_monomial():
        inv = pivot.inv_unit()
        return lambda a: a * inv
    return lambda a: divide_exact(a, pivot)


def _bareiss(M, ring, divider):
    """Bareiss elimination; divider(p) returns the exact division by p."""
    n = len(M)
    sign = 1
    prev = ring.one
    for k in range(n - 1):
        if M[k][k].is_zero():
            pivot_row = next(
                (r for r in range(k + 1, n) if not M[r][k].is_zero()), None
            )
            if pivot_row is None:
                return ring.zero
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        divide = divider(prev)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = divide(M[k][k] * M[i][j] - M[i][k] * M[k][j])
            M[i][k] = ring.zero
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return -det if sign < 0 else det


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
        field = field if field is not None else QQ
        if n is None:
            n = len(rho_matrices[0]) if rho_matrices else 1
        if amap is None:
            amap = abelianize(pres.num_generators, pres.relators)
        rep = Representation.twisted(rho_matrices, amap, n, field)
    fm = fox_matrix(pres, rep.ring.field)
    square = fm.closed_square()
    d = len(square)
    # A_{i,j} = d(rel_j)/d(gen_i), entries inverted by sigma, then evaluated
    blocks = [
        [rep.apply_to_groupring(sigma(square[j][i])) for j in range(d)]
        for i in range(d)
    ]
    big = _assemble_blocks(blocks, rep.n, rep.ring)
    det = bareiss_det(big, rep.ring)
    return TorsionResult(det, normalize_unit(det))


def _assemble_blocks(blocks, n, ring):
    d = len(blocks)
    big = [[ring.zero] * (d * n) for _ in range(d * n)]
    for bi in range(d):
        for bj in range(d):
            m = blocks[bi][bj]
            for i in range(n):
                for j in range(n):
                    big[bi * n + i][bj * n + j] = m[i][j]
    return big


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
    field = field if field is not None else QQ
    if n is None:
        n = len(rho_matrices[0]) if rho_matrices else 1
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(rho_matrices, amap, n, field)
    tor = twisted_torsion(pres, rep=rep)
    ring = rep.ring
    m = rep.word_matrix(meridian)
    factor = [
        [m[i][j] - (ring.one if i == j else ring.zero) for j in range(n)]
        for i in range(n)
    ]
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
    field = field if field is not None else QQ
    pres = presentation(D)
    if twisted:
        amap = abelianize(pres.num_generators, pres.relators)
        rep = Representation.twisted(rho_matrices, amap, n, field)
    else:
        if rho_matrices is None:
            rep = Representation.trivial(pres.num_generators, n, field)
        else:
            rep = Representation(field, n, rho_matrices)
    H = ExteriorAlgebra(n, rep.ring)
    z = evaluate_z(D, H, rep, opts or EvaluationOptions())

    fm = fox_matrix(pres, field)
    square = fm.closed_square()
    d = len(square)
    blocks = [
        [rep.apply_to_groupring(square[i][j]) for j in range(d)]
        for i in range(d)
    ]
    big = _assemble_blocks(blocks, n, rep.ring)
    det = bareiss_det(big, rep.ring)
    return CrosscheckReport(z, det)
