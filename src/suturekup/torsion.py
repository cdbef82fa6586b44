"""Twisted Reidemeister torsion and twisted Alexander polynomials via Fox calculus.

The torsion of a presentation with d relators and d closed generators (arcs
excluded) is the determinant of the Fox Jacobian evaluated through the
inverted representation, det((rho (x) h)(sigma(A))), defined up to a unit.
The same Jacobian without sigma, in the (relator, generator) convention,
equals the tensor-contraction invariant over an exterior algebra exactly;
crosscheck computes both sides and compares with no unit slack.  Both walk
prefixes once per relator into n x n blocks of terms t^e * M and eliminate
whole blocks over the field, leaving bareiss_det the blocks no unit pivot
reaches; one routine evaluates every pivot, and a block made by one letter
takes its determinant from the letters' and its inverse from the
representation's walk, not from a sweep.  FoxMatrix is the
reference route through group-ring elements.
"""

from __future__ import annotations

from functools import reduce
from math import inf
from operator import add, mul, sub

from .diagram import HeegaardDatum, Presentation, Record, presentation, validation_error
from .kuperberg import EvaluationError, evaluate_valid_z, representation_for
from .laurent import InexactDivision, divide_exact, normalize_unit
from .linalg import SingularMatrix, bareiss_det, inverse_and_det, matmul
from .numberfield import QQ
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


def _fox_grid(pres: Presentation, rep):
    """Block rows {g: {e: M}} of the closed Fox block, and the origins of its blocks.

    Block (i, g) = rep(d rel_i / d gen_g) is the sum of its terms t^e * M, with no zero
    block or matrix.  One prefix walk per relator gives every term: a letter g at
    position pos adds +rep(prefix_pos) to block (i, g), and g^-1 adds
    -rep(prefix_pos * g^-1) = -rep(prefix_{pos+1}); the walk stops at the last prefix a
    closed letter needs.  origins[i, g] = (prefix letters, sign) for each block made by
    exactly one letter, which is then sign * rep(prefix)."""
    d = _square_size(pres)
    grid, origins = [], {}
    for i, rel in enumerate(pres.relators):
        row = {}
        # (prefix index, generator, sign) of every closed letter, in order
        terms = [(pos + (e < 0), g, e) for pos, (g, e) in enumerate(rel.letters) if g < d]
        prefixes = rep.prefix_walk(rel.letters[:terms[-1][0]]) if terms else ()
        for p, g, s in terms:
            origins[i, g] = None if g in row else (rel.letters[:p], s)
            e, m = prefixes[p]
            acc = row.setdefault(g, {}).pop(e, None)
            m = [[-x for x in r] for r in m] if s < 0 else m
            m = m if acc is None else [list(map(add, a, b)) for a, b in zip(acc, m)]
            if acc is None or any(map(any, m)):
                row[g][e] = m
        grid.append({g: block for g, block in row.items() if block})
    return grid, {key: origin for key, origin in origins.items() if origin}


def _assemble(rows, cols, rep):
    """The scalar matrix of the block rows {j: {e: M}} at the block columns cols."""
    return [[rep.wrap({e: m[r][c] for e, m in row.get(j, {}).items() if m[r][c]})
             for j in cols for c in range(rep.n)]
            for row in rows for r in range(rep.n)]


def _add_products(block, x, z, field):
    """block + x * z for blocks {e: M}, with no zero matrix; each entry is one field
    dot over its entry in block and every pair of terms whose exponents sum to its own."""
    groups = {}
    for e1, a in x.items():
        for e2, b in z.items():
            groups.setdefault(tuple(map(add, e1, e2)), []).append((a, b))
    out = dict(block)
    one, dot = field.one, field.dot
    for e, pairs in groups.items():
        xs = [[v for a, _ in pairs for v in a[r]] for r in range(len(pairs[0][0]))]
        ys = list(zip(*[row for _, b in pairs for row in b]))
        old = out.pop(e, None) or [[field.zero] * len(ys)] * len(xs)
        m = [[dot((one, *xr), (o, *yc)) for o, yc in zip(orow, ys)] for xr, orow in zip(xs, old)]
        if any(map(any, m)):
            out[e] = m
    return out


def _pivot(block, origin, rep, inverse):
    """(e, det M, -M^-1) of a candidate pivot block {e: M}, -M^-1 None unless inverse is
    set; a block of several terms gives (None, bareiss_det of it over the ring, None).

    A one-term block with an origin (prefix letters, sign), M = sign * rep(prefix),
    takes det M = sign^n * word_det(prefix) and, when inverse is set,
    M^-1 = sign * rep(prefix)^-1 from the representation's walk.  Any other one-term
    block takes det M from bareiss_det over the field, or both from a sweep when
    inverse is set, which raises SingularMatrix if M has no inverse."""
    if len(block) > 1:
        return None, bareiss_det(_assemble([{0: block}], [0], rep), rep.ring), None
    (e, m), = block.items()
    if origin is None:
        if not inverse:
            return e, bareiss_det(m, rep.field), None
        inv, det = inverse_and_det(m, rep.field)
        return e, det, [[-x for x in r] for r in inv]
    letters, sign = origin
    det = rep.word_det(letters)
    det = -det if sign < 0 and rep.n % 2 else det
    if not inverse:
        return e, det, None
    inv = rep.word_inverse(letters)
    return e, det, inv if sign < 0 else [[-x for x in r] for r in inv]


def _grid_det(grid, rep, origins=None):
    """Determinant of the block matrix with block rows grid, by elimination over the field.

    An empty block row or column gives 0.  Each step's candidate pivots are the first
    block alone in its column, which needs only its determinant, or else the one-term
    blocks t^e * M by the fewest other blocks in their row and column, then the
    shortest prefix to walk, a swept block last; _pivot evaluates them in turn, and
    the first with M invertible is the pivot.  Its Schur step, with
    Z_j = -t^-e * M^-1 * B_pj for each block of the pivot row, adds X_r * Z_j to block
    (r, j) of every other row r.  bareiss_det takes the blocks left when no candidate
    is usable.  A pivot moved to the front passes n rows or columns per block row or
    column before it, each flipping the sign.  origins, as _fox_grid gives them, lets
    a block no Schur step has updated take det M, and M^-1 when it is needed, from
    the representation instead of a sweep."""
    n, ring, field = rep.n, rep.ring, rep.field
    rows, left = {i: dict(row) for i, row in enumerate(grid)}, list(range(len(grid)))
    origins = dict(origins or ())
    factors, passed = [], 0
    while n and rows:  # at n = 0 the scalar matrix left is 0 x 0
        cols = {j: [i for i, row in rows.items() if j in row] for j in left}
        if not all(rows.values()) or not all(cols.values()):
            return ring.zero
        lone = next(((c[0], j) for j, c in cols.items() if len(c) == 1), None)
        candidates = [lone] if lone else [key[2:] for key in sorted(
            (len(row) + len(cols[j]), len(origins[i, j][0]) if (i, j) in origins else inf, i, j)
            for i, row in rows.items() for j, block in row.items() if len(block) == 1)]
        for p, q in candidates:
            try:
                e, m_det, neg_inv = _pivot(rows[p][q], origins.get((p, q)), rep, not lone)
                break
            except SingularMatrix:
                pass
        else:
            break
        if not lone:
            zs = {j: {tuple(map(sub, f, e)): matmul(neg_inv, mf, field) for f, mf in block.items()}
                  for j, block in rows[p].items() if j != q}
            for r in set(cols[q]) - {p}:
                row = rows[r]
                row.update({j: _add_products(row.get(j, {}), row[q], z, field)
                            for j, z in zs.items()})
                rows[r] = {j: block for j, block in row.items() if block}
                for j in zs:
                    origins.pop((r, j), None)
        if m_det.is_zero():
            return ring.zero
        # det(t^e * M) = t^(n e) * det(M)
        factors.append(m_det if e is None else rep.wrap({tuple(n * x for x in e): m_det}))
        passed += list(rows).index(p) + left.index(q)
        del rows[p]
        left.remove(q)
        for row in rows.values():
            row.pop(q, None)
    if rows:
        factors.append(bareiss_det(_assemble(rows.values(), left, rep), ring))
    det = reduce(mul, factors or [ring.one])
    return -det if n * passed % 2 else det


def _fox_block_det(pres: Presentation, rep):
    """Determinant of the closed Fox block through rep, in the crosscheck convention
    d rel_i / d gen_j at block (i, j).  The torsion convention, rep(sigma(d rel_j / d gen_i))
    at block (i, j), is the transpose of this block through rep.inverse_transpose(), since
    rep(sigma(w)) = rep(w)^-1; callers pass that representation instead."""
    grid, origins = _fox_grid(pres, rep)
    return _grid_det(grid, rep, origins)


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
    if error := validation_error(D):
        raise EvaluationError(error)
    return crosscheck_valid(D, n, rho_matrices, twisted, field)


def crosscheck_valid(D, n, rho_matrices=None, twisted=False, field=None) -> CrosscheckReport:
    """crosscheck of a datum its caller has validated."""
    pres = presentation(D)
    rep = representation_for(pres, n, rho_matrices, field, twisted)
    z = evaluate_valid_z(D, rep)
    det = _fox_block_det(pres, rep)
    return CrosscheckReport(z, det)
