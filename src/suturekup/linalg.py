"""Dense square matrices over a NumberField or a LaurentRing.

Matrices are lists of rows.  bareiss_det scales each unit pivot to one and
takes a fraction-free (Bareiss) step only at a non-unit pivot, so every
division it makes is exact in the ring; over a field, where every pivot is
a unit, this is Gaussian elimination.  Inverses are taken over a field only,
by the in-place Gauss-Jordan sweep on n x n storage, which pivots on +-1
first and also returns the signed product of its pivots, the determinant.
Every sum of products, a product entry or an elimination update a - f*b, is
one ring.dot, which reduces each output coefficient once.
"""

from __future__ import annotations

from .laurent import divide_exact


class SingularMatrix(ValueError):
    """The matrix has no inverse over its ring."""


def identity(n, ring):
    return [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]


def matmul(A, B, ring):
    cols = list(zip(*B))
    dot = ring.dot
    return [[dot(row, col) for col in cols] for row in A]


def transpose(M):
    return [list(col) for col in zip(*M)]


def bareiss_det(matrix, ring):
    """Exact determinant over a field or Laurent ring, with no fractions.

    Elimination pivots on a unit (a nonzero field element, a +- monomial
    Laurent polynomial) wherever its column has one, scales it to one and
    divides nothing; other pivots take a fraction-free Bareiss step, whose
    division by the previous pivot is exact in any integral domain.  Over a
    field every pivot is a unit, so this is Gaussian elimination.
    """
    n = len(matrix)
    if n == 0:
        return ring.one
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    # the Fox matrix of a vacuous datum has zero rows; elimination would
    # only find that out at its last step
    if any(all(e.is_zero() for e in row) for row in matrix):
        return ring.zero
    return _bareiss([list(row) for row in matrix], ring)


def _bareiss(M, ring):
    """Elimination in place, dividing only by a previous non-unit pivot.

    After each step det = +-factor * det(rest) / prev^(size - 1) (Chio's
    condensation).  A unit pivot u moves into factor, and the entries
    (u*a - b*c) / (prev*u) it leaves are exact, so prev restarts at one.
    """
    n = len(M)
    sign = 1
    one = factor = ring.one
    dot = ring.dot
    prev = None  # the last pivot when it was not a unit; None stands for one
    for k in range(n - 1):
        rows = [r for r in range(k, n) if not M[r][k].is_zero()]
        if not rows:
            return ring.zero
        pivot_row = next((r for r in rows if M[r][k].is_monomial()), rows[0])
        if pivot_row != k:
            M[k], M[pivot_row] = M[pivot_row], M[k]
            sign = -sign
        pivot = M[k][k]
        if pivot.is_monomial():
            factor = factor * pivot
            inv = -pivot.inv_unit()
            # row[j] - f * a as one two-pair dot, with the tail a negated once
            tail = [(j, M[k][j] * inv) for j in range(k + 1, n) if not M[k][j].is_zero()]
            for i in range(k + 1, n):
                row, f = M[i], M[i][k]
                if not f.is_zero():
                    for j, neg_a in tail:
                        row[j] = dot((one, f), (row[j], neg_a))
                if prev is not None:
                    # the division the previous fraction-free step left owing
                    for j in range(k + 1, n):
                        row[j] = divide_exact(row[j], prev)
            prev = None
        else:
            for i in range(k + 1, n):
                row, neg_f = M[i], -M[i][k]
                for j in range(k + 1, n):
                    a = dot((pivot, neg_f), (row[j], M[k][j]))
                    row[j] = a if prev is None else divide_exact(a, prev)
            prev = pivot
    det = factor * M[n - 1][n - 1]
    return -det if sign < 0 else det


def inverse_and_det(matrix, field):
    """Inverse and determinant over a field by the in-place sweep; SingularMatrix if none.

    Column k's pivot is its first entry equal to +-1 at or below row k, else
    its first nonzero one there: over a +-1 pivot an integral row stays
    integral, so the sweep forms fewer denominators.  Pivot p leaves 1/p and
    the rest of its row over p in place; each other row, with f in p's
    column, gets a - f*b at the nonzero b of p's row (one two-pair dot each)
    and -f/p in the column.  Row swaps undo as column swaps.
    """
    n = len(matrix)
    M = [list(row) for row in matrix]
    one = det = field.one
    signs = (one.num, (-one).num)   # the numerators of +1 and -1, over denominator 1
    dot = field.dot
    swaps = []
    for k in range(n):
        r = None
        for i in range(k, n):
            x = M[i][k]
            if x.den == 1 and x.num in signs:
                r = i
                break
            if r is None and not x.is_zero():
                r = i
        if r is None:
            raise SingularMatrix("singular matrix")
        if r != k:
            M[k], M[r] = M[r], M[k]
            swaps.append((k, r))
        pivot_row, p = M[k], M[k][k]
        det = det * p if k else p
        pivot_row[k] = inv = p.inv()
        tail = [(j, b * inv) for j, b in enumerate(pivot_row) if j != k and not b.is_zero()]
        for j, b in tail:
            pivot_row[j] = b
        for row in M:
            f = row[k]
            if row is not pivot_row and not f.is_zero():
                neg_f = -f
                for j, b in tail:
                    row[j] = dot((one, neg_f), (row[j], b))
                row[k] = neg_f * inv
    for k, r in reversed(swaps):
        for row in M:
            row[k], row[r] = row[r], row[k]
    return M, -det if len(swaps) % 2 else det
