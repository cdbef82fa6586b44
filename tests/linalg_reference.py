"""Permutation-expansion determinants, kept as a test-only reference.

The library takes determinants by Bareiss elimination and exterior-power
images as ordered products of columns; these expand the Leibniz formula
directly, so only tiny sizes go through them.
"""

from __future__ import annotations

import itertools

from suturekup.hopf import Element


def minor_det(matrix, rows, cols, ring):
    """Determinant of a square submatrix by permutation expansion (tiny sizes)."""
    k = len(rows)
    if k == 0:
        return ring.one
    total = ring.zero
    for perm in itertools.permutations(range(k)):
        inv = sum(
            1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j]
        )
        prod = ring.one
        for i in range(k):
            prod = prod * matrix[rows[i]][cols[perm[i]]]
            if prod.is_zero():
                break
        if not prod.is_zero():
            total = total + (prod if inv % 2 == 0 else -prod)
    return total


def minor_image(T, H, label):
    """Lambda(T)(X_A) = sum over row sets R of det T[R, A] X_R."""
    cols = [i for i in range(H.n) if label >> i & 1]
    terms = {}
    for rows in itertools.combinations(range(H.n), len(cols)):
        d = minor_det(T, list(rows), cols, H.ring)
        if not d.is_zero():
            terms[sum(1 << r for r in rows)] = d
    return Element(H, terms)
