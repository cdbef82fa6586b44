"""Integer Smith normal form and free abelianization of presentations."""

from __future__ import annotations

from .words import Word


def smith_normal_form(matrix):
    """Return (S, U, V) with S = U*A*V in Smith form over Z.

    A is given as a list of rows.  U and V are unimodular; S is diagonal with
    invariant factors d1 | d2 | ... > 0 followed by zeros.  Pivots are chosen
    by minimal absolute value, the first in row-major order, to limit entry
    growth.  Every operation runs on one array T = [[A, I_m], [I_n, 0]]: a row
    operation on its first m rows acts on S and U alike, a column operation on
    its first n columns on S and V alike, and S, U, V are its blocks at the end.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    T = [list(map(int, row)) + [0] * i + [1] + [0] * (m - 1 - i) for i, row in enumerate(matrix)]
    T += [[0] * j + [1] + [0] * (n - 1 - j + m) for j in range(n)]

    def add_row(src, dst, q):
        # row dst += q * row src
        if q:
            T[dst] = [a + q * b for a, b in zip(T[dst], T[src])]

    def add_col(src, dst, q):
        if q:
            for row in T:
                row[dst] += q * row[src]

    def swap_cols(i, j):
        for row in T:
            row[i], row[j] = row[j], row[i]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(T[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        T[t], T[pivot[0]] = T[pivot[0]], T[t]
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            # euclidean reduction of row/column t against the pivot
            moved = False
            for i in range(t + 1, m):
                if T[i][t]:
                    add_row(t, i, -(T[i][t] // T[t][t]))
                    if T[i][t]:
                        T[t], T[i] = T[i], T[t]
                        moved = True
            for j in range(t + 1, n):
                if T[t][j]:
                    add_col(t, j, -(T[t][j] // T[t][t]))
                    if T[t][j]:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # pivot must divide every remaining entry; otherwise fold the
            # first offending row in and restart the reduction at this step
            p = T[t][t]
            offender = next((i for i in range(t + 1, m) for j in range(t + 1, n) if T[i][j] % p),
                            None)
            if offender is None:
                break
            add_row(offender, t, 1)
        if T[t][t] < 0:
            T[t] = [-x for x in T[t]]
        t += 1
    return [row[:n] for row in T[:m]], [row[n:] for row in T[:m]], [row[:n] for row in T[m:]]


class AbelianizationMap:
    """Projection of a presented group onto its free abelianization Z^b."""

    def __init__(self, num_generators: int, rank: int, gen_images, torsion):
        self.num_generators = num_generators
        self.rank = rank
        self.gen_images = [tuple(v) for v in gen_images]
        self.torsion = list(torsion)

    def word_image(self, w: Word):
        out = [0] * self.rank
        for g, e in w.letters:
            img = self.gen_images[g]
            for k in range(self.rank):
                out[k] += e * img[k]
        return tuple(out)

    def __repr__(self):
        return f"AbelianizationMap(rank={self.rank}, torsion={self.torsion})"


def abelianize(num_generators: int, relators) -> AbelianizationMap:
    """Quotient Z^m by the relator exponent vectors, keeping only the free part.

    Returns rank b, per-generator images in Z^b and the torsion invariants
    (recorded, > 1 only).  Every relator maps to the zero vector.
    """
    m = num_generators
    rels = list(relators)
    # columns of A are relator exponent vectors; coker(A) = Z^m / <relators>
    sums = [w.exponent_sums(m) for w in rels]
    A = [[s[i] for s in sums] for i in range(m)]
    S, U, _ = smith_normal_form(A)
    r = sum(1 for i in range(min(m, len(rels))) if S[i][i] != 0)
    rank = m - r
    torsion = [S[i][i] for i in range(r) if S[i][i] > 1]
    # free coordinates are the last (m - r) rows of U
    images = [tuple(U[i][j] for i in range(r, m)) for j in range(m)]
    amap = AbelianizationMap(m, rank, images, torsion)
    for w in rels:
        if any(amap.word_image(w)):
            raise AssertionError("relator image nonzero after SNF")
    return amap
