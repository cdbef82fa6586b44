"""Integer Smith normal form on three separate matrices, kept as a test-only reference.

The library runs every row and column operation on one augmented array.
This form applies each operation to S and to U or V in turn, so tests can
pin the exact (S, U, V) that the printed homology and every twisted value
rest on.
"""

from __future__ import annotations


def smith_normal_form(matrix):
    """Return (S, U, V) with S = U*A*V in Smith form over Z.

    A is given as a list of rows.  U and V are unimodular; S is diagonal with
    invariant factors d1 | d2 | ... > 0 followed by zeros.  Pivots are chosen
    by minimal absolute value to limit entry growth.
    """
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    S = [list(map(int, row)) for row in matrix]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            S[i], S[j] = S[j], S[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in S:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        if q:
            for k in range(n):
                S[dst][k] += q * S[src][k]
            for k in range(m):
                U[dst][k] += q * U[src][k]

    def add_col(src, dst, q):
        if q:
            for row in S:
                row[dst] += q * row[src]
            for row in V:
                row[dst] += q * row[src]

    def negate_row(i):
        S[i] = [-x for x in S[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while True:
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # euclidean reduction of row/column t against the pivot
            moved = False
            for i in range(t + 1, m):
                if S[i][t]:
                    add_row(t, i, -(S[i][t] // S[t][t]))
                    if S[i][t]:
                        swap_rows(t, i)
                        moved = True
            for j in range(t + 1, n):
                if S[t][j]:
                    add_col(t, j, -(S[t][j] // S[t][t]))
                    if S[t][j]:
                        swap_cols(t, j)
                        moved = True
            if moved:
                continue
            # pivot must divide every remaining entry; otherwise fold the
            # offending row in and restart the reduction at this step
            offender = None
            p = S[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if S[t][t] < 0:
            negate_row(t)
        t += 1
    return S, U, V
