import random

import pytest
import snf_reference
from conftest import acceptance_data

from suturekup import Word, abelianize, presentation, smith_normal_form


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det(A):
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if M[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            M[k], M[pivot] = M[pivot], M[k]
            sign = -sign
        for r in range(k + 1, n):
            while M[r][k] != 0:
                q = M[k][k] // M[r][k]
                M[k] = [a - q * b for a, b in zip(M[k], M[r])]
                M[k], M[r] = M[r], M[k]
                sign = -sign
    out = sign
    for k in range(n):
        out *= M[k][k]
    return out


def test_snf_hand_oracle_rank_one():
    S, U, V = smith_normal_form([[1, -1]])
    assert S[0][0] == 1 and S[0][1] == 0


def test_snf_diag_2_3():
    S, U, V = smith_normal_form([[2, 0], [0, 3]])
    assert [S[0][0], S[1][1]] == [1, 6]


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        S, U, V = smith_normal_form(A)
        assert mat_mul(mat_mul(U, A), V) == S
        assert det(U) in (1, -1)
        assert det(V) in (1, -1)
        diag = [S[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert S[i][j] == 0
        nonzero = [d for d in diag if d]
        assert all(d > 0 for d in nonzero)
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        assert diag[len(nonzero):] == [0] * (len(diag) - len(nonzero))


def test_abelianize_knotlike():
    amap = abelianize(2, [Word([(0, 1), (1, -1)])])
    assert amap.rank == 1
    assert amap.gen_images[0] in ((1,), (-1,))
    assert amap.gen_images[0] == amap.gen_images[1]
    assert amap.torsion == []


def test_abelianize_free():
    amap = abelianize(1, [])
    assert amap.rank == 1
    assert amap.gen_images == [(1,)]
    for m in (0, 2, 3):
        amap = abelianize(m, [])
        assert (amap.rank, amap.torsion) == (m, [])
        assert amap.gen_images == [tuple(int(i == j) for i in range(m)) for j in range(m)]


def test_abelianize_torsion():
    amap = abelianize(2, [Word.generator(0) ** 2, Word.generator(1) ** 3])
    assert amap.rank == 0
    assert amap.torsion == [6]


def test_abelianize_relator_images_vanish():
    rng = random.Random(13)
    for _ in range(20):
        num = rng.randint(1, 4)
        rels = [
            Word([(rng.randrange(num), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 6))])
            for _ in range(rng.randint(0, 3))
        ]
        amap = abelianize(num, rels)
        for w in rels:
            assert amap.word_image(w) == (0,) * amap.rank


def relator_matrix(pres):
    """abelianize's input for pres: one row per generator, one column per relator."""
    sums = [w.exponent_sums(pres.num_generators) for w in pres.relators]
    return [[s[i] for s in sums] for i in range(pres.num_generators)]


def drawn_matrices(count, seed):
    """m x n integer matrices with m, n in 0..7 (m x 0 is m empty rows), entries
    mostly 0, +-1, +-2 with some 3, 5, -7 and 12."""
    rng = random.Random(seed)
    entries = [0] * 6 + [1, -1, 2, -2] * 2 + [3, 5, -7, 12]
    for _ in range(count):
        m, n = rng.randint(0, 7), rng.randint(0, 7)
        yield [[rng.choice(entries) for _ in range(n)] for _ in range(m)]


def test_snf_matches_reference_on_drawn_matrices():
    shapes = set()
    for A in drawn_matrices(2500, 25):
        shapes.add((len(A), len(A[0]) if A else 0))
        assert smith_normal_form(A) == snf_reference.smith_normal_form(A), A
    assert {(0, 0), (7, 0), (3, 7), (7, 7)} <= shapes


@pytest.mark.parametrize("A", [
    [[2, 3]],                    # takes the column swap
    [[2, 3], [0, 0]],            # the same in abelianize's shape (x^2, x^3 over x, y)
    [[2, 0], [0, 3], [0, 0]],    # the column swap and the offender fold (x^2, y^3 over x, y, z)
    [[4, 6], [6, 4], [0, 10]],   # torsion 2 10 (x^4 y^6, x^6 y^4 z^10 over x, y, z)
    [[], [], []],
    [],
])
def test_snf_matches_reference_on_hand_cases(A):
    assert smith_normal_form(A) == snf_reference.smith_normal_form(A)


def test_snf_matches_reference_on_acceptance_data():
    for seed, D, _, _ in acceptance_data():
        A = relator_matrix(presentation(D))
        assert smith_normal_form(A) == snf_reference.smith_normal_form(A), seed
