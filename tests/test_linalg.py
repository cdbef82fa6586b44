"""The Gauss-Jordan sweep that inverts matrices over a field.

Its inverse is checked by multiplying back on both sides and its
determinant against the permutation expansion of linalg_reference, over QQ
and Q(xi) with xi^2 + xi + 1 = 0, and a matrix is singular exactly when
that expansion vanishes.  Zero diagonals and permutation matrices force row
swaps, whose undoing as column swaps and whose sign on the determinant
those checks see; so does a +-1 below a column's first nonzero entry,
which the sweep takes as its pivot (also over Q(cbrt 2)).
"""

import itertools
import random
from fractions import Fraction

import pytest
from linalg_reference import minor_det

from suturekup import NumberField, QQ, linalg
from suturekup.linalg import SingularMatrix, bareiss_det, identity, inverse_and_det, matmul
from suturekup.numberfield import FieldElement

EISENSTEIN = NumberField([1, 1, 1])
CUBIC = NumberField([-2, 0, 0, 1])
FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(EISENSTEIN, id="Q(xi)")]


def random_matrix(rng, n, field, zeros=0.3):
    """Entries a + b*xi (a alone over QQ) with |a|, |b| <= 3, zero with probability `zeros`."""
    def entry():
        if rng.random() < zeros:
            return field.zero
        return field.element([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                              for _ in range(field.degree)])
    return [[entry() for _ in range(n)] for _ in range(n)]


def det_reference(m, field):
    n = len(m)
    return minor_det(m, list(range(n)), list(range(n)), field)


def assert_inverse(m, field):
    m_inv, det = inverse_and_det(m, field)
    n = len(m)
    assert det == det_reference(m, field)
    assert matmul(m, m_inv, field) == identity(n, field)
    assert matmul(m_inv, m, field) == identity(n, field)
    return m_inv, det


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inverse_on_both_sides(field, n):
    rng = random.Random(1000 * n + field.degree)
    checked = 0
    while checked < (12 if n < 5 else 4):
        m = random_matrix(rng, n, field)
        if det_reference(m, field).is_zero():
            with pytest.raises(SingularMatrix):
                inverse_and_det(m, field)
            continue
        assert_inverse(m, field)
        checked += 1


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_permutation_matrices(field, n):
    for perm in itertools.permutations(range(n)):
        m = [[field.one if perm[i] == j else field.zero for j in range(n)] for i in range(n)]
        m_inv, det = assert_inverse(m, field)
        assert m_inv == [list(col) for col in zip(*m)]
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        assert det == (-field.one if inversions % 2 else field.one)


@pytest.mark.parametrize("field", FIELDS)
def test_zero_diagonals_force_swaps(field):
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        for _ in range(4):
            m = random_matrix(rng, n, field, zeros=0.0)
            for i in range(n):
                m[i][i] = field.zero
            if not det_reference(m, field).is_zero():
                assert_inverse(m, field)
    # every leading pivot sits below the diagonal: three swaps, det = -(2*3*5*7)
    q = [[field.from_rational(x) for x in row] for row in
         [[0, 0, 0, 7], [2, 0, 0, 1], [1, 3, 0, 0], [0, 1, 5, 0]]]
    _, det = assert_inverse(q, field)
    assert det == field.from_rational(-210)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("rows", [
    pytest.param([[0]], id="zero-1x1"),
    pytest.param([[0, 0], [0, 0]], id="zero-2x2"),
    pytest.param([[1, 2], [2, 4]], id="proportional-rows"),
    pytest.param([[0, 1, 2], [0, 3, 4], [0, 5, 6]], id="zero-column"),
    # rank 2: the third row is the sum of the first two, found at the last pivot
    pytest.param([[1, 2, 3], [4, 5, 6], [5, 7, 9]], id="last-pivot"),
    pytest.param([[0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 1], [2, 0, 3, 5]], id="swap-then-rank-3"),
])
def test_singular_matrix_raises(field, rows):
    m = [[field.from_rational(x) for x in row] for row in rows]
    assert det_reference(m, field).is_zero()
    with pytest.raises(SingularMatrix, match="singular matrix"):
        inverse_and_det(m, field)


def test_empty_matrix():
    assert inverse_and_det([], QQ) == ([], QQ.one)


def test_input_matrix_is_left_unchanged():
    m = random_matrix(random.Random(3), 4, EISENSTEIN, zeros=0.0)
    copy = [list(row) for row in m]
    inverse_and_det(m, EISENSTEIN)
    assert m == copy


@pytest.mark.parametrize("field", FIELDS + [pytest.param(CUBIC, id="Q(cbrt2)")])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_unit_below_a_non_unit_pivot(field, n):
    # column k's first entry is a nonzero non-unit and a +-1 sits below it, so the
    # sweep takes the lower row as its pivot where first-nonzero pivoting would not
    rng = random.Random(1300 * n + field.degree)
    units = (field.one, -field.one)
    checked = 0
    while checked < (10 if n < 5 else 4):
        m = random_matrix(rng, n, field)
        for k in range(n):
            first = rng.randrange(n - 1)
            x = field.zero
            while x.is_zero() or x in units:
                x = random_matrix(rng, 1, field, zeros=0.0)[0][0]
            m[first][k] = x
            for i in range(first):
                m[i][k] = field.zero
            m[rng.randrange(first + 1, n)][k] = rng.choice(units)
        if det_reference(m, field).is_zero():
            with pytest.raises(SingularMatrix):
                inverse_and_det(m, field)
            continue
        assert_inverse(m, field)
        checked += 1


@pytest.mark.parametrize("field", FIELDS + [pytest.param(CUBIC, id="Q(cbrt2)")])
def test_unit_pivots_keep_integral_rows_integral(field, monkeypatch):
    # det 1, and +-1 stands below the 2 in column 0: pivoting on +-1 first
    # inverts only +-1 and gives an integral inverse; first-nonzero pivoting
    # would invert 2
    m = [[field.from_rational(x) for x in row] for row in
         [[2, 1, 0], [1, 0, 1], [0, -1, 1]]]
    inverted = []
    real_inv = FieldElement.inv

    def recording(e):
        inverted.append(e)
        return real_inv(e)

    monkeypatch.setattr(FieldElement, "inv", recording)
    m_inv, det = assert_inverse(m, field)
    assert det == field.one
    assert set(inverted) <= {field.one, -field.one}
    assert all(x.den == 1 for row in m_inv for x in row)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_sweep_counts(field, n, monkeypatch):
    # n field inversions, one per pivot, and no n x 2n augmented matrix: the
    # sweep builds no identity to carry beside the matrix.  A dense pivot
    # makes at most 2(n - 1) products (its row over p and -f/p per other row)
    # plus one for det, the product of the pivots after the first; and at most
    # (n - 1)^2 two-pair dots, one per nonzero entry outside its row and column
    counts = {"inv": 0, "mul": 0, "dot": 0}
    real_inv, real_mul, real_dot = FieldElement.inv, FieldElement.__mul__, NumberField.dot

    def counting(name, real):
        def wrapped(*args):
            counts[name] += 1
            return real(*args)
        return wrapped

    def refuse(*args):
        raise AssertionError("the sweep built an identity matrix")

    m = random_matrix(random.Random(n), n, field, zeros=0.0)
    want = inverse_and_det(m, field)
    monkeypatch.setattr(FieldElement, "inv", counting("inv", real_inv))
    monkeypatch.setattr(FieldElement, "__mul__", counting("mul", real_mul))
    monkeypatch.setattr(NumberField, "dot", counting("dot", real_dot))
    monkeypatch.setattr(linalg, "identity", refuse)
    assert inverse_and_det(m, field) == want
    assert counts["inv"] == n
    assert counts["mul"] <= (n - 1) * (2 * n + 1)
    assert counts["dot"] <= n * (n - 1) ** 2


def test_determinant_needs_a_square_matrix():
    with pytest.raises(ValueError, match="determinant needs a square matrix"):
        bareiss_det([[QQ.one, QQ.zero]], QQ)
