import copy
import pickle
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st
from numberfield_reference import NumberField as ReferenceField

from suturekup import NumberField, QQ
from suturekup.files import representation_from_data
from suturekup.hopf import Element, ExteriorAlgebra, TensorElement
from suturekup.laurent import LaurentPoly, LaurentRing
from suturekup.numberfield import _integer_root, _kernels, echo, signed_sum
from suturekup.words import GroupRingElement, Word

GAUSS = NumberField([1, 0, 1])        # x^2 + 1
GOLDEN = NumberField([-1, -1, 1])     # x^2 - x - 1

small_rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def element_strategy(field):
    return st.lists(
        small_rationals, min_size=field.degree, max_size=field.degree
    ).map(field.element)


@pytest.mark.parametrize("field", [QQ, GAUSS, GOLDEN, NumberField([-1, -1, 0, 0, 0, 1])])
def test_field_axioms_on_random_elements(field):
    import random

    rng = random.Random(99)

    def rand_elem():
        return field.element(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(field.degree)]
        )

    for _ in range(40):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + field.zero == a
        assert a * field.one == a
        if not a.is_zero():
            assert a * a.inv() == field.one


def test_inverse_of_zero_and_of_a_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        GOLDEN.zero.inv()
    reducible = NumberField([2, 0, 3, 0, 1])       # (x^2 + 1)(x^2 + 2)
    with pytest.raises(ValueError, match=r"min_poly \[2, 0, 3, 0, 1\] is reducible"):
        reducible.element([1, 0, 1]).inv()
    assert reducible.element([1, 1]) * reducible.element([1, 1]).inv() == reducible.one


def test_gauss_relation():
    i = GAUSS.element([0, 1])
    assert i * i == -GAUSS.one
    assert (i * i * i * i) == GAUSS.one


def test_golden_relation():
    phi = GOLDEN.element([0, 1])
    assert phi * phi == phi + GOLDEN.one
    assert phi.inv() == phi - GOLDEN.one


def test_parse_format_roundtrip():
    samples = ["1/2 + 3*x", "-2 + x", "x", "- x", "5", "-1/3", "1 - x"]
    for s in samples:
        e = GAUSS.parse(s)
        assert GAUSS.parse(str(e)) == e


def test_signed_sum_layout():
    assert signed_sum([]) == "0"
    assert signed_sum([(-1, "a")]) == "-a"
    assert signed_sum([(1, "a")]) == "a"
    assert signed_sum([(1, "a"), (-3, "b")]) == "a - b"
    assert signed_sum([(-1, "a"), (2, "b"), (-1, "c")]) == "-a + b - c"


def test_parse_rejects_high_powers():
    with pytest.raises(ValueError):
        GAUSS.parse("x^2")


@pytest.mark.parametrize("text, message", [
    ("x 1", "missing sign in 'x 1'"),
    ("1 +", "empty term in '1 +'"),
    ("-", "empty term in '-'"),
    ("3/0*x", "zero denominator in field element '3/0*x'"),
])
def test_parse_refuses_malformed_terms(text, message):
    with pytest.raises(ValueError) as info:
        GAUSS.parse(text)
    assert str(info.value) == message


def test_min_poly_must_be_monic():
    with pytest.raises(ValueError):
        NumberField([1, 2])


@given(element_strategy(GAUSS), element_strategy(GAUSS))
def test_subtraction_is_inverse_of_addition(a, b):
    assert (a + b) - b == a


@pytest.mark.parametrize("min_poly", [[-1, 0, 1], [6, -5, 1], [0, 0, 1], [0, 1, 1],
                                      [-8, 12, -6, 1], [-(10**12 + 39) ** 3, 0, 0, 1]])
def test_min_poly_with_rational_root_rejected(min_poly):
    with pytest.raises(ValueError, match="reducible"):
        NumberField(min_poly)


# x^4 + 1 is irreducible over Q but reducible mod every prime
@pytest.mark.parametrize("min_poly", [[0, 1], [5, 1], [1, 0, 1], [1, 1, 1], [-1, -1, 1],
                                      [-2, 0, 0, 1], [1, 0, 0, 0, 1]])
def test_min_poly_without_rational_root_accepted(min_poly):
    assert NumberField(min_poly).degree == len(min_poly) - 1


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("min_poly", [
    pytest.param([1, 0, 2, 0, 1], id="(x^2+1)^2"),
    pytest.param(_polymul(_polymul([1, 1, 0, 1], [1, 1, 0, 1]), [3, 0, 1]),
                 id="(x^3+x+1)^2(x^2+3)"),
    pytest.param(_polymul([2, 0, 1], [2, 0, 1]), id="(x^2+2)^2"),
])
def test_min_poly_that_is_not_squarefree_rejected(min_poly):
    # none of these has a rational root
    with pytest.raises(ValueError) as info:
        NumberField(min_poly)
    assert str(info.value).startswith(f"min_poly {echo(min_poly)} is not squarefree")


def _rational_gcd_degree(a, b):
    """Degree of gcd(a, b) over Q by Euclid on Fractions (constant term first)."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while any(b):
        while b[-1] == 0:
            b.pop()
        while len(a) >= len(b):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            a = [x - f * b[j - shift] if j >= shift else x for j, x in enumerate(a)][:-1]
        a, b = b, a or [Fraction(0)]
    return len(a) - 1


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
       st.lists(st.integers(-9, 9), max_size=4), st.booleans())
def test_squarefree_test_matches_rational_gcd(low, cofactor, square):
    # f * g or f^2 * g for monic f and g: refused as not squarefree exactly when
    # gcd(m, m') over Q is not a constant, once the integer-root test has passed
    f, g = low + [1], cofactor + [1]
    m = _polymul(_polymul(f, f) if square else f, g)
    assume(_integer_root(m) is None)
    squarefree = _rational_gcd_degree(m, [k * c for k, c in enumerate(m)][1:]) == 0
    try:
        NumberField(m)
    except ValueError as exc:
        assert not squarefree and "is not squarefree" in str(exc)
    else:
        assert squarefree


def test_min_poly_bounds():
    # degree 16 and 100-digit coefficients are the largest accepted
    big = 10**100 - 1
    assert NumberField([1] + [0] * 15 + [1]).degree == 16
    assert NumberField([big, 0, 1]).min_poly == (big, 0, 1)
    for min_poly in ([1] + [0] * 16 + [1], [big + 1, 0, 1], [-big - 1, 0, 1]):
        with pytest.raises(ValueError, match=r"exceeds degree 16 or 100-digit coefficients$"):
            NumberField(min_poly)


@given(st.lists(st.integers(-6, 6), max_size=3),
       st.lists(st.integers(-30, 30), min_size=1, max_size=3))
def test_integer_root_search_matches_brute_force(roots, cofactor):
    # (x - r_1)...(x - r_k) * (monic cofactor): every integer root lies in
    # [-100, 100] because the cofactor's roots are bounded by 1 + 30
    poly = cofactor + [1]
    for r in roots:
        poly = [b - r * a for a, b in zip(poly + [0], [0] + poly)]
    truth = {x for x in range(-100, 101) if sum(c * x**k for k, c in enumerate(poly)) == 0}
    found = _integer_root(poly)
    assert (found is None) == (not truth) and (found is None or found in truth)


REFERENCE_POLYS = [[0, 1], [1, 0, 1], [-1, -1, 1], [-1, -1, 0, 0, 0, 1], [1, 1, 1]]

rationals = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def assert_agrees(new, ref):
    assert_canonical(new)
    assert new.vec == ref.vec
    assert str(new) == str(ref)
    assert new.is_zero() == ref.is_zero()
    assert new.is_rational() == ref.is_rational()


@pytest.mark.parametrize("min_poly", REFERENCE_POLYS,
                         ids=["QQ", "x^2+1", "x^2-x-1", "x^5-x-1", "x^2+x+1"])
@given(data=st.data())
def test_integer_core_matches_fraction_reference(min_poly, data):
    field, reference = NumberField(min_poly), ReferenceField(min_poly)
    coeffs = st.lists(rationals, min_size=field.degree, max_size=field.degree)
    a_coeffs, b_coeffs = data.draw(coeffs), data.draw(coeffs)
    k, q = data.draw(st.integers(-30, 30)), data.draw(rationals)
    a, b = field.element(a_coeffs), field.element(b_coeffs)
    ra, rb = reference.element(a_coeffs), reference.element(b_coeffs)
    assert_agrees(a, ra)
    assert_agrees(b, rb)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(-a, -ra)
    assert_agrees(a * b, ra * rb)
    assert_agrees(a * k, ra * k)
    assert_agrees(k * a, k * ra)
    assert_agrees(a * q, ra * q)
    assert_agrees(q * a, q * ra)
    if not ra.is_zero():
        assert_agrees(a.inv(), ra.inv())
    assert (a == b) == (ra == rb)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    assert a * b == b * a and hash(a * b) == hash(b * a)
    assert field.parse(str(ra)) == a


DOT_FIELDS = [QQ, NumberField([1, 1, 1]), NumberField([-2, 0, 0, 1])]
DOT_IDS = ["QQ", "Q(xi)", "x^3-2"]


def assert_canonical(e):
    assert type(e.num) is tuple and len(e.num) == e.field.degree
    assert e.den > 0 and gcd(e.den, *e.num) == 1


def fold(xs, ys, field):
    acc = field.zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def dot_elements(field):
    """Elements whose coefficients have mixed denominators, or are all zero."""
    coeff = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 1, 2, 3, 4, 6]))
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(field.element)


@pytest.mark.parametrize("field", DOT_FIELDS, ids=DOT_IDS)
@given(data=st.data())
def test_dot_equals_fold_of_products(field, data):
    xs = data.draw(st.lists(dot_elements(field), max_size=6))
    ys = data.draw(st.lists(dot_elements(field), min_size=len(xs), max_size=len(xs)))
    got = field.dot(xs, ys)
    assert got == fold(xs, ys, field)
    assert_canonical(got)
    # the second half cancels the first exactly
    cancelled = field.dot(xs + xs, ys + [-y for y in ys])
    assert cancelled == field.zero
    assert_canonical(cancelled)


@pytest.mark.parametrize("field", DOT_FIELDS, ids=DOT_IDS)
def test_dot_edge_cases(field):
    assert field.dot([], []) == field.zero
    x = field.element([Fraction(k + 1, 2 + k) for k in range(field.degree)])
    halves = [field.from_rational(Fraction(1, q)) for q in (2, 3, 4, 5, 6)]
    # every product's denominator differs from the running one
    got = field.dot([x] * 5, halves)
    assert got == fold([x] * 5, halves, field)
    assert_canonical(got)
    assert field.dot([field.zero, x], [x, field.zero]) == field.zero
    g = field.element([0] * (field.degree - 1) + [Fraction(1, 3)])
    top = field.dot([g, g], [g, x])
    assert top == g * g + g * x
    assert_canonical(top)


def _dense_tail(rng, d):
    """d random coefficients of exactly 100 digits, either sign."""
    return [rng.choice((-1, 1)) * rng.randrange(10**99, 10**100) for _ in range(d)]


# the generated kernels over every accepted degree: x^d - 2 (Eisenstein, so
# irreducible) from 2 to 16, the sparse x^16 + 1 and dense 100-digit tails
_rng = random.Random(16)
KERNEL_POLYS = {"QQ": [0, 1], "Q(xi)": [1, 1, 1], "x^16+1": [1] + [0] * 15 + [1],
                **{f"x^{d}-2": [-2] + [0] * (d - 1) + [1] for d in range(2, 17)},
                **{f"dense{d}": _dense_tail(_rng, d) + [1] for d in (2, 3, 16)}}


@pytest.mark.parametrize("min_poly", KERNEL_POLYS.values(), ids=KERNEL_POLYS.keys())
def test_kernels_match_fraction_reference(min_poly):
    field, reference = NumberField(min_poly), ReferenceField(min_poly)
    rng = random.Random(len(min_poly))
    # mixed denominators, a sparse element and the zero element
    coeffs = [[Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))
               for _ in range(field.degree)] for _ in range(5)]
    coeffs += [[0] * (field.degree - 1) + [Fraction(-1, 3)], [0] * field.degree]
    pairs = [(field.element(c), reference.element(c)) for c in coeffs]
    assert_agrees(field.dot([], []), reference.zero)
    for k in (1, 1, 2, 3, 6):
        picks = [rng.choice(pairs) for _ in range(2 * k)]
        xs, ys = picks[:k], picks[k:]
        want = reference.zero
        for (_, rx), (_, ry) in zip(xs, ys):
            want = want + rx * ry
        assert_agrees(field.dot([x for x, _ in xs], [y for y, _ in ys]), want)
    for x, rx in pairs:
        for y, ry in pairs:
            assert_agrees(x * y, rx * ry)


def test_kernels_compile_once_per_field_and_quickly():
    # fields of one min_poly share the compiled kernel; the largest accepted,
    # degree 16 with dense 100-digit coefficients, compiles in about 5 ms
    assert NumberField([1, 1, 1])._dot is NumberField([1, 1, 1])._dot
    rng = random.Random(0)
    best = min(_compile_seconds(tuple(enumerate(_dense_tail(rng, 16)))) for _ in range(3))
    assert best < 0.05


def test_fields_pickle_and_copy_by_min_poly():
    # a field holds its generated kernels, which pickle cannot name; the field
    # representation documents share copies to an equal one and stays shared
    doc = {"dimension": 1, "min_poly": [1, 1, 1], "generators": {"a": [["x"]]}}
    shared = representation_from_data(doc).field
    for field in (QQ, NumberField([1, 1, 1]), shared, NumberField([-2] + [0] * 15 + [1])):
        x = field.element([Fraction(k - 2, k + 1) for k in range(field.degree)])
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            assert y == x and y.field == field and y * y == x * x
            assert y.field.dot([y], [y]) == x * x
    assert representation_from_data(doc).field is shared


def _compile_seconds(tail):
    t0 = time.perf_counter()
    _kernels(16, tail)
    return time.perf_counter() - t0


def _sparse_sums():
    """For each SparseSum subclass: a nonzero sum, its zero, and a zero over another parent."""
    two = QQ.from_rational(2)
    H = ExteriorAlgebra(1)
    t = LaurentRing(QQ, 1)
    g = GroupRingElement(QQ, {Word.generator(0): QQ.one})
    return {
        "Element": (Element(H, {0: two, 1: -QQ.one}), Element(H),
                    Element(ExteriorAlgebra(2))),
        "TensorElement": (TensorElement(H, 2, {(0, 1): two, (1, 1): QQ.one}),
                          TensorElement(H, 2), TensorElement(H, 3)),
        "GroupRingElement": (g + GroupRingElement(QQ, {Word.identity(): QQ.one}),
                             GroupRingElement(QQ), GroupRingElement(GAUSS)),
        "LaurentPoly": (t.from_terms({(1,): two, (-1,): QQ.one}), t.zero,
                        LaurentRing(QQ, 2).zero),
    }


@pytest.mark.parametrize("name", ["Element", "TensorElement", "GroupRingElement",
                                  "LaurentPoly"])
def test_sparse_sum_semantics(name):
    x, zero, other_zero = _sparse_sums()[name]
    assert x and not zero and x.is_zero() is False and zero.is_zero()
    assert not (x - x) and x - x == zero
    assert -(-x) == x and x + zero == x and x != -x
    assert x.scale(QQ.zero) == zero and x.scale(QQ.one) == x
    # equality needs the same class and the same parent, not only the same terms
    assert zero != other_zero and other_zero != zero
    twin = (Element(ExteriorAlgebra(1), dict(x.terms)) if name == "LaurentPoly"
            else LaurentPoly(LaurentRing(QQ, 1), dict(x.terms)))
    assert x != twin and twin != x
    if name == "LaurentPoly":
        assert hash(x) == hash(-(-x))
    else:
        with pytest.raises(TypeError):
            hash(x)


def test_parse_settles_long_numbers_by_digit_count():
    # 1000 digits read as numbers; one more is refused before int() sees it,
    # whose own limit (4300 digits on CPython 3.11) would name neither entry nor field
    big = "9" * 1000
    assert QQ.parse(big) == QQ.from_rational(int(big))
    assert GAUSS.parse(f"1/{big} + x^{'0' * 999}1") == GAUSS.element([Fraction(1, int(big)), 1])
    for text in ("9" * 1001, "1/" + "9" * 1001, "x^" + "0" * 1001, "2 - 3/4*x^" + "1" * 5000):
        with pytest.raises(ValueError, match=r"^number over 1000 digits in field element '"):
            GAUSS.parse(text)
