import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st
from numberfield_reference import NumberField as ReferenceField
from paper_laws import augmentation

from suturekup import (
    InexactDivision,
    LaurentRing,
    NumberField,
    QQ,
    divide_exact,
    normalize_unit,
)
from suturekup.laurent import _monomial_str

R1 = LaurentRing(QQ, 1)
R2 = LaurentRing(QQ, 2)
XI = NumberField([1, 1, 1])


def poly(ring, terms):
    return ring.from_terms(
        {e: ring.field.from_rational(c) for e, c in terms.items()}
    )


def test_ring_operations():
    p = poly(R1, {(0,): 1, (1,): -1})
    q = poly(R1, {(-1,): 1, (0,): 1})
    assert p * q == poly(R1, {(-1,): 1, (1,): -1})
    assert p + q - q == p
    assert augmentation(p * q) == QQ.zero
    assert p * R1.one == p
    assert (p - p).is_zero()


def test_normalize_unit_examples():
    # t^-1 - 1 + t  ->  1 - t + t^2
    p = poly(R1, {(-1,): 1, (0,): -1, (1,): 1})
    assert str(normalize_unit(p)) == "1 - t + t^2"
    # -(1 - t) -> 1 - t
    q = poly(R1, {(0,): -1, (1,): 1})
    assert str(normalize_unit(q)) == "1 - t"
    assert normalize_unit(R1.zero) == R1.zero


def test_normalize_unit_idempotent_and_orbit_constant():
    rng = random.Random(5)
    for _ in range(30):
        terms = {
            (rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4)
            for _ in range(rng.randint(1, 5))
        }
        p = poly(R2, terms)
        if p.is_zero():
            continue
        n = normalize_unit(p)
        assert normalize_unit(n) == n
        shift = (rng.randint(-2, 2), rng.randint(-2, 2))
        flipped = -p if rng.random() < 0.5 else p
        assert normalize_unit(flipped.scale_monomial(shift)) == n


def test_string_format():
    assert str(poly(R1, {(-1,): 1, (0,): -1, (1,): 1})) == "t^-1 - 1 + t"
    assert str(poly(R1, {(0,): 1, (1,): -3, (2,): 1})) == "1 - 3*t + t^2"
    assert str(poly(R2, {(1, -2): 2})) == "2*t1*t2^-2"
    assert str(R2.zero) == "0"
    gauss = NumberField([1, 0, 1])
    ring = LaurentRing(gauss, 1)
    p = ring.monomial((2,), gauss.parse("1 + x"))
    assert str(p) == "(1 + x)*t^2"
    assert str(poly(R1, {(-1,): Fraction(-1, 2), (0,): Fraction(3, 4), (1,): -1})) == \
        "-1/2*t^-1 + 3/4 - t"


def reference_str(p):
    """The printer before signed_sum: Fraction coefficients and a join of its own.

    A coefficient off Q prints through the Fraction-tuple reference field.
    """
    if not p.terms:
        return "0"
    pieces = []
    for exps, c in sorted(p.terms.items()):
        mono = _monomial_str(exps)
        if c.is_rational():
            q = c.vec[0]
            sign, mag = (1 if q >= 0 else -1), abs(q)
            body = "" if mono and mag == 1 else str(mag)
        else:
            sign = 1
            body = f"({ReferenceField(c.field.min_poly).element(c.vec)})"
        term = f"{body}*{mono}" if body and mono else (body or mono or "1")
        if not pieces:
            pieces.append(term if sign >= 0 else f"-{term}")
        else:
            pieces.append(("+ " if sign >= 0 else "- ") + term)
    return " ".join(pieces)


PRINT_FIELDS = {"QQ": QQ, "Q(xi)": XI, "Q(cbrt2)": NumberField([-2, 0, 0, 1])}


def printed_coefficients(field):
    """Integers, p/q, +-1 and (over a larger field) elements off Q."""
    rational = st.one_of(st.integers(-9, 9), st.sampled_from([1, -1]),
                         st.fractions(-9, 9, max_denominator=12))
    out = rational.map(field.from_rational)
    if field.degree > 1:
        out |= st.lists(st.fractions(-5, 5, max_denominator=6), min_size=field.degree,
                        max_size=field.degree).map(field.element)
    return out


@pytest.mark.parametrize("field", PRINT_FIELDS.values(), ids=PRINT_FIELDS.keys())
@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
@settings(max_examples=60)
@given(data=st.data())
def test_printer_matches_reference(field, nvars, data):
    # the zero exponent vector puts each kind of coefficient without a monomial
    ring = LaurentRing(field, nvars)
    exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    p = data.draw(st.dictionaries(exps, printed_coefficients(field), max_size=4)
                  .map(ring.from_terms))
    assert str(p) == repr(p) == reference_str(p)


def test_exact_division():
    p = poly(R1, {(0,): 1, (1,): -3, (2,): 1})
    q = poly(R1, {(-1,): 2})
    prod = p * q
    assert divide_exact(prod, q) == p
    assert divide_exact(prod, p) == q
    with pytest.raises(InexactDivision):
        divide_exact(p, poly(R1, {(0,): 1, (1,): -1}))


def test_exact_division_multivariate():
    rng = random.Random(11)
    for _ in range(20):
        a = poly(R2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                      for _ in range(3)})
        b = poly(R2, {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                      for _ in range(2)})
        if a.is_zero() or b.is_zero():
            continue
        assert divide_exact(a * b, b) == a


def test_unit_inverse():
    u = poly(R1, {(3,): -2})
    assert u * u.inv_unit() == R1.one
    with pytest.raises(InexactDivision):
        poly(R1, {(0,): 1, (1,): 1}).inv_unit()
    # every nonzero field element is a unit, as a monomial is in the Laurent ring
    rng = random.Random(7)
    for field in (QQ, NumberField([1, 1, 1])):
        for _ in range(20):
            x = field.element([rng.randint(-3, 3) for _ in range(field.degree)])
            assert x.is_monomial() == (not x.is_zero())
            if not x.is_zero():
                assert x * x.inv_unit() == field.one
        assert not field.zero.is_monomial()
        with pytest.raises(ZeroDivisionError):
            field.zero.inv_unit()


DOT_RINGS = [LaurentRing(QQ, 1), LaurentRing(XI, 0), LaurentRing(XI, 1), LaurentRing(XI, 2)]


def laurent_polys(ring):
    """Polynomials of up to three terms over small exponents, with mixed denominators."""
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 6]))
    element = st.lists(coeff, min_size=ring.field.degree,
                       max_size=ring.field.degree).map(ring.field.element)
    exps = st.tuples(*[st.integers(-2, 2)] * ring.nvars)
    return st.dictionaries(exps, element, max_size=3).map(ring.from_terms)


def assert_canonical(p):
    for exps, c in p.terms.items():
        assert len(exps) == p.ring.nvars
        assert not c.is_zero()
        assert c.den > 0 and gcd(c.den, *c.num) == 1


def fold(xs, ys, ring):
    acc = ring.zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


@pytest.mark.parametrize("ring", DOT_RINGS, ids=["QQ[t]", "Q(xi)", "Q(xi)[t]", "Q(xi)[t1,t2]"])
@settings(max_examples=50)
@given(data=st.data())
def test_dot_equals_fold_of_products(ring, data):
    xs = data.draw(st.lists(laurent_polys(ring), max_size=5))
    ys = data.draw(st.lists(laurent_polys(ring), min_size=len(xs), max_size=len(xs)))
    got = ring.dot(xs, ys)
    assert got == fold(xs, ys, ring)
    assert_canonical(got)
    cancelled = ring.dot(xs + xs, ys + [-y for y in ys])
    assert cancelled == ring.zero and not cancelled.terms


@pytest.mark.parametrize("ring", DOT_RINGS, ids=["QQ[t]", "Q(xi)", "Q(xi)[t]", "Q(xi)[t1,t2]"])
def test_dot_edge_cases(ring):
    assert ring.dot([], []) == ring.zero
    one = (0,) * ring.nvars
    p = ring.from_terms({one: ring.field.from_rational(Fraction(1, 2)),
                         (1,) * ring.nvars: ring.field.from_rational(3)})
    assert ring.dot([ring.zero, p], [p, ring.zero]) == ring.zero
    if not ring.nvars:
        return
    # (1/2 + 3m)(1/2 - 3m) + 9 m^2: the cross terms cancel inside one dot
    q = ring.from_terms({one: ring.field.from_rational(Fraction(1, 2)),
                         (1,) * ring.nvars: ring.field.from_rational(-3)})
    m2 = ring.monomial((2,) * ring.nvars, ring.field.from_rational(9))
    got = ring.dot([p, m2], [q, ring.one])
    assert got == fold([p, m2], [q, ring.one], ring) == ring.monomial(one, ring.field.from_rational(Fraction(1, 4)))
    assert_canonical(got)


def test_exponent_vector_length_and_division_by_zero_are_refused():
    for build in (lambda: R2.monomial((1,)), lambda: R2.from_terms({(0, 1, 2): QQ.one})):
        with pytest.raises(ValueError, match="exponent vector has wrong length"):
            build()
    with pytest.raises(InexactDivision, match="division by zero"):
        divide_exact(R1.one, R1.zero)
