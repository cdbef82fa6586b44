import random
import re

import pytest
from hypothesis import given, strategies as st

from suturekup import (
    GroupRingElement,
    QQ,
    Word,
    fox_derivative,
    parse_word,
    sigma,
)
from suturekup.words import MAX_EXPONENT, free_reduce

letters = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from([1, -1])),
    max_size=14,
)


def rand_word(rng, num_gens=3, max_len=12):
    return Word(
        [(rng.randrange(num_gens), rng.choice((1, -1)))
         for _ in range(rng.randint(0, max_len))]
    )


def test_multiply_examples():
    g1, g2 = Word.generator(0), Word.generator(1)
    assert (g1 * g1.inverse()).is_identity()
    w = Word([(0, 1), (1, -1), (0, 1)])
    assert Word.identity() * w == w
    # partial cancellation: (g1 g2) * (g2^-1 g1) = g1 g1
    left = Word([(0, 1), (1, 1)])
    right = Word([(1, -1), (0, 1)])
    assert left * right == Word([(0, 1), (0, 1)])


@given(letters)
def test_free_reduction_idempotent(ls):
    once = free_reduce(ls)
    assert free_reduce(once) == once


@given(letters, letters)
def test_multiplication_associative(l1, l2):
    u, v = Word(l1), Word(l2)
    w = Word([(2, 1)])
    assert (u * v) * w == u * (v * w)


def test_fox_base_cases():
    g = Word.generator(0)
    assert fox_derivative(g, 0) == GroupRingElement.one()
    assert fox_derivative(g, 1).is_zero()
    ginv = g.inverse()
    assert fox_derivative(ginv, 0) == GroupRingElement.from_word(ginv, coeff=-QQ.one)


def test_fox_leibniz_rule():
    rng = random.Random(17)
    for _ in range(50):
        u, v = rand_word(rng), rand_word(rng)
        for g in range(3):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + (
                GroupRingElement.from_word(u) * fox_derivative(v, g)
            )
            assert lhs == rhs


def test_fox_fundamental_identity():
    rng = random.Random(23)
    for _ in range(50):
        w = rand_word(rng)
        total = GroupRingElement.zero()
        for g in range(3):
            gw = GroupRingElement.from_word(Word.generator(g))
            total = total + fox_derivative(w, g) * (gw - GroupRingElement.one())
        expected = GroupRingElement.from_word(w) - GroupRingElement.one()
        assert total == expected


def test_sigma_definition_and_involution():
    g, h = Word.generator(0), Word.generator(1)
    e = GroupRingElement.from_word(g, coeff=QQ.from_rational(2)) - \
        GroupRingElement.from_word(h)
    s = sigma(e)
    assert s == GroupRingElement.from_word(g.inverse(), coeff=QQ.from_rational(2)) - \
        GroupRingElement.from_word(h.inverse())
    assert sigma(s) == e
    assert sigma(GroupRingElement.one()) == GroupRingElement.one()


def test_sigma_antihomomorphism():
    rng = random.Random(31)
    for _ in range(20):
        e = GroupRingElement.from_word(rand_word(rng)) + \
            GroupRingElement.from_word(rand_word(rng), coeff=QQ.from_rational(3))
        f = GroupRingElement.from_word(rand_word(rng)) - \
            GroupRingElement.from_word(rand_word(rng))
        assert sigma(e * f) == sigma(f) * sigma(e)


def test_word_parse_and_format():
    names = ["a", "alpha"]
    w = parse_word("a*alpha*a^-1*alpha^-1", names)
    assert w.format(names) == "a*alpha*a^-1*alpha^-1"
    assert parse_word("1", names).is_identity()
    assert parse_word("a^3", names) == Word.generator(0) ** 3
    assert parse_word(w.format(names), names) == w


def test_word_exponent_bound():
    names = ["a"]
    assert parse_word(f"a^-{MAX_EXPONENT}", names) == Word.generator(0, -MAX_EXPONENT)
    word = f"a^{MAX_EXPONENT + 1}"
    with pytest.raises(ValueError, match=re.escape(f"exceeds {MAX_EXPONENT} in absolute "
                                                   f"value in word {word!r}")):
        parse_word(word, names)


def test_word_exponent_grammar():
    names = ["a"]
    a = Word.generator(0)
    assert parse_word("a^+2", names) == a ** 2
    assert parse_word("a^-007", names) == a ** -7
    assert parse_word("a^" + "0" * 20 + "3", names) == a ** 3
    for exp in ("1_000", "\u0663", "2.0", "--1", ""):
        with pytest.raises(ValueError, match="is not an integer"):
            parse_word(f"a^{exp}", names)


def test_word_whitespace_never_glues_tokens():
    names = ["a", "b", "ab", "alpha", "alpha1"]
    a, b = Word.generator(0), Word.generator(1)
    assert parse_word(" a * b ^ -1 ", names) == a * b.inverse()
    assert parse_word("a*\tb ^2", names) == a * b ** 2
    assert parse_word(" 1 ", names).is_identity()
    for word, name in (("a b", "a b"), ("alpha 1", "alpha 1"), ("b*al pha^2", "al pha")):
        with pytest.raises(ValueError, match=re.escape(f"generator name {name!r} holds "
                                                       f"whitespace in word {word!r}")):
            parse_word(word, names)
    for exp in ("1 0", "- 1"):
        with pytest.raises(ValueError, match="is not an integer"):
            parse_word(f"a^{exp}", names)
    with pytest.raises(ValueError, match="empty factor"):
        parse_word("a* *b", names)


def test_word_errors_echo_a_bounded_prefix():
    names = ["a"]
    for word in ("a^" + "9" * 5000, "a*" * 3000 + "b", "a**" + "a" * 3000):
        with pytest.raises(ValueError) as err:
            parse_word(word, names)
        assert len(str(err.value)) < 200 and word[:40] in str(err.value)
