"""Freely reduced words, group rings over a number field, and Fox calculus.

Generators are indexed 0..m-1; a word is a tuple of (generator, +-1) letters
with no adjacent cancelling pair.  The word string grammar used by the file
formats is generator names joined by "*", with a "^-1" (or any integer
exponent) suffix, e.g. "a*alpha*a^-1*alpha^-1"; an exponent is an optional
sign and ASCII digits, with absolute value at most MAX_EXPONENT.
"""

from __future__ import annotations

import re

from .numberfield import NumberField, QQ, SparseSum, accumulate, echo

MAX_EXPONENT = 10_000
# an optional sign, then ASCII digits (leading zeros dropped); int() alone
# would also take "1_000" and stop at its digit limit
_EXPONENT = re.compile(r"([+-]?)0*([0-9]+)")


class Word:
    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = free_reduce(letters)

    @classmethod
    def generator(cls, g: int, exp: int = 1) -> "Word":
        return cls(((g, 1),) * exp if exp >= 0 else ((g, -1),) * (-exp))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = Word.identity()
        for _ in range(n):
            out = out * self
        return out

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def exponent_sums(self, num_generators: int):
        sums = [0] * num_generators
        for g, e in self.letters:
            sums[g] += e
        return sums

    def format(self, names) -> str:
        if not self.letters:
            return "1"
        return "*".join(
            names[g] if e == 1 else f"{names[g]}^{e}" for g, e in self.letters
        )

    def __repr__(self):
        return "Word(" + ",".join(f"{g}^{e}" for g, e in self.letters) + ")"


def free_reduce(letters) -> tuple:
    out = []
    for g, e in letters:
        g = int(g)
        e = int(e)
        if e not in (1, -1):
            raise ValueError("letters must carry exponent +1 or -1")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def parse_word(text: str, names) -> Word:
    """Parse the word grammar over the given generator names ("1" = identity).

    Whitespace around a factor, its name, "*" and "^" is ignored; whitespace inside
    a generator name or an exponent is refused, never read as gluing two tokens.
    """
    index = {name: i for i, name in enumerate(names)}
    if text.strip() in ("", "1"):
        return Word.identity()
    letters = []
    for chunk in text.split("*"):
        if not chunk.strip():
            raise ValueError(f"empty factor in word {echo(text)}")
        name, caret, exp = (part.strip() for part in chunk.partition("^"))
        if len(name.split()) > 1:
            raise ValueError(f"generator name {echo(name)} holds whitespace in word {echo(text)}")
        if caret:
            match = _EXPONENT.fullmatch(exp)
            if match is None:
                raise ValueError(f"exponent {echo(exp)} is not an integer in word {echo(text)}")
            sign, digits = match.groups()
            # the digit count settles a long exponent before int() reads it
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ValueError(f"exponent {echo(exp)} exceeds {MAX_EXPONENT} in absolute "
                                 f"value in word {echo(text)}")
            k = int(sign + digits)
        else:
            k = 1
        if name not in index:
            raise ValueError(f"unknown generator {echo(name)} in word {echo(text)}")
        g = index[name]
        letters.extend([(g, 1 if k > 0 else -1)] * abs(k))
    return Word(letters)


class GroupRingElement(SparseSum):
    """Finite formal sum of words with number-field coefficients."""

    __slots__ = ("field",)

    def __init__(self, field: NumberField, terms=None):
        self.field = field
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    def _parent(self):
        return self.field

    def _like(self, terms):
        return GroupRingElement(self.field, terms)

    @classmethod
    def from_word(cls, w: Word, field: NumberField = QQ, coeff=None):
        c = field.one if coeff is None else coeff
        return cls(field, {w: c})

    @classmethod
    def zero(cls, field: NumberField = QQ):
        return cls(field, {})

    @classmethod
    def one(cls, field: NumberField = QQ):
        return cls.from_word(Word.identity(), field)

    def __mul__(self, other):
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 * w2, c1 * c2)
        return GroupRingElement(self.field, out)

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c})*{w!r}" for w, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].letters))


def fox_derivative(w: Word, g: int, field: NumberField = QQ) -> GroupRingElement:
    """Free differential d(w)/d(g) in the group ring.

    d(g)/d(g) = 1, d(g')/d(g) = 0, d(g^-1)/d(g) = -g^-1, and the Leibniz rule
    d(uv) = d(u) + u*d(v).  Each letter contributes prefix-weighted: a letter
    g at position i adds +prefix, a letter g^-1 adds -prefix*g^-1.
    """
    terms = {}
    prefix = []
    for gen, e in w.letters:
        if gen == g:
            if e == 1:
                accumulate(terms, Word(tuple(prefix)), field.one)
            else:
                accumulate(terms, Word(tuple(prefix) + ((gen, -1),)), -field.one)
        prefix.append((gen, e))
    return GroupRingElement(field, terms)


def sigma(e: GroupRingElement) -> GroupRingElement:
    """Linear extension of word inversion g -> g^-1 (an anti-homomorphism).

    Part of the reference route that the tests and the benchmark's oracles
    use; the torsion reads rho(sigma(w)) as a transpose through
    Representation.inverse_transpose instead.
    """
    return GroupRingElement(e.field, {w.inverse(): c for w, c in e.terms.items()})
