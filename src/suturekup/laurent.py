"""Multivariate Laurent polynomials with number-field coefficients.

Terms are a finite map from integer exponent vectors (tuples of length b) to
nonzero field elements.  The unit normalization used for "equality up to
units" translates the support so the lex-smallest exponent vector is zero and
scales by -1 if needed so the coefficient there has positive leading rational
coefficient.  Printing uses variables t1..tb ("t" when b == 1), terms sorted
by lex exponent, e.g. "t^-1 - 1 + t".
"""

from __future__ import annotations

from operator import add, neg

from .numberfield import FieldElement, NumberField, SparseSum, accumulate, signed_sum


class InexactDivision(ArithmeticError):
    pass


class LaurentRing:
    def __init__(self, field: NumberField, nvars: int):
        self.field = field
        self.nvars = int(nvars)
        if self.nvars < 0:
            raise ValueError("nvars must be >= 0")

    def __eq__(self, other):
        return (
            isinstance(other, LaurentRing)
            and self.field == other.field
            and self.nvars == other.nvars
        )

    def __hash__(self):
        return hash((self.field, self.nvars))

    def __repr__(self):
        return f"LaurentRing({self.field!r}, {self.nvars})"

    @property
    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    @property
    def one(self) -> "LaurentPoly":
        return self.monomial((0,) * self.nvars)

    def monomial(self, exps, coeff=None) -> "LaurentPoly":
        exps = tuple(map(int, exps))
        if len(exps) != self.nvars:
            raise ValueError("exponent vector has wrong length")
        c = self.field.one if coeff is None else coeff
        if c.is_zero():
            return self.zero
        return LaurentPoly(self, {exps: c})

    def dot(self, xs, ys) -> "LaurentPoly":
        """The sum of x * y over the paired polynomials of xs and ys.

        The coefficient products are grouped by exponent vector, and each
        group is summed by one NumberField.dot, so every output coefficient
        is reduced once; coefficients that cancel are dropped.
        """
        groups = {}
        for x, y in zip(xs, ys):
            for e1, c1 in x.terms.items():
                for e2, c2 in y.terms.items():
                    e = tuple(map(add, e1, e2))
                    pairs = groups.get(e)
                    if pairs is None:
                        groups[e] = ([c1], [c2])
                    else:
                        pairs[0].append(c1)
                        pairs[1].append(c2)
        dot = self.field.dot
        out = {}
        for e, (cs1, cs2) in groups.items():
            c = dot(cs1, cs2)
            if c:
                out[e] = c
        return LaurentPoly(self, out)

    def from_terms(self, terms) -> "LaurentPoly":
        out = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent vector has wrong length")
            accumulate(out, exps, c)
        return LaurentPoly(self, out)


class LaurentPoly(SparseSum):
    __slots__ = ("ring",)

    def __init__(self, ring: LaurentRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _parent(self):
        return self.ring

    def _like(self, terms):
        return LaurentPoly(self.ring, terms)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
        return LaurentPoly(self.ring, out)

    def scale_monomial(self, exps) -> "LaurentPoly":
        exps = tuple(map(int, exps))
        return LaurentPoly(
            self.ring,
            {tuple(map(add, e, exps)): c for e, c in self.terms.items()},
        )

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def inv_unit(self) -> "LaurentPoly":
        """Inverse of a unit (a single term with invertible coefficient)."""
        if not self.is_monomial():
            raise InexactDivision("not a unit in the Laurent ring")
        (e, c), = self.terms.items()
        return LaurentPoly(self.ring, {tuple(map(neg, e)): c.inv()})

    def min_exponents(self):
        return tuple(map(min, zip(*self.terms))) if self.terms else (0,) * self.ring.nvars

    def __str__(self):
        terms = []
        for exps, c in sorted(self.terms.items()):
            mono = _monomial_str(exps)
            if c.is_rational():
                # the field prints the magnitude as its lowest-terms p/q
                sign = c.num[0]
                body = str(c) if sign > 0 else str(-c)
            else:
                sign, body = 1, f"({c})"
            if mono:
                body = mono if body == "1" else f"{body}*{mono}"
            terms.append((sign, body))
        return signed_sum(terms)

    __repr__ = __str__


def _monomial_str(exps) -> str:
    n = len(exps)
    parts = []
    for i, e in enumerate(exps):
        if e == 0:
            continue
        var = "t" if n == 1 else f"t{i + 1}"
        parts.append(var if e == 1 else f"{var}^{e}")
    return "*".join(parts)


def normalize_unit(p: LaurentPoly) -> LaurentPoly:
    """Canonical representative of p modulo units +-(monomial).

    Translate so the lex-smallest exponent vector is zero, then flip the sign
    so the coefficient there has positive leading rational coefficient.  Zero
    maps to zero.
    """
    if p.is_zero():
        return p
    base = min(p.terms.keys())
    shifted = p.scale_monomial(tuple(-x for x in base))
    anchor = shifted.terms[(0,) * p.ring.nvars]
    # the denominator is positive: the last nonzero numerator has the leading sign
    if next(filter(None, reversed(anchor.num))) < 0:
        shifted = -shifted
    return shifted


def divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact division p / q; raises InexactDivision when q does not divide p."""
    if q.is_zero():
        raise InexactDivision("division by zero")
    if p.is_zero():
        return p
    mp, mq = p.min_exponents(), q.min_exponents()
    pp = p.scale_monomial(tuple(-x for x in mp))
    qq = q.scale_monomial(tuple(-x for x in mq))
    quot = _poly_divide_exact(pp, qq)
    return quot.scale_monomial(tuple(a - b for a, b in zip(mp, mq)))


def _poly_divide_exact(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    # both have nonnegative exponents; greedy lex-leading-term elimination
    ring = p.ring
    q_lead = max(q.terms.keys())
    q_lead_inv = q.terms[q_lead].inv()
    quot = ring.zero
    rem = p
    while not rem.is_zero():
        r_lead = max(rem.terms.keys())
        diff = tuple(a - b for a, b in zip(r_lead, q_lead))
        if any(d < 0 for d in diff):
            raise InexactDivision("leading monomial does not divide")
        t = ring.monomial(diff, rem.terms[r_lead] * q_lead_inv)
        quot = quot + t
        rem = rem - t * q
    return quot
