"""The Fraction-tuple number field, kept as a test-only reference.

The library stores a field element as D integers over one common
denominator (suturekup.numberfield); this is the earlier form, a tuple of D
Fractions, with multiplication reduced coefficient by coefficient and the
inverse by Gauss-Jordan over Q.  tests/test_numberfield.py compares the two
exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from suturekup.numberfield import _integer_root


class NumberField:
    """Q[x]/(min_poly), with min_poly given constant-coefficient first."""

    def __init__(self, min_poly):
        coeffs = [int(c) for c in min_poly]
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic with integer coefficients")
        self.degree = len(coeffs) - 1
        root = _integer_root(coeffs) if self.degree >= 2 else None
        if root is not None:
            raise ValueError(f"min_poly {coeffs} is reducible: x = {root} is a root")
        self.min_poly = tuple(coeffs)
        # x^D = -(c0 + c1 x + ... + c_{D-1} x^{D-1})
        self._reduction = tuple(Fraction(-c) for c in coeffs[:-1])

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            vec = self._reduce(vec)
        vec += [Fraction(0)] * (self.degree - len(vec))
        return FieldElement(self, tuple(vec))

    def from_rational(self, q) -> "FieldElement":
        return self.element([Fraction(q)])

    @property
    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    @property
    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            raise ValueError("degree-1 field has no generator beyond Q")
        return self.element([0, 1])

    # -- internal polynomial reduction ----------------------------------------

    def _reduce(self, vec):
        vec = list(vec)
        for i in range(len(vec) - 1, self.degree - 1, -1):
            c = vec[i]
            if c:
                for j, r in enumerate(self._reduction):
                    vec[i - self.degree + j] += c * r
            vec.pop()
        return vec

    # -- parsing ---------------------------------------------------------------

    _TERM = re.compile(
        r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:/\d+)?)\s*(?:\*\s*)?)?"
        r"(?:x(?:\^(?P<exp>\d+))?)?\s*"
    )

    def parse(self, text: str) -> "FieldElement":
        """Parse "a0 + a1*x + a2*x^2" with rational coefficients "p/q"."""
        s = text.strip()
        if not s:
            raise ValueError("empty field element")
        vec = [Fraction(0)] * self.degree
        pos = 0
        first = True
        while pos < len(s):
            m = self._TERM.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse field element {text!r} at {s[pos:]!r}")
            sign, num, exp = m.group("sign"), m.group("num"), m.group("exp")
            if not sign and not first:
                raise ValueError(f"missing sign in {text!r}")
            if num is None and exp is None and "x" not in s[pos:m.end()]:
                raise ValueError(f"empty term in {text!r}")
            has_x = "x" in s[pos:m.end()]
            k = int(exp) if exp is not None else (1 if has_x else 0)
            coeff = Fraction(num) if num is not None else Fraction(1)
            if sign == "-":
                coeff = -coeff
            if k >= self.degree:
                raise ValueError(f"term x^{k} exceeds field degree {self.degree}")
            vec[k] += coeff
            pos = m.end()
            first = False
        return FieldElement(self, tuple(vec))


class FieldElement:
    """Immutable element of a NumberField."""

    __slots__ = ("field", "vec")

    def __init__(self, field: NumberField, vec):
        self.field = field
        self.vec = vec

    def __bool__(self):
        return any(self.vec)

    def is_zero(self) -> bool:
        return not any(self.vec)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.vec == other.vec
        )

    def __hash__(self):
        return hash((self.field.min_poly, self.vec))

    def __add__(self, other):
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.vec, other.vec)))

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.vec))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, tuple(a * q for a in self.vec))
        d = self.field.degree
        if d == 1:
            return FieldElement(self.field, (self.vec[0] * other.vec[0],))
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.vec):
            if a:
                for j, b in enumerate(other.vec):
                    if b:
                        prod[i + j] += a * b
        vec = self.field._reduce(prod)
        vec += [Fraction(0)] * (d - len(vec))
        return FieldElement(self.field, tuple(vec))

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        """Multiplicative inverse: the v with M v = e_0, by Gauss-Jordan over Q.

        Column j of M is self * x^j.  ValueError when a nonzero element has
        no inverse, which happens only for a reducible min_poly.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        d = field.degree
        if d == 1:
            return FieldElement(field, (1 / self.vec[0],))
        cols = [list(self.vec)]
        for _ in range(d - 1):
            cols.append(field._reduce([Fraction(0)] + cols[-1]))
        rows = [[col[i] for col in cols] + [Fraction(int(i == 0))] for i in range(d)]
        for c in range(d):
            p = next((r for r in range(c, d) if rows[r][c]), None)
            if p is None:
                raise ValueError(f"{self} is not invertible: "
                                 f"min_poly {list(field.min_poly)} is reducible")
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c][c]
            rows[c] = [a / pivot for a in rows[c]]
            for r in range(d):
                f = rows[r][c]
                if r != c and f:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        return FieldElement(field, tuple(row[d] for row in rows))

    def __truediv__(self, other):
        return self * other.inv()

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.vec[0]

    def leading_rational(self) -> Fraction:
        """Coefficient of the highest power of x present (0 for the zero element)."""
        for c in reversed(self.vec):
            if c:
                return c
        return Fraction(0)

    def __str__(self):
        parts = []
        for k, c in enumerate(self.vec):
            if not c:
                continue
            if k == 0:
                body = str(c if c > 0 else -c)
            else:
                mag = c if c > 0 else -c
                var = "x" if k == 1 else f"x^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    __repr__ = __str__
