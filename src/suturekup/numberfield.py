"""Exact number field arithmetic Q[x]/(m(x)).

A field is described by a monic integer minimal polynomial m of degree D from
1 to 16, with coefficients of at most 100 digits.  An m of degree >= 2 with a
rational root (by the rational-root test, an integer root) is rejected, which
settles irreducibility for D <= 3, and so is an m that is not squarefree; past
that, inverting a zero divisor of a reducible m raises ValueError.  An element
is D integers (coefficients of 1, x, ..., x^{D-1}) over one positive common
denominator, kept in lowest terms, so equal elements have equal integers.
Since m is monic with integer coefficients, products reduce modulo m without
leaving the integers, and inverses come from fraction-free elimination on the
integer multiplication matrix; dot and product are straight-line code
generated from D and the nonzero coefficients of m below x^D, compiled once
per pair (_kernels).  D = 1 recovers the rationals.  Elements serialize as
"a0 + a1*x + a2*x^2" with rational coefficients "p/q".
"""

from __future__ import annotations

import re
from functools import cache
from math import gcd, lcm
from operator import add, mul, neg


# NumberField refuses a min_poly beyond these before its integer-root search
MAX_POLY_DEGREE, MAX_POLY_DIGITS = 16, 100
# the largest N of --hopf exterior:N and of a representation file's dimension:
# the coproduct of the top label of ExteriorAlgebra(N) has 2^N terms
MAX_DIM = 20


class NumberField:
    """Q[x]/(min_poly), with min_poly given constant-coefficient first."""

    def __init__(self, min_poly):
        if not isinstance(min_poly, (list, tuple)) or any(type(c) is not int for c in min_poly):
            raise ValueError(f"min_poly must be a list of integers, not {echo(min_poly)}")
        coeffs = list(min_poly)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            raise ValueError("min_poly must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("min_poly must be monic with integer coefficients")
        self.degree = len(coeffs) - 1
        if self.degree > MAX_POLY_DEGREE or max(map(abs, coeffs)) >= 10 ** MAX_POLY_DIGITS:
            raise ValueError(f"min_poly {echo(coeffs)} exceeds degree {MAX_POLY_DEGREE} or "
                             f"{MAX_POLY_DIGITS}-digit coefficients")
        root = _integer_root(coeffs) if self.degree >= 2 else None
        if root is not None:
            raise ValueError(f"min_poly {echo(coeffs)} is reducible: x = {echo(root)} is a root")
        self.min_poly = tuple(coeffs)
        # x^D = -(c0 + c1 x + ... + c_{D-1} x^{D-1}); the nonzero c_j with their j
        self._tail = tuple((j, c) for j, c in enumerate(coeffs[:-1]) if c)
        self._dot, self._mul = _kernels(self.degree, self._tail)
        self.zero = FieldElement(self, (0,) * self.degree, 1)
        self.one = FieldElement(self, (1,) + (0,) * (self.degree - 1), 1)
        # gcd(m, m') = 1, that is m squarefree, exactly when m' is a unit mod m
        try:
            self.element([k * c for k, c in enumerate(coeffs)][1:]).inv()
        except ValueError:
            raise ValueError(f"min_poly {echo(coeffs)} is not squarefree: it shares a factor "
                             f"with its derivative") from None

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(self.min_poly)

    def __repr__(self):
        return f"NumberField({list(self.min_poly)})"

    def __reduce__(self):
        # rebuilt from min_poly: the kernels are functions pickle cannot name
        return NumberField, (self.min_poly,)

    # -- element constructors ------------------------------------------------

    def element(self, coeffs) -> "FieldElement":
        """The element with the given rational coefficients of 1, x, x^2, ...

        Powers of x beyond D - 1 are reduced modulo min_poly.
        """
        pairs = [(c, 1) if type(c) is int else _ratio(c) for c in coeffs]
        den = lcm(*(q for _, q in pairs))
        num = self._reduce([p * (den // q) for p, q in pairs])
        num += [0] * (self.degree - len(num))
        return _canonical(self, tuple(num), den)

    def from_rational(self, q) -> "FieldElement":
        p, q = (q, 1) if type(q) is int else _ratio(q)
        return _canonical(self, (p,) + (0,) * (self.degree - 1), q)

    # -- sums of products ----------------------------------------------------

    def dot(self, xs, ys) -> "FieldElement":
        """The sum of x * y over the paired elements of xs and ys.

        Delayed reduction: the unreduced numerators of the products, 2D - 1
        integers each, add up over one running denominator, which grows to
        the lcm only when a product's denominator differs; the sum is then
        reduced mod min_poly and brought to lowest terms once.
        """
        return self._dot(self, xs, ys)

    # -- internal integer arithmetic ------------------------------------------

    def _reduce(self, vec):
        """The integer list vec (degree >= D allowed), reduced mod min_poly in place."""
        d = self.degree
        for i in range(len(vec) - 1, d - 1, -1):
            c = vec.pop()
            if c:
                for j, t in self._tail:
                    vec[i - d + j] -= c * t
        return vec

    # -- parsing ---------------------------------------------------------------

    _TERM = re.compile(
        r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?\s*(?:\*\s*)?)?"
        r"(?:x(?:\^(?P<exp>\d+))?)?\s*"
    )

    def parse(self, text: str) -> "FieldElement":
        """Parse "a0 + a1*x + a2*x^2" with rational coefficients "p/q"."""
        s = text.strip()
        if not s:
            raise ValueError("empty field element")
        terms = []                      # (power of x, numerator, denominator)
        pos = 0
        first = True
        while pos < len(s):
            m = self._TERM.match(s, pos)
            if not m or m.end() == pos:
                raise ValueError(f"cannot parse field element {echo(text)} at {echo(s[pos:])}")
            sign, num, exp = m.group("sign"), m.group("num"), m.group("exp")
            if any(g and len(g) > MAX_DIGITS for g in (num, m.group("den"), exp)):
                raise ValueError(f"number over {MAX_DIGITS} digits in field element {echo(text)}")
            if not sign and not first:
                raise ValueError(f"missing sign in {echo(text)}")
            if num is None and exp is None and "x" not in s[pos:m.end()]:
                raise ValueError(f"empty term in {echo(text)}")
            has_x = "x" in s[pos:m.end()]
            k = int(exp) if exp is not None else (1 if has_x else 0)
            p = int(num) if num is not None else 1
            q = int(m.group("den") or 1)
            if q == 0:
                raise ValueError(f"zero denominator in field element {echo(text)}")
            if k >= self.degree:
                raise ValueError(f"term x^{echo(k)} exceeds field degree {self.degree}")
            terms.append((k, -p if sign == "-" else p, q))
            pos = m.end()
            first = False
        den = lcm(*(q for _, _, q in terms))
        vec = [0] * self.degree
        for k, p, q in terms:
            vec[k] += p * (den // q)
        return _canonical(self, tuple(vec), den)


class FieldElement:
    """Immutable element num / den of a NumberField.

    num is a tuple of D ints and den a positive int with gcd(den, *num) == 1,
    so equal elements have equal (num, den).
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den):
        self.field = field
        self.num = num
        self.den = den

    @property
    def vec(self):
        """The coefficients of 1, x, ..., x^{D-1} as Fractions."""
        from fractions import Fraction
        return tuple(Fraction(c, self.den) for c in self.num)

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.num == other.num
            and self.den == other.den
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        da, db = self.den, other.den
        if da == db:
            return _canonical(self.field, tuple(map(add, self.num, other.num)), da)
        return _canonical(self.field,
                          tuple([a * db + b * da for a, b in zip(self.num, other.num)]),
                          da * db)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return FieldElement(self.field, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        field = self.field
        if type(other) is FieldElement:
            return field._mul(field, self, other)
        if isinstance(other, int):
            return _canonical(field, tuple([a * other for a in self.num]), self.den)
        from fractions import Fraction
        if isinstance(other, Fraction):
            p = other.numerator
            return _canonical(field, tuple([a * p for a in self.num]),
                              self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self) -> "FieldElement":
        """Multiplicative inverse, by fraction-free elimination over the integers.

        With self = a / den and M the integer matrix whose column j is a * x^j,
        Bareiss elimination of [M | e_0] gives det M and, by back-substitution,
        the integer vector y = det(M) M^-1 e_0; the inverse is den * y / det M.
        ValueError when a nonzero element has no inverse, which happens only
        for a reducible min_poly.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        d = field.degree
        num, den = self.num, self.den
        if d == 1:
            a = num[0]
            return FieldElement(field, (den if a > 0 else -den,), abs(a))
        cols = [list(num)]
        for _ in range(d - 1):
            cols.append(field._reduce([0] + cols[-1]))
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for c in range(d):
            p = c
            while p < d and not rows[p][c]:
                p += 1
            if p == d:
                raise ValueError(f"{echo(self)} is not invertible: "
                                 f"min_poly {echo(list(field.min_poly))} is reducible")
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c][c]
            for r in range(c + 1, d):
                f = rows[r][c]
                rows[r] = [(pivot * a - f * b) // prev for a, b in zip(rows[r], rows[c])]
            prev = pivot
        det = prev
        y = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            acc = det * row[d] - sum(map(mul, row[i + 1:d], y[i + 1:]))
            y[i] = acc // row[i]
        if det < 0:
            det, den = -det, -den
        return _canonical(field, tuple([den * c for c in y]), det)

    def is_monomial(self) -> bool:
        """True iff the element is a unit, as for LaurentPoly: any nonzero element."""
        return not self.is_zero()

    def inv_unit(self) -> "FieldElement":
        return self.inv()

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def __str__(self):
        terms = []
        for k, c in enumerate(self.num):
            if c:
                g = gcd(c, self.den)
                body = str(abs(c) // g) if g == self.den else f"{abs(c) // g}/{self.den // g}"
                if k:
                    var = "x" if k == 1 else f"x^{k}"
                    body = var if body == "1" else f"{body}*{var}"
                terms.append((c, body))
        return signed_sum(terms)

    __repr__ = __str__


def _canonical(field, num, den):
    """The element num / den of field (den > 0), brought to lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = tuple([a // g for a in num])
            den //= g
    return FieldElement(field, num, den)


@cache
def _kernels(d, tail):
    """dot(field, xs, ys), mul(field, x, y): _kernel_source(d, tail) compiled once."""
    namespace = {"lcm": lcm, "_canonical": _canonical}
    exec(compile(_kernel_source(d, tail), f"<kernels of degree {d}>", "exec"), namespace)
    return namespace["dot"], namespace["mul"]


def _kernel_source(d, tail):
    """Source of the functions dot(field, xs, ys) and mul(field, x, y) of NumberField.

    Straight-line code over the degree d: the coefficients unpack into locals
    a0.. and b0.., the 2d - 1 sums of products s0.. and the reduction mod
    min_poly, top power first, by the (j, c) of tail, are written out, each
    placeholder one line of statements joined by "; ".  The source holds
    only these generated names and integers, never input text.
    """
    a, b = [f"a{i}" for i in range(d)], [f"b{i}" for i in range(d)]
    s = [f"s{k}" for k in range(2 * d - 1)]
    sums = [" + ".join([f"a{i} * b{k - i}" for i in range(max(0, k - d + 1), min(k, d - 1) + 1)])
            for k in range(2 * d - 1)]
    reduce = [f"s{i - d + j} {'-' if c > 0 else '+'}= s{i}{f' * {abs(c)}' if abs(c) > 1 else ''}"
              for i in range(2 * d - 2, d - 1, -1) for j, c in tail]
    return _KERNEL_TEMPLATE.format(
        s=" = ".join(s), a=", ".join(a), b=", ".join(b), out=", ".join(s[:d]),
        scale_s="; ".join([f"{v} *= f" for v in s]), scale_a="; ".join([f"{v} *= f" for v in a]),
        accumulate="; ".join(map("{} += {}".format, s, sums)),
        products="; ".join(map("{} = {}".format, s, sums)), reduce="; ".join(reduce))


_KERNEL_TEMPLATE = """\
def dot(field, xs, ys):
    den = 1; {s} = 0
    for x, y in zip(xs, ys):
        {a}, = x.num; {b}, = y.num
        q = x.den * y.den
        if q != den:
            m = lcm(den, q)
            if m != den:
                f = m // den; {scale_s}; den = m
            if m != q:
                f = m // q; {scale_a}
        {accumulate}
    {reduce}
    return _canonical(field, ({out},), den)
def mul(field, x, y):
    {a}, = x.num; {b}, = y.num
    {products}
    {reduce}
    return _canonical(field, ({out},), x.den * y.den)
"""


def signed_sum(terms) -> str:
    """(sign, body) pairs as "-a + b - c", where a negative sign subtracts; "0" for none."""
    parts = []
    for sign, body in terms:
        if parts:
            parts.append("- " + body if sign < 0 else "+ " + body)
        else:
            parts.append("-" + body if sign < 0 else body)
    return " ".join(parts) or "0"


def _ratio(q):
    """(numerator, denominator) of a rational number, or of anything Fraction accepts."""
    from fractions import Fraction
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return q.numerator, q.denominator


QQ = NumberField([0, 1])


def accumulate(terms, key, value):
    """Add value to the sparse {key: coefficient} map, dropping a zero sum."""
    acc = terms.get(key)
    s = value if acc is None else acc + value
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


class SparseSum:
    """A finite formal sum {key: coefficient} with no zero coefficient stored.

    A subclass supplies _parent(), the ring or module that equality compares
    besides the terms, and _like(terms), a sum over the same parent.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (type(other) is type(self) and self._parent() == other._parent()
                and self.terms == other.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times the scalar c."""
        if c.is_zero():
            return self._like({})
        return self._like({key: x * c for key, x in self.terms.items()})


# an error message echoes at most this many characters of an input value
ECHO_CHARS = 40
# parse refuses a coefficient, denominator or exponent of more digits before int()
MAX_DIGITS = 1000


def echo(value) -> str:
    """value for an error message: a string's repr or another value's, cut to ECHO_CHARS."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) > ECHO_CHARS:
        text = text[:ECHO_CHARS] + "..."
    return repr(text) if isinstance(value, str) else text


def _integer_root(coeffs):
    """An integer root of the integer polynomial (constant term first), or None."""
    for m in _root_brackets(coeffs):
        for r in (m, m + 1):
            if _evaluate(coeffs, r) == 0:
                return r
    return None


def _root_brackets(coeffs):
    """Integers m such that every real root of the polynomial lies in some [m, m + 1].

    Between the brackets of the derivative's roots the polynomial is
    monotone, so one integer bisection per such stretch finds its root; the
    recursion runs in time polynomial in the coefficients' bit length.
    """
    if len(coeffs) < 2:
        return []
    # every real root r has |r| < bound (Cauchy)
    bound = 2 + max(abs(c) for c in coeffs[:-1]) // abs(coeffs[-1])
    cuts = {-bound, bound}
    for m in _root_brackets([k * c for k, c in enumerate(coeffs)][1:]):
        cuts.update(c for c in (m, m + 1) if -bound < c < bound)
    cuts = sorted(cuts)
    out = []
    for lo, hi in zip(cuts, cuts[1:]):
        s_lo, s_hi = _sign(_evaluate(coeffs, lo)), _sign(_evaluate(coeffs, hi))
        if hi - lo == 1 or s_lo == 0:
            out.append(lo)
        elif s_lo != s_hi:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _sign(_evaluate(coeffs, mid)) == s_lo:
                    lo = mid
                else:
                    hi = mid
            out.append(lo)
    return out


def _sign(x):
    return (x > 0) - (x < 0)


def _evaluate(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
