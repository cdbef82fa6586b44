"""Finite-dimensional Z-graded Hopf superalgebras via structure tensors.

Conventions, fixed once:
  * the tensor-square product is (a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb';
  * the symmetry is tau(v (x) w) = (-1)^{|v||w|} w (x) v;
  * tensor products of maps and of functionals are applied without signs
    (the dual identification carries no sign);
  * iterated coproducts are left-nested, Delta^0 = counit, Delta^1 = id.

Elements are sparse sums over the graded basis with coefficients in a
commutative ring (a NumberField or a LaurentRing); zero coefficients are
never stored.  The exterior algebra on n generators is the concrete instance
used by the invariant: basis labels are bitmasks over {0..n-1}, degree is the
popcount, the cointegral is the full monomial and the integral its dual
functional.  Its automorphisms are Lambda(T) for matrices T, computed on a
label when asked.
"""

from __future__ import annotations

import itertools

from .numberfield import MAX_DIM, QQ, SparseSum, accumulate  # noqa: F401  (MAX_DIM re-exported)


class Element(SparseSum):
    """Sparse element of a Hopf superalgebra: {basis label: coefficient}."""

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms=None):
        self.algebra = algebra
        self.terms = {label: c for label, c in (terms or {}).items() if not c.is_zero()}

    def _parent(self):
        return self.algebra

    def _like(self, terms):
        return Element(self.algebra, terms)

    def __mul__(self, other):
        H = self.algebra
        out = {}
        for l1, c1 in self.terms.items():
            for l2, c2 in other.terms.items():
                prod = H.mult(l1, l2)
                c12 = c1 * c2
                for l, c in prod.terms.items():
                    accumulate(out, l, c * c12)
        return Element(H, out)

    def degree(self):
        """Super degree if homogeneous, else None."""
        degs = {self.algebra.degree(l) % 2 for l in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None if degs else 0

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*[{self.algebra.label_str(l)}]" for l, c in sorted(self.terms.items())
        )


class TensorElement(SparseSum):
    """Sparse element of H^(x)k: {tuple of labels: coefficient}."""

    __slots__ = ("algebra", "k")

    def __init__(self, algebra, k, terms=None):
        self.algebra = algebra
        self.k = k
        self.terms = {t: c for t, c in (terms or {}).items() if not c.is_zero()}

    def _parent(self):
        return self.algebra, self.k

    def _like(self, terms):
        return TensorElement(self.algebra, self.k, terms)

    def __mul__(self, other):
        """Componentwise product with Koszul signs between the factors."""
        H = self.algebra
        out = {}
        for t1, c1 in self.terms.items():
            d1 = [H.degree(l) for l in t1]
            for t2, c2 in other.terms.items():
                # sign: move each factor of t2 left past the later factors of t1
                sign = 1
                for j, l2 in enumerate(t2):
                    dj = H.degree(l2)
                    if dj % 2:
                        crossing = sum(d1[j + 1:])
                        if crossing % 2:
                            sign = -sign
                coeff = c1 * c2
                slotprods = [H.mult(a, b) for a, b in zip(t1, t2)]
                for combo in itertools.product(*(sp.terms.items() for sp in slotprods)):
                    labels = tuple(l for l, _ in combo)
                    c = coeff
                    for _, ci in combo:
                        c = c * ci
                    accumulate(out, labels, -c if sign < 0 else c)
        return TensorElement(H, self.k, out)

    def __repr__(self):
        H = self.algebra
        if not self.terms:
            return "0"
        return " + ".join(
            "({})*[{}]".format(c, "|".join(H.label_str(l) for l in t))
            for t, c in sorted(self.terms.items())
        )


class HopfSuperAlgebra:
    """Base class; subclasses provide the structure tensors over self.ring.

    Required: labels (a sequence), degree(label), mult(a, b) -> Element,
    comult(label) -> {(l1, l2): coeff}, counit(label) -> coeff,
    antipode(label) -> Element, unit_element() -> Element,
    cointegral() -> Element, integral(label) -> coeff.
    """

    def basis_element(self, label):
        return Element(self, {label: self.ring.one})

    def label_str(self, label):
        return str(label)

    def counit_of(self, e: Element):
        return sum((self.counit(l) * c for l, c in e.terms.items()), self.ring.zero)

    def antipode_of(self, e: Element) -> Element:
        return sum((self.antipode(l).scale(c) for l, c in e.terms.items()), Element(self))

    def integral_of(self, e: Element):
        return sum((self.integral(l) * c for l, c in e.terms.items()), self.ring.zero)

    def comult_of(self, e: Element) -> TensorElement:
        return self.iterated_coproduct(e, 2)

    def iterated_coproduct(self, e: Element, k: int) -> TensorElement:
        """Left-nested Delta^k; Delta^0 is the counit, Delta^1 the identity."""
        if k < 0:
            raise ValueError("iterated coproduct needs k >= 0")
        if k == 0:
            return TensorElement(self, 0, {(): self.counit_of(e)})
        terms = {(l,): c for l, c in e.terms.items()}
        for step in range(k - 1):
            new_terms = {}
            for t, c in terms.items():
                for (l1, l2), cc in self.comult(t[0]).items():
                    accumulate(new_terms, (l1, l2) + t[1:], cc * c)
            terms = new_terms
        return TensorElement(self, k, terms)


def _shuffle_sign(mask_a: int, mask_b: int) -> int:
    """Sign of merging the ordered monomial X_A X_B into ascending order."""
    inv = 0
    b = mask_b
    while b:
        low = b & -b
        # generators of A above this element of B must jump over it
        inv += bin(mask_a >> (low.bit_length())).count("1")
        b ^= low
    return -1 if inv % 2 else 1


class ExteriorAlgebra(HopfSuperAlgebra):
    """Lambda(V) on n generators X_1..X_n; labels are bitmasks, degree = popcount."""

    def __init__(self, n: int, ring=None):
        if n < 0:
            raise ValueError("dimension must be >= 0")
        self.n = n
        self.ring = ring if ring is not None else QQ
        self.labels = range(1 << n)

    def __eq__(self, other):
        return (
            type(other) is ExteriorAlgebra
            and self.n == other.n
            and self.ring == other.ring
        )

    def degree(self, label):
        return bin(label).count("1")

    def label_str(self, label):
        if label == 0:
            return "1"
        return "".join(f"X{i + 1}" for i in range(self.n) if label >> i & 1)

    def mult(self, a, b):
        if a & b:
            return Element(self, {})
        s = _shuffle_sign(a, b)
        c = self.ring.one if s > 0 else -self.ring.one
        return Element(self, {a | b: c})

    def comult(self, label):
        out = {}
        sub = label
        while True:
            other = label ^ sub
            s = _shuffle_sign(sub, other)
            out[(sub, other)] = self.ring.one if s > 0 else -self.ring.one
            if sub == 0:
                break
            sub = (sub - 1) & label
        return out

    def counit(self, label):
        return self.ring.one if label == 0 else self.ring.zero

    def antipode(self, label):
        # S(v) = -v extended as a superalgebra antihomomorphism gives
        # S(X_A) = (-1)^{|A|} X_A on the supercommutative exterior algebra
        c = self.ring.one if self.degree(label) % 2 == 0 else -self.ring.one
        return Element(self, {label: c})

    def unit_element(self):
        return Element(self, {0: self.ring.one})

    def cointegral(self):
        return Element(self, {(1 << self.n) - 1: self.ring.one})

    def integral(self, label):
        return self.ring.one if label == (1 << self.n) - 1 else self.ring.zero


# -- automorphisms -----------------------------------------------------------


class HopfAutomorphism:
    """Lambda(T) on an exterior algebra, for an n x n matrix T over its ring."""

    def __init__(self, algebra, matrix):
        self.algebra = algebra
        self.matrix = matrix

    def apply_label(self, label) -> Element:
        # Lambda(T) is multiplicative: X_k maps to column k of T, and X_A to
        # the ordered product of its columns
        H = self.algebra
        img = None
        for k in range(H.n):
            if label >> k & 1:
                column = Element(H, {1 << r: row[k] for r, row in enumerate(self.matrix)})
                img = column if img is None else img * column
        return H.unit_element() if img is None else img


# -- axiom verifier ----------------------------------------------------------


class AxiomReport:
    def __init__(self):
        self.checks = []

    def record(self, name, ok, witness=None):
        self.checks.append((name, bool(ok), witness))

    @property
    def all_passed(self):
        return all(ok for _, ok, _ in self.checks)

    def lines(self):
        out = []
        for name, ok, witness in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = "" if ok or witness is None else f"  witness: {witness}"
            out.append(f"{mark}  {name}{suffix}")
        return out


def verify_axioms(H: HopfSuperAlgebra) -> AxiomReport:
    """Check every Hopf superalgebra axiom plus the (co)integral equations."""
    report = AxiomReport()
    ring = H.ring
    one = H.unit_element()

    def check(name, holds, arity=1):
        """Record name, failed at the first label (or label tuple) where holds is false."""
        w = next((args if arity > 1 else args[0]
                  for args in itertools.product(H.labels, repeat=arity)
                  if not holds(*args)), None)
        report.record(name, w is None, w)

    def sides(a, f):
        """(sum f(a1) a2, sum a1 f(a2)) over Delta(a), for a scalar map f on labels."""
        left, right = Element(H, {}), Element(H, {})
        for (l1, l2), c in H.comult(a).items():
            left = left + H.basis_element(l2).scale(f(l1) * c)
            right = right + H.basis_element(l1).scale(f(l2) * c)
        return left, right

    def right_coassociated(a):
        """(id (x) Delta) Delta(a), as a 3-fold tensor."""
        out = TensorElement(H, 3, {})
        for (l1, l2), c in H.comult(a).items():
            for (l3, l4), c2 in H.comult(l2).items():
                accumulate(out.terms, (l1, l3, l4), c * c2)
        return out

    def convolutions(a):
        """(sum a1 S(a2), sum S(a1) a2) over Delta(a)."""
        right, left = Element(H, {}), Element(H, {})
        for (l1, l2), c in H.comult(a).items():
            right = right + (H.basis_element(l1) * H.antipode(l2)).scale(c)
            left = left + (H.antipode(l1) * H.basis_element(l2)).scale(c)
        return right, left

    # degree additivity and degree-0 structure maps
    check("product respects degree", lambda a, b: all(
        H.degree(l) % 2 == (H.degree(a) + H.degree(b)) % 2 for l in H.mult(a, b).terms), 2)
    check("coproduct respects degree", lambda a: all(
        (H.degree(l1) + H.degree(l2)) % 2 == H.degree(a) % 2 for l1, l2 in H.comult(a)))
    check("antipode preserves degree", lambda a: all(
        H.degree(l) % 2 == H.degree(a) % 2 for l in H.antipode(a).terms))
    check("counit vanishes in odd degree",
          lambda a: H.degree(a) % 2 == 0 or H.counit(a).is_zero())

    # associativity and unit
    check("associativity", lambda a, b, c:
          H.mult(a, b) * H.basis_element(c) == H.basis_element(a) * H.mult(b, c), 3)
    check("unit", lambda a:
          one * H.basis_element(a) == H.basis_element(a) == H.basis_element(a) * one)

    # coassociativity and counit axiom
    check("coassociativity",
          lambda a: H.iterated_coproduct(H.basis_element(a), 3) == right_coassociated(a))
    check("counit axiom",
          lambda a: all(side == H.basis_element(a) for side in sides(a, H.counit)))

    # bialgebra compatibility with Koszul signs
    check("coproduct is a superalgebra morphism", lambda a, b: H.comult_of(H.mult(a, b))
          == H.comult_of(H.basis_element(a)) * H.comult_of(H.basis_element(b)), 2)
    check("counit is an algebra morphism",
          lambda a, b: H.counit_of(H.mult(a, b)) == H.counit(a) * H.counit(b), 2)

    # antipode axiom and involutivity
    check("antipode axiom",
          lambda a: all(side == one.scale(H.counit(a)) for side in convolutions(a)))
    check("involutivity S^2 = id",
          lambda a: H.antipode_of(H.antipode(a)) == H.basis_element(a))

    # cointegral/integral equations and normalization
    c = H.cointegral()
    check("two-sided cointegral equation", lambda a:
          c * H.basis_element(a) == c.scale(H.counit(a)) == H.basis_element(a) * c)
    check("two-sided integral equation",
          lambda a: all(side == one.scale(H.integral(a)) for side in sides(a, H.integral)))
    report.record("normalization mu(c) = 1", H.integral_of(c) == ring.one)

    # S(c) = (-1)^{|c|} c and cocommutativity on the cointegral
    deg_c = c.degree()
    sc = H.antipode_of(c)
    expected = c if (deg_c is not None and deg_c % 2 == 0) else -c
    report.record("S(c) = (-1)^{|c|} c", deg_c is not None and sc == expected)
    dc = H.comult_of(c)
    flipped = TensorElement(H, 2, {})
    for (l1, l2), cc in dc.terms.items():
        accumulate(flipped.terms, (l2, l1),
                   -cc if (H.degree(l1) % 2 and H.degree(l2) % 2) else cc)
    report.record("Delta(c) = Delta^op(c)", dc == flipped)
    return report
