"""Hopf superalgebras that only the axiom-verifier tests use.

TableHopfSuperAlgebra takes its structure from explicit tables, so a test
can break one axiom on purpose; GroupAlgebra is the group algebra of a
finite group, a noncommutative instance with every label in degree 0.
"""

from __future__ import annotations

import itertools

from suturekup import QQ
from suturekup.hopf import Element, HopfSuperAlgebra


class TableHopfSuperAlgebra(HopfSuperAlgebra):
    """Generic instance backed by explicit structure tables."""

    def __init__(self, ring, degrees, mult_table, comult_table, unit,
                 counit_table, antipode_table, cointegral, integral_table):
        self.ring = ring
        self.labels = list(degrees.keys())
        self._degrees = dict(degrees)
        self._mult = mult_table
        self._comult = comult_table
        self._unit = unit
        self._counit = counit_table
        self._antipode = antipode_table
        self._cointegral = cointegral
        self._integral = integral_table

    def degree(self, label):
        return self._degrees[label]

    def mult(self, a, b):
        return Element(self, self._mult.get((a, b), {}))

    def comult(self, label):
        return self._comult.get(label, {})

    def counit(self, label):
        return self._counit.get(label, self.ring.zero)

    def antipode(self, label):
        return Element(self, self._antipode.get(label, {}))

    def unit_element(self):
        return Element(self, self._unit)

    def cointegral(self):
        return Element(self, self._cointegral)

    def integral(self, label):
        return self._integral.get(label, self.ring.zero)


class GroupAlgebra(HopfSuperAlgebra):
    """kk[G] for a finite group given by a multiplication table; all degree 0.

    Group-likes: Delta(g) = g (x) g, eps(g) = 1, S(g) = g^{-1}.  The cointegral
    is the sum of all group elements and the integral is dual to the identity,
    scaled so that mu(c) = 1.  Used by the axiom verifier tests.
    """

    def __init__(self, elements, mult, inverse, identity, ring=None):
        self.ring = ring if ring is not None else QQ
        self.labels = list(elements)
        self._mult_map = mult
        self._inv = inverse
        self._id = identity

    def degree(self, label):
        return 0

    def mult(self, a, b):
        return Element(self, {self._mult_map[(a, b)]: self.ring.one})

    def comult(self, label):
        return {(label, label): self.ring.one}

    def counit(self, label):
        return self.ring.one

    def antipode(self, label):
        return Element(self, {self._inv[label]: self.ring.one})

    def unit_element(self):
        return Element(self, {self._id: self.ring.one})

    def cointegral(self):
        return Element(self, {g: self.ring.one for g in self.labels})

    def integral(self, label):
        return self.ring.one if label == self._id else self.ring.zero

    @classmethod
    def cyclic(cls, n: int, ring=None):
        elements = list(range(n))
        mult = {(a, b): (a + b) % n for a in elements for b in elements}
        inverse = {a: (-a) % n for a in elements}
        return cls(elements, mult, inverse, 0, ring)

    @classmethod
    def symmetric(cls, n: int, ring=None):
        perms = sorted(itertools.permutations(range(n)))

        def compose(p, q):
            return tuple(p[q[i]] for i in range(n))

        mult = {(p, q): compose(p, q) for p in perms for q in perms}
        inverse = {}
        for p in perms:
            inv = [0] * n
            for i, v in enumerate(p):
                inv[v] = i
            inverse[p] = tuple(inv)
        return cls(perms, mult, inverse, tuple(range(n)), ring)
