"""The invariant evaluator: tensor contraction over a Heegaard datum.

For an ordered, oriented, based datum the scalar is

    delta^{|c|} * mu^{(x)d}( m_beta P (  (x)_x rho(subword_x) ) S_alpha
                             Delta_alpha (c^{(x)d}) )

where the crossings of beta with *closed* alpha curves carry the tensor
slots: Delta^{|alpha_i|}(c) is expanded along each closed curve in traversal
order, S is applied at negative crossings, the representation of the
crossing's subword acts on each slot, the slots are reordered from alpha
order to beta order with Koszul signs, multiplied along each beta curve from
its basepoint and fed to the integral.  Crossings with arcs appear inside the
subwords only.  All arithmetic is exact over the base ring; a twisted
rho(w) is t^{h(w)} times a field matrix, so subwords are multiplied over the
field while their exponent vectors h(w) add up.

Over the supercommutative exterior algebra every map above is an even
superalgebra morphism, so Z is the top coefficient of the ordered product of
d*n degree-one forms, one per generator of each closed curve, in a sparse state
of at most 2^{dn} exterior monomials.  A state key is one int, the packed
Laurent exponent above the exterior mask, and so is its value, the scaled
integral coefficient packed by Kronecker substitution: a product is one int
multiply-add, and Z is divided by the product of the scales once at the end.
"""

from __future__ import annotations

import copy
from functools import reduce
from math import lcm
from operator import add

from .abelian import abelianize
from .diagram import (
    CLOSED,
    HeegaardDatum,
    Record,
    beta_letters,
    subword_length,
    validation_error,
)
from .laurent import LaurentPoly, LaurentRing
from .linalg import SingularMatrix, identity, inverse_and_det, matmul, transpose
from .numberfield import QQ, _canonical, accumulate, echo
from .words import Word


class EvaluationError(ValueError):
    pass


class SingularRepresentationError(EvaluationError):
    """A generator's matrix is not invertible over the representation's field.

    ``generator`` is the generator's index; a caller that knows the
    generator names sets ``name`` to have the message use it.
    """

    def __init__(self, generator):
        super().__init__(generator)
        self.generator = generator
        self.name = None

    def __str__(self):
        label = repr(self.name) if self.name is not None else str(self.generator)
        return (f"representation matrix of generator {label} is not invertible "
                "(determinant 0)")


class EvaluationOptions(Record):
    __slots__ = ("homology_orientation_sign",)
    _defaults = {"homology_orientation_sign": 1}


def _field_matrix(matrix, n, field):
    """A copy of matrix; EvaluationError unless it is n x n over field."""
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise EvaluationError("representation matrix has the wrong size")
    for row in matrix:
        for entry in row:
            if (parent := getattr(entry, "field", None)) is not field and parent != field:
                raise EvaluationError(f"matrix entry {echo(entry)} is over {echo(parent)}, "
                                      f"not {echo(field)}")
    return [list(row) for row in matrix]


def _entry_field(matrices):
    """The field of the first matrix entry; QQ when there is none."""
    return next((getattr(e, "field", QQ) for m in matrices or () for row in m for e in row), QQ)


class Representation:
    """Assignment of an invertible matrix (hence a Hopf automorphism of an
    exterior algebra) to every presentation generator.

    Generator g is kept as t^{e_g} * M_g with M_g^-1 and det M_g over the
    field, one sweep per matrix that is not the identity; e_g is
    amap.gen_images[g], or () without an amap, so words are walked over the
    field and ring matrices are lifted on access.
    """

    def __init__(self, field, n, matrices, amap=None):
        self.field, self.n, self.num_generators = field, n, len(matrices)
        self.ring = field if amap is None else LaurentRing(field, amap.rank)
        self.identity = identity(n, self.ring)
        self._start = (() if amap is None else (0,) * amap.rank, identity(n, field))
        self._images = {}           # (exponent vector, field matrix) of each letter (g, +-1)
        # letter (g, s) has a field matrix of determinant _dets[g]^(s * _det_power)
        self._dets, self._det_power = [], 1
        for g, matrix in enumerate(matrices):
            m = _field_matrix(matrix, n, field)
            try:
                inv, det = (m, field.one) if m == self._start[1] else inverse_and_det(m, field)
            except SingularMatrix:
                raise SingularRepresentationError(g) from None
            e = () if amap is None else amap.gen_images[g]
            self._images[g, 1], self._images[g, -1] = (e, m), (tuple(-x for x in e), inv)
            self._dets.append(det)

    @classmethod
    def trivial(cls, num_generators, n, field=None):
        field = field if field is not None else QQ
        return cls(field, n, [identity(n, field)] * num_generators)

    @classmethod
    def twisted(cls, field_matrices, abelianization, n, field=None):
        """Combine matrices over a number field with the homology projection.

        Generator g maps to t^{h(g)} * M_g over the Laurent ring on
        abelianization.rank variables; trivial matrices when None is given.
        Its inverse t^{-h(g)} * M_g^{-1} is taken over the field, the
        entries' own when None is given; a singular M_g raises
        SingularRepresentationError for generator g.
        """
        field = field if field is not None else _entry_field(field_matrices)
        num = abelianization.num_generators
        matrices = [identity(n, field)] * num if field_matrices is None else field_matrices[:num]
        return cls(field, n, matrices, abelianization)

    def wrap(self, terms):
        """The ring element sum c * t^e over the {e: c} terms; over a field, terms[()]."""
        ring = self.ring
        return terms.get((), ring.zero) if ring is self.field else LaurentPoly(ring, terms)

    def lift(self, e, m):
        """t^e * m over the ring, for a field matrix m."""
        return [[self.wrap({e: c} if c else {}) for c in row] for row in m]

    def prefix_walk(self, letters):
        """(e, M) with rho(w) = t^e * M for each prefix w of the letters, the empty one first."""
        out = [self._start]
        for letter in letters:
            e, m = self._images[letter]
            out.append((e, m) if len(out) == 1 else
                       (tuple(map(add, out[-1][0], e)), matmul(out[-1][1], m, self.field)))
        return out

    def word_det(self, letters):
        """det M over the field, for rho(w) = t^e * M and w the word of the letters: the
        product of the letters' determinants, with one field inversion for all the
        inverted generators' determinants."""
        det, over = self.field.one, None
        for g, s in letters:
            if s == self._det_power:
                det = det * self._dets[g]
            else:
                over = self._dets[g] if over is None else over * self._dets[g]
        return det if over is None else det * over.inv()

    def word_inverse(self, letters):
        """M^-1 over the field, for rho(w) = t^e * M and w the word of the letters: the walk
        of the inverted letters in reverse order, since rho(w)^-1 = rho(w^-1)."""
        return self.prefix_walk([(g, -s) for g, s in reversed(letters)])[-1][1]

    def word_matrix(self, w: Word):
        return self.lift(*self.prefix_walk(w.letters)[-1])

    def inverse_transpose(self):
        """The representation g -> (rho(g)^-1)^T, from the known inverses.

        Its image of a word w is the transpose of rho(w)^-1, so the torsion
        convention's rho(sigma(w)) = rho(w)^-1 is read as a transpose of it.
        Letters g and g^-1 swap images, so nothing is inverted again.
        """
        out = copy.copy(self)
        out._images = {(g, -s): (e, transpose(m)) for (g, s), (e, m) in self._images.items()}
        out._det_power = -self._det_power
        return out

    def apply_to_groupring(self, e):
        """Image of a group-ring element over the ring, each word multiplied out through
        the lifted matrices: the reference route of the tests and the benchmark's
        oracles, where the Fox block of the torsion and the crosscheck walks prefixes."""
        n, ring = self.n, self.ring
        lifted = {letter: self.lift(*image) for letter, image in self._images.items()}
        out = [[ring.zero] * n for _ in range(n)]
        for w, c in e.terms.items():
            m = reduce(lambda a, letter: matmul(a, lifted[letter], ring), w.letters, self.identity)
            for i in range(n):
                for j in range(n):
                    out[i][j] = out[i][j] + m[i][j] * c
        return out

    def check_relators(self, pres):
        """Indices of the relators whose image is not the identity."""
        return [j for j, rel in enumerate(pres.relators)
                if self.word_matrix(rel) != self.identity]


def representation_for(pres, n=None, rho_matrices=None, field=None, twisted=False,
                       amap=None):
    """The representation a presentation is evaluated through.

    The given n x n matrices (identities when None) over field; n and field
    default to the entries' (1 and QQ without any); twisted, each matrix times
    its generator's monomial in amap (pres's free abelianization when None),
    over the Laurent ring.  SingularRepresentationError names the generator.
    """
    num = pres.num_generators
    if rho_matrices is not None and len(rho_matrices) < num:
        raise EvaluationError("representation does not cover all generators")
    if n is None:
        n = len(rho_matrices[0]) if rho_matrices else 1
    field = field if field is not None else _entry_field(rho_matrices)
    if twisted and amap is None:
        amap = abelianize(num, pres.relators)
    matrices = [identity(n, field)] * num if rho_matrices is None else rho_matrices[:num]
    try:
        return Representation(field, n, matrices, amap if twisted else None)
    except SingularRepresentationError as exc:
        exc.name = pres.generator_names()[exc.generator]
        raise


def degree_one_forms(D: HeegaardDatum, rep: Representation):
    """The d*n degree-one forms; form i*n + k is {bit: {e: c}} of Phi(X_k^{(i)})
    = sum_{x on alpha_i} (-1)^{eps_x} rho(subword_x) X_k, with X_r on beta j at bit
    j*n + r (Lambda(T) sends X_k to column k of T): the coefficient at a bit is the sum
    of the field coefficients c times t^e, e = () when rep is plain, and rep.wrap makes
    it a ring element.  As a dn x dn matrix, row (i, k) and column (j, r), the wrapped
    forms are the transpose of the Fox block through rep."""
    from .hopf import ExteriorAlgebra, HopfAutomorphism
    n = rep.n
    # rho(subword_x) = t^e * M for each closed crossing x, from one prefix walk per beta
    F = ExteriorAlgebra(n, rep.field)
    autos = {}
    for j in range(D.d):
        letters = beta_letters(D, j)
        ends = {c.id: subword_length(D, c.id) for c, _ in letters if c.alpha_kind == CLOSED}
        walk = letters[:max(ends.values(), default=0)]
        prefixes = rep.prefix_walk([letter for _, letter in walk])
        for cid, end in ends.items():
            e, m = prefixes[end]
            autos[cid] = (e, HopfAutomorphism(F, m))
    forms = []
    for curve in D.alphas:
        for k in range(n):
            form = {}                       # {bit: {exponent: coefficient}}
            for cid in curve:
                cr, (e, auto) = D.crossings[cid], autos[cid]
                for label, c in auto.apply_label(1 << k).terms.items():
                    accumulate(form.setdefault(label << cr.beta_index * n, {}), e,
                               -c if cr.epsilon else c)
            forms.append({bit: p for bit, p in form.items() if p})
    return forms


def _pack(exps, width):
    """Exponents as one int of balanced base-2^width digits, the first most significant;
    linear, so packed vectors add exactly while every exponent stays inside +-2^(width-1)."""
    out = 0
    for e in exps:
        out = (out << width) + e
    return out


def _unpack(packed, nvars, width):
    """The nvars exponents that _pack(..., width) sent to packed."""
    half, out = 1 << width - 1, []
    for _ in range(nvars):
        out.append((packed + half) % (half << 1) - half)
        packed = (packed - out[-1]) >> width
    return tuple(reversed(out))


def evaluate_z(D: HeegaardDatum, H, rep: Representation, opts: EvaluationOptions | None = None):
    """The invariant of the based, ordered, oriented datum over the ExteriorAlgebra H;
    exact base-ring scalar."""
    if error := validation_error(D):
        raise EvaluationError(error)
    if rep.ring != H.ring:
        raise EvaluationError("representation ring does not match the algebra ring")
    if rep.n != H.n:
        raise EvaluationError(f"algebra dimension {H.n} does not match "
                              f"representation dimension {rep.n}")
    return evaluate_valid_z(D, rep, opts)


def evaluate_valid_z(D, rep, opts=None):
    """evaluate_z of a datum its caller has validated (each entry point validates once),
    over the exterior algebra of rep's dimension and ring."""
    opts = opts or EvaluationOptions()
    if rep.num_generators < D.num_generators:
        raise EvaluationError("representation does not cover all generators")

    # the cointegral X_1...X_n of Lambda(V) has degree n
    sign_factor = opts.homology_orientation_sign if rep.n % 2 else 1
    if opts.homology_orientation_sign not in (1, -1):
        raise EvaluationError("homology orientation sign must be +1 or -1")

    forms = degree_one_forms(D, rep)
    field, nvars = rep.field, len(rep._start[0])     # nvars = 0 when rep is plain
    # no exponent of a product of one term per form reaches +-spread
    spread = 1 + sum(max((abs(x) for p in form.values() for e in p for x in e), default=0)
                     for form in forms)
    width = spread.bit_length() + 1

    # Multiply the forms on the right into a state {(packed exponent << dn) | mask: c}.
    # Form t is scaled by lam_t, the lcm of its denominators, so c is integral; within
    # a step c is the int _pack(numerator, cw), and over Q the numerator itself, since
    # _pack([a], cw) is a whatever the digit width cw; only deg > 1 sizes cw.
    dn, deg = len(forms), field.degree
    full = (1 << dn) - 1
    later = [0] * dn                        # the bits of the forms after t
    for t in range(dn - 1, 0, -1):
        later[t - 1] = later[t] | sum(forms[t])
    scale, state, cw = 1, {0: [1] + [0] * (deg - 1) if deg > 1 else 1}, 0
    for t, form in enumerate(forms):
        # (bit, exponent vector, field coefficient) of every term of the form
        ts = [(bit, e, c) for bit, p in form.items() for e, c in p.items()]
        lam = lcm(*[c.den for _, _, c in ts])
        scale *= lam
        nums = [[a * (lam // c.den) for a in c.num] for _, _, c in ts]
        if deg > 1:
            fmax = max((abs(a) for num in nums for a in num), default=0)
            cmax = max(abs(a) for c in state.values() for a in c)
            # a key takes at most one product per term, and each digit of a product
            # sums at most deg products of digits, so no digit of a sum reaches
            # +-2^(cw - 1)
            cw = (len(ts) * deg * cmax * fmax).bit_length() + 2
            state = {key: _pack(c, cw) for key, c in state.items()}
        # X_A X_b = (-1)^{#(A above b)} X_{A+b}; for disjoint A and b the key
        # of the product is the sum of the keys
        factors = [(bit, (_pack(e, width) << dn) | bit, full ^ ((bit << 1) - 1), f, -f)
                   for (bit, e, _), f in zip(ts, [_pack(num, cw) for num in nums])]
        # a state bit missing from every later form can no longer be filled
        unreachable = full & ~later[t]
        nxt = {}
        get = nxt.get
        for key, c in state.items():
            for bit, offset, above, f, neg_f in factors:
                new = key + offset
                if key & bit or ~new & unreachable:
                    continue
                nxt[new] = get(new, 0) + c * (neg_f if (key & above).bit_count() & 1 else f)
        # over a larger field each sum's 2 deg - 1 digits are reduced mod min_poly
        state = ({key: c for key, c in nxt.items() if c} if deg == 1 else
                 {key: v for key, c in nxt.items()
                  if any(v := field._reduce(list(_unpack(c, 2 * deg - 1, cw))))})
        if not state:
            break
    # after dn forms every mask is full
    top = {_unpack(key >> dn, nvars, width): _canonical(field, tuple(c) if deg > 1 else (c,), scale)
           for key, c in state.items()}
    total = rep.wrap(top)
    return -total if sign_factor < 0 else total

