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
subwords only.  All arithmetic is exact over the base ring.

Over the supercommutative exterior algebra every map above is an even
superalgebra morphism, so the evaluator multiplies d*n degree-one forms, one
per generator of each closed curve, into a sparse state of at most 2^{dn}
exterior monomials instead of summing the prod_i L_i^n coproduct terms.
"""

from __future__ import annotations

import copy

from .abelian import abelianize
from .diagram import (
    CLOSED,
    HeegaardDatum,
    Record,
    beta_letters,
    presentation,
    subword_length,
    validate,
)
from .hopf import ExteriorAlgebra, HopfAutomorphism
from .laurent import LaurentRing
from .linalg import SingularMatrix, bareiss_det, identity, inverse_and_det, matmul, transpose
from .numberfield import QQ, accumulate, echo
from .words import Word


class EvaluationError(ValueError):
    pass


class SingularRepresentationError(EvaluationError):
    """A generator's matrix is not invertible over the representation's ring.

    ``generator`` is the generator's index; a caller that knows the
    generator names sets ``name`` to have the message use it.
    """

    def __init__(self, generator, determinant):
        super().__init__(generator, determinant)
        self.generator = generator
        self.determinant = determinant
        self.name = None

    def __str__(self):
        label = repr(self.name) if self.name is not None else str(self.generator)
        return (f"representation matrix of generator {label} is not invertible "
                f"(determinant {self.determinant})")


class EvaluationOptions(Record):
    __slots__ = ("homology_orientation_sign",)
    _defaults = {"homology_orientation_sign": 1}

    def flipped(self) -> "EvaluationOptions":
        return EvaluationOptions(-self.homology_orientation_sign)


def _inverse(matrix, ring, generator):
    """Inverse of a generator's matrix; raises when it has none."""
    try:
        return inverse_and_det(matrix, ring)[0]
    except SingularMatrix:
        raise SingularRepresentationError(generator, bareiss_det(matrix, ring)) from None


def _check_shape(matrix, n, ring):
    """matrix, checked to be n x n with every entry over ring; EvaluationError if not."""
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise EvaluationError("representation matrix has the wrong size")
    # a Laurent polynomial carries its ring, a field element its field
    attr = "ring" if isinstance(ring, LaurentRing) else "field"
    for row in matrix:
        for entry in row:
            if (parent := getattr(entry, attr, None)) is not ring and parent != ring:
                raise EvaluationError(f"matrix entry {echo(entry)} is over {echo(parent)}, "
                                      f"not {echo(ring)}")


def _entry_field(matrices):
    """The field of the first matrix entry; QQ when there is none."""
    return next((getattr(e, "field", QQ) for m in matrices or () for row in m for e in row), QQ)


class Representation:
    """Assignment of an invertible matrix (hence a Hopf automorphism of an
    exterior algebra) to every presentation generator.

    Callers that already know the inverses pass them in; otherwise they are
    computed.
    """

    def __init__(self, ring, n, matrices, inverses=None):
        self.ring = ring
        self.n = n
        self.matrices = [[list(row) for row in m] for m in matrices]
        self.identity = identity(n, ring)
        for m in self.matrices:
            _check_shape(m, n, ring)
        if inverses is None:
            inverses = [_inverse(m, ring, g) for g, m in enumerate(self.matrices)]
        self.inverses = list(inverses)

    @classmethod
    def trivial(cls, num_generators, n, ring=None):
        ring = ring if ring is not None else QQ
        idents = [identity(n, ring)] * num_generators
        return cls(ring, n, idents, idents)

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
        ring = LaurentRing(field, abelianization.rank)
        ident = identity(n, field)
        mats, inverses = [], []
        for g in range(abelianization.num_generators):
            m = ident if field_matrices is None else field_matrices[g]
            _check_shape(m, n, field)
            inv = ident if m is ident else _inverse(m, field, g)
            exps = abelianization.gen_images[g]
            neg = tuple(-e for e in exps)
            mats.append([[ring.monomial(exps, c) for c in row] for row in m])
            inverses.append([[ring.monomial(neg, c) for c in row] for row in inv])
        return cls(ring, n, mats, inverses)

    @property
    def num_generators(self):
        return len(self.matrices)

    def prefix_matrices(self, letters):
        """Images of every prefix of the (gen, sign) letters, the empty one first."""
        out = [self.identity]
        for g, e in letters:
            m = self.matrices[g] if e == 1 else self.inverses[g]
            out.append(m if len(out) == 1 else matmul(out[-1], m, self.ring))
        return out

    def word_matrix(self, w: Word):
        return self.prefix_matrices(w.letters)[-1]

    def inverse_transpose(self):
        """The representation g -> (rho(g)^-1)^T, from the known inverses.

        Its image of a word w is the transpose of rho(w)^-1, so the torsion
        convention's rho(sigma(w)) = rho(w)^-1 is read as a transpose of it.
        Matrices and inverses swap places, so nothing is inverted again.
        """
        out = copy.copy(self)
        out.matrices = [transpose(inv) for inv in self.inverses]
        out.inverses = [transpose(m) for m in self.matrices]
        return out

    def apply_to_groupring(self, e):
        """Image of a group-ring element as an n x n matrix over the base ring.

        Each word is multiplied out from scratch.  This is the reference
        route that the tests and the benchmark's oracles use; the Fox block
        of the torsion and the crosscheck comes from prefix walks instead.
        """
        n = self.n
        out = [[self.ring.zero] * n for _ in range(n)]
        for w, c in e.terms.items():
            m = self.word_matrix(w)
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
    if n is None:
        n = len(rho_matrices[0]) if rho_matrices else 1
    field = field if field is not None else _entry_field(rho_matrices)
    try:
        if twisted:
            if amap is None:
                amap = abelianize(pres.num_generators, pres.relators)
            return Representation.twisted(rho_matrices, amap, n, field)
        if rho_matrices is None:
            return Representation.trivial(pres.num_generators, n, field)
        return Representation(field, n, rho_matrices)
    except SingularRepresentationError as exc:
        exc.name = pres.generator_names()[exc.generator]
        raise


def evaluate_z(D: HeegaardDatum, H: ExteriorAlgebra, rep: Representation,
               opts: EvaluationOptions | None = None):
    """The invariant of the based, ordered, oriented datum; exact base-ring scalar."""
    opts = opts or EvaluationOptions()
    report = validate(D)
    if not report.valid:
        raise EvaluationError("invalid diagram: " + "; ".join(report.errors))
    if rep.num_generators < D.num_generators:
        raise EvaluationError("representation does not cover all generators")
    ring = H.ring
    if rep.ring != ring:
        raise EvaluationError("representation ring does not match the algebra ring")

    c_deg = H.cointegral_degree()
    sign_factor = opts.homology_orientation_sign if c_deg % 2 else 1
    if opts.homology_orientation_sign not in (1, -1):
        raise EvaluationError("homology orientation sign must be +1 or -1")

    # Every map in the contraction is an even superalgebra morphism of the
    # supercommutative Lambda(V), and c^{(x)d} is the ordered product of the
    # generators X_k^{(i)}.  So Z is the top coefficient, in Lambda(V^{+d}),
    # of the ordered product of the degree-one forms
    #   Phi(X_k^{(i)}) = sum_{x on alpha_i} (-1)^{eps_x} rho(subword_x) X_k
    # placed on beta(x); X_r on beta j is the bit j*n + r.  Delta^L of the
    # primitive X_k puts X_k in one slot with sign +1, and Lambda(T) sends
    # X_k to column k of T, so each form reads column k of every rho(subword_x).
    n = H.n
    # rho(subword_x) for each closed crossing x, from one prefix walk per beta
    autos = {}
    for j in range(D.d):
        letters = beta_letters(D, j)
        ends = {c.id: subword_length(D, c.id) for c, _ in letters if c.alpha_kind == CLOSED}
        walk = letters[:max(ends.values(), default=0)]
        prefixes = rep.prefix_matrices([letter for _, letter in walk])
        for cid, end in ends.items():
            autos[cid] = HopfAutomorphism(H, matrix=prefixes[end])
    forms = []
    for curve in D.alphas:
        for k in range(n):
            form = {}
            for cid in curve:
                cr = D.crossings[cid]
                shift = cr.beta_index * n
                for label, c in autos[cid].apply_label(1 << k).terms.items():
                    accumulate(form, label << shift, -c if cr.epsilon else c)
            forms.append(form)

    # multiply the forms on the right into a sparse {mask: coeff} state; a
    # state bit missing from every later form can no longer be filled
    full = (1 << D.d * n) - 1
    pending = [0] * (len(forms) + 1)
    for t in range(len(forms) - 1, -1, -1):
        pending[t] = pending[t + 1]
        for bit in forms[t]:
            pending[t] |= bit
    state = {0: ring.one}
    for t, form in enumerate(forms):
        # X_A X_b = (-1)^{#(A above b)} X_{A+b}
        factors = [(bit, full ^ ((bit << 1) - 1), f, -f) for bit, f in form.items()]
        unreachable = full & ~pending[t + 1]
        # the (coefficient, +-factor) pairs landing on each mask, summed by
        # one ring.dot per mask
        groups = {}
        for mask, c in state.items():
            for bit, above, f, neg_f in factors:
                key = mask | bit
                if mask & bit or ~key & unreachable:
                    continue
                pairs = groups.get(key)
                if pairs is None:
                    pairs = groups[key] = ([], [])
                pairs[0].append(c)
                pairs[1].append(neg_f if (mask & above).bit_count() & 1 else f)
        state = {key: c for key, (cs, fs) in groups.items() if (c := ring.dot(cs, fs))}
        if not state:
            return ring.zero
    total = state.get(full, ring.zero)
    return -total if sign_factor < 0 else total


def evaluate_z_twisted(D: HeegaardDatum, n: int, rho_matrices=None,
                       opts: EvaluationOptions | None = None, field=None):
    """Laurent-valued invariant over the free abelianization of the diagram group.

    The untwisted matrices (identity when None) are scaled by the monomial of
    each generator's homology class; callers compare results up to units via
    laurent.normalize_unit.
    """
    rep = representation_for(presentation(D), n, rho_matrices, field, twisted=True)
    return evaluate_z(D, ExteriorAlgebra(n, rep.ring), rep, opts)

