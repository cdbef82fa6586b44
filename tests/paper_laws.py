"""The paper's transformation laws, kept as a test-only kit.

Diagram moves (basepoint moves, curve reversals, reordering), multipoints
with the basepoints they anchor and their spin^c correction, the
Fox-calculus consistency check, the exterior extension Lambda(T) with its
scalar r_H, the augmentation of a Laurent value, and the representation
transforms the laws pair with, all exercised by check_covariance_suite.  The
library evaluates through HopfAutomorphism.apply_label and
Representation.prefix_walk alone; these helpers only state what its
values must satisfy.  Former methods of HopfAutomorphism, Representation
and LaurentPoly are functions here that take the object as their first
argument, still named self.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from math import prod

from suturekup.abelian import AbelianizationMap
from suturekup.diagram import (
    CLOSED,
    BetaCurve,
    Crossing,
    FrozenRecord,
    HeegaardDatum,
    beta_letters,
    relator_word,
    subword_length,
)
from suturekup.hopf import Element, ExteriorAlgebra, HopfAutomorphism
from suturekup.kuperberg import EvaluationOptions, Representation, evaluate_z
from suturekup.laurent import LaurentPoly
from suturekup.linalg import bareiss_det, inverse_and_det, matmul
from suturekup.numberfield import FieldElement, echo
from suturekup.words import GroupRingElement, Word, fox_derivative


# -- diagram moves and multipoints -------------------------------------------


def arc_word(D: HeegaardDatum, j: int, start: int, end: int) -> Word:
    """Crossing word of the beta_j arc from edge position start to edge position end."""
    beta = D.betas[j]
    k = len(beta.crossings)
    letters = []
    pos = start % k
    while pos != end % k:
        c = D.crossings[beta.crossings[pos]]
        letters.append((D.generator_of(c), c.sign))
        pos = (pos + 1) % k
    return Word(letters)


def beta_subword(D: HeegaardDatum, crossing_id: str) -> Word:
    """Prefix of the relator before the crossing; negative crossings append g^-1."""
    letters = beta_letters(D, D.crossings[crossing_id].beta_index)
    return Word([letter for _, letter in letters[:subword_length(D, crossing_id)]])


def fox_consistency(D: HeegaardDatum) -> bool:
    """d(relator_j)/d(gen_i) must equal the signed sum of the crossing subwords."""
    for j in range(D.d):
        rel = relator_word(D, j)
        for i in range(D.num_generators):
            expected = GroupRingElement.zero()
            for cid in D.betas[j].crossings:
                c = D.crossings[cid]
                if D.generator_of(c) == i:
                    coeff = (
                        expected.field.one if c.sign == 1 else -expected.field.one
                    )
                    expected = expected + GroupRingElement.from_word(
                        beta_subword(D, cid), coeff=coeff
                    )
            if fox_derivative(rel, i) != expected:
                return False
    return True


def move_basepoint(D: HeegaardDatum, j: int, new_pos: int):
    """Move beta_j's basepoint; returns (new datum, word of the traversed arc)."""
    beta = D.betas[j]
    k = len(beta.crossings)
    if k == 0:
        return copy.deepcopy(D), Word.identity()
    word = arc_word(D, j, beta.basepoint, new_pos)
    out = copy.deepcopy(D)
    out.betas[j] = BetaCurve(beta.crossings, new_pos % k)
    return out, word


def reverse_alpha(D: HeegaardDatum, i: int) -> HeegaardDatum:
    """Reverse closed alpha_i: traversal order reverses, its crossing signs flip."""
    out = copy.deepcopy(D)
    out.alphas[i] = list(reversed(out.alphas[i]))
    on_curve = set(out.alphas[i])
    for cid in on_curve:
        c = out.crossings[cid]
        out.crossings[cid] = Crossing(c.id, c.alpha_kind, c.alpha_index,
                                      c.beta_index, -c.sign)
    return out


def reverse_beta(D: HeegaardDatum, j: int) -> HeegaardDatum:
    """Reverse beta_j keeping the basepoint at the same edge; signs flip."""
    out = copy.deepcopy(D)
    beta = out.betas[j]
    k = len(beta.crossings)
    if k:
        ordered = beta.from_basepoint()
        out.betas[j] = BetaCurve(tuple(reversed(ordered)), 0)
    for cid in beta.crossings:
        c = out.crossings[cid]
        out.crossings[cid] = Crossing(c.id, c.alpha_kind, c.alpha_index,
                                      c.beta_index, -c.sign)
    return out


def rotate_alpha_basepoint(D: HeegaardDatum, i: int, shift: int) -> HeegaardDatum:
    """Move alpha_i's basepoint past `shift` crossings (cyclic rotation)."""
    out = copy.deepcopy(D)
    curve = out.alphas[i]
    if curve:
        s = shift % len(curve)
        out.alphas[i] = curve[s:] + curve[:s]
    return out


def swap_alpha_order(D: HeegaardDatum, i: int, k: int) -> HeegaardDatum:
    """Swap closed curves i and k in the ordering (generators are renumbered)."""
    out = copy.deepcopy(D)
    out.alphas[i], out.alphas[k] = out.alphas[k], out.alphas[i]
    if out.alpha_names:
        out.alpha_names[i], out.alpha_names[k] = out.alpha_names[k], out.alpha_names[i]
    remap = {i: k, k: i}
    for cid, c in list(out.crossings.items()):
        if c.alpha_kind == CLOSED and c.alpha_index in remap:
            out.crossings[cid] = Crossing(c.id, c.alpha_kind, remap[c.alpha_index],
                                          c.beta_index, c.sign)
    return out


class Multipoint(FrozenRecord):
    """One crossing per closed alpha curve, hitting every beta exactly once."""

    __slots__ = ("crossing_ids",)

    def validate(self, D: HeegaardDatum):
        if len(self.crossing_ids) != D.d:
            raise ValueError("multipoint must pick one crossing per closed curve")
        crossings = [D.crossings[cid] for cid in self.crossing_ids]
        for c in crossings:
            if c.alpha_kind != CLOSED:
                raise ValueError(f"multipoint crossing {echo(c.id)} lies on an arc")
        if (len({c.alpha_index for c in crossings}) != D.d
                or len({c.beta_index for c in crossings}) != D.d):
            raise ValueError("multipoint must be bijective on both curve families")

    def on_beta(self, D: HeegaardDatum, j: int) -> Crossing:
        for cid in self.crossing_ids:
            c = D.crossings[cid]
            if c.beta_index == j:
                return c
        raise ValueError(f"multipoint misses beta {j}")


def enumerate_multipoints(D: HeegaardDatum, limit=None):
    """All multipoints of the diagram (bijections alpha_i -> crossing on beta_sigma(i))."""
    per_alpha = []
    for i in range(D.d):
        per_alpha.append([cid for cid in D.alphas[i]
                          if D.crossings[cid].alpha_kind == CLOSED])
    out = []

    def rec(i, used_betas, acc):
        if limit is not None and len(out) >= limit:
            return
        if i == len(per_alpha):
            out.append(Multipoint(tuple(acc)))
            return
        for cid in per_alpha[i]:
            j = D.crossings[cid].beta_index
            if j not in used_betas:
                rec(i + 1, used_betas | {j}, acc + [cid])

    rec(0, frozenset(), [])
    return out


def basepoints_from_multipoint(D: HeegaardDatum, x: Multipoint) -> HeegaardDatum:
    """Place each beta basepoint just before (positive) or after (negative) x_i."""
    x.validate(D)
    out = copy.deepcopy(D)
    for cid in x.crossing_ids:
        j = D.crossings[cid].beta_index
        beta = out.betas[j]
        new_bp = (beta.basepoint + subword_length(D, cid)) % len(beta.crossings)
        out.betas[j] = BetaCurve(beta.crossings, new_bp)
    return out


def multipoint_arc_words(D: HeegaardDatum, x: Multipoint, y: Multipoint) -> list:
    """Per beta curve, the word of its arc from the edge of x's crossing to y's."""
    x.validate(D)
    y.validate(D)
    words = []
    for j in range(D.d):
        qx, qy = (D.betas[j].basepoint + subword_length(D, m.on_beta(D, j).id) for m in (x, y))
        words.append(arc_word(D, j, qx, qy))
    return words


def epsilon_class(D: HeegaardDatum, x: Multipoint, y: Multipoint,
                  h: AbelianizationMap):
    """Sum over beta curves of h(word of the arc from q(x) to q(y)).

    This is the relative class attached to the ordered pair (y, x); it is
    antisymmetric in its arguments and additive along chains of multipoints.
    """
    images = [h.word_image(word) for word in multipoint_arc_words(D, x, y)]
    return tuple(map(sum, zip([0] * h.rank, *images)))


def spinc_correction(D: HeegaardDatum, x: Multipoint, y: Multipoint,
                     rep: Representation):
    """Unit relating the evaluations anchored at two multipoints.

    The product over beta curves of r_H(rho(arc word from q(x) to q(y))); the
    evaluation with basepoints from x equals this factor times the evaluation
    with basepoints from y.
    """
    return prod((r_of_word(rep, w) for w in multipoint_arc_words(D, x, y)), start=rep.ring.one)


def augmentation(self: LaurentPoly) -> FieldElement:
    """Sum of all coefficients (the ring map sending every variable to 1)."""
    return sum(self.terms.values(), self.ring.field.zero)


# -- exterior automorphisms --------------------------------------------------


def super_permutation_sign(degrees, perm) -> int:
    """Koszul sign of reordering homogeneous tensor factors.

    degrees[i] is the degree of source slot i; perm[t] is the source slot
    placed at target position t.  The sign is the product of (-1)^{|a||b|}
    over source pairs that swap their relative order.
    """
    sign = 1
    for t1 in range(len(perm)):
        d1 = degrees[perm[t1]]
        if d1 % 2 == 0:
            continue
        for t2 in range(t1 + 1, len(perm)):
            if perm[t1] > perm[t2] and degrees[perm[t2]] % 2:
                sign = -sign
    return sign


def lambda_extend(T, algebra: ExteriorAlgebra) -> HopfAutomorphism:
    """Multiplicative extension of an invertible n x n matrix to Lambda(V).

    Over a Laurent base ring the determinant must be a unit (+- monomial).
    """
    n = algebra.n
    if len(T) != n or any(len(row) != n for row in T):
        raise ValueError("matrix size does not match the exterior dimension")
    d = bareiss_det(T, algebra.ring)
    if d.is_zero():
        raise ValueError("singular matrix cannot extend to an automorphism")
    if not d.is_monomial():
        raise ValueError("determinant is not a unit of the Laurent ring")
    return HopfAutomorphism(algebra, [list(row) for row in T])


def r_of(phi: HopfAutomorphism):
    """The scalar r with phi(cointegral) = r * cointegral."""
    H = phi.algebra
    c = H.cointegral()
    img = apply(phi, c)
    (label, coeff), = c.terms.items()
    extra = {l: v for l, v in img.terms.items() if l != label}
    if extra:
        raise ValueError("input does not scale the cointegral; not an automorphism")
    got = img.terms.get(label)
    if got is None:
        raise ValueError("automorphism kills the cointegral")
    if coeff == H.ring.one:
        return got
    # generic cointegral stored with a non-unit anchor coefficient
    return got * coeff.inv_unit()


def apply(self, e: Element) -> Element:
    out = Element(self.algebra, {})
    for l, c in e.terms.items():
        out = out + self.apply_label(l).scale(c)
    return out


def compose(self, other: "HopfAutomorphism") -> "HopfAutomorphism":
    """self after other."""
    return HopfAutomorphism(self.algebra, matmul(self.matrix, other.matrix, self.algebra.ring))


def is_identity(self) -> bool:
    one = self.algebra.ring.one
    for l in self.algebra.labels:
        img = self.apply_label(l)
        if img.terms != {l: one}:
            return False
    return True


# -- representation transforms -----------------------------------------------


def automorphism(self, w: Word, algebra: ExteriorAlgebra) -> HopfAutomorphism:
    return HopfAutomorphism(algebra, self.word_matrix(w))


def r_of_word(self, w: Word):
    """Determinant of the word's image (the value of r_H on the automorphism)."""
    return bareiss_det(self.word_matrix(w), self.ring)


def _parts(self):
    """The exponent vector and field matrix of every generator of self."""
    return [self._images[g, 1] for g in range(self.num_generators)]


def _rebuilt(self, parts):
    """A representation like self with the given (exponent vector, field matrix) parts."""
    mats = [m for _, m in parts]
    if self.ring is self.field:
        return Representation(self.field, self.n, mats)
    amap = AbelianizationMap(len(parts), self.ring.nvars, [e for e, _ in parts], [])
    return Representation.twisted(mats, amap, self.n, self.field)


def conjugated(self, phi):
    """g -> phi rho(g) phi^-1, for phi invertible over the field of self's ring."""
    field = self.field
    phi_inv, _ = inverse_and_det(phi, field)
    return _rebuilt(self, [(e, matmul(matmul(phi, m, field), phi_inv, field))
                           for e, m in _parts(self)])


def with_generator_inverted(self, g):
    parts = _parts(self)
    parts[g] = self._images[g, -1]
    return _rebuilt(self, parts)


def with_swapped(self, i, k):
    parts = _parts(self)
    parts[i], parts[k] = parts[k], parts[i]
    return _rebuilt(self, parts)


# -- the covariance suite -----------------------------------------------------


@dataclass
class CovarianceReport:
    checks: list = field(default_factory=list)

    def record(self, name, ok):
        self.checks.append((name, bool(ok)))

    @property
    def all_passed(self):
        return all(ok for _, ok in self.checks)

    def failures(self):
        return [name for name, ok in self.checks if not ok]


def check_covariance_suite(D: HeegaardDatum, H: ExteriorAlgebra,
                           rep: Representation,
                           opts: EvaluationOptions | None = None,
                           conjugator=None) -> CovarianceReport:
    """Exercise the transformation laws of the invariant on one datum.

    Reversing a curve orientation is an odd change of the sign-ordering, so
    those checks compare against the evaluation with the orientation sign
    flipped; with that convention the stated factors hold verbatim.
    """
    opts = opts or EvaluationOptions()
    report = CovarianceReport()
    base = evaluate_z(D, H, rep, opts)

    for j in range(D.d):
        k = len(D.betas[j].crossings)
        if k == 0:
            continue
        new_pos = (D.betas[j].basepoint + 1) % k
        moved, word = move_basepoint(D, j, new_pos)
        lhs = base
        rhs = r_of_word(rep, word) * evaluate_z(moved, H, rep, opts)
        report.record(f"basepoint move on beta {j}", lhs == rhs)

    for i in range(D.d):
        flipped = reverse_alpha(D, i)
        rep2 = with_generator_inverted(rep, i)
        lhs = evaluate_z(flipped, H, rep2, opts.flipped())
        rhs = bareiss_det(rep.word_matrix(Word.generator(i)), rep.ring) * base
        report.record(f"alpha reversal on curve {i}", lhs == rhs)

    for j in range(D.d):
        flipped = reverse_beta(D, j)
        lhs = evaluate_z(flipped, H, rep, opts.flipped())
        report.record(f"beta reversal on curve {j}", lhs == base)

    if conjugator is not None:
        rep2 = conjugated(rep, conjugator)
        report.record("conjugation invariance",
                      evaluate_z(D, H, rep2, opts) == base)

    for i in range(D.d):
        if len(D.alphas[i]) > 1:
            rotated = rotate_alpha_basepoint(D, i, 1)
            report.record(f"alpha basepoint rotation on curve {i}",
                          evaluate_z(rotated, H, rep, opts) == base)
            break

    if D.d >= 2:
        swapped = swap_alpha_order(D, 0, 1)
        rep2 = with_swapped(rep, 0, 1)
        lhs = evaluate_z(swapped, H, rep2, opts)
        rhs = -base if H.cointegral().degree() % 2 else base
        report.record("ordering swap of two closed curves", lhs == rhs)
    return report
