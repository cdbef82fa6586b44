"""The literal contraction enumerator, kept as a test-only reference.

It expands Delta^{|alpha_i|}(c) along every closed curve and sums over all
prod_i L_i^n combinations of coproduct terms, applying the slot maps, the
Koszul reorder and the beta multiplications term by term.  Exponential in the
curve lengths, so only small data go through it; the library evaluates the
same contraction as a product of degree-one forms.
"""

from __future__ import annotations

import itertools

from paper_laws import automorphism, beta_subword, super_permutation_sign

from suturekup.diagram import CLOSED, HeegaardDatum, validate
from suturekup.hopf import ExteriorAlgebra
from suturekup.kuperberg import EvaluationError, EvaluationOptions, Representation


def reference_evaluate_z(D: HeegaardDatum, H: ExteriorAlgebra,
                         rep: Representation,
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

    c_deg = H.cointegral().degree()
    sign_factor = opts.homology_orientation_sign if c_deg % 2 else 1
    if opts.homology_orientation_sign not in (1, -1):
        raise EvaluationError("homology orientation sign must be +1 or -1")

    d = D.d
    if d == 0:
        out = ring.one
        return -out if sign_factor < 0 else out

    # tensor slots: crossings on closed curves, in traversal order
    alpha_slots = []
    slot_pos = {}
    for i, curve in enumerate(D.alphas):
        for cid in curve:
            slot_pos[cid] = len(alpha_slots)
            alpha_slots.append(cid)
    beta_order = []
    for j, beta in enumerate(D.betas):
        group = [cid for cid in beta.from_basepoint()
                 if D.crossings[cid].alpha_kind == CLOSED]
        beta_order.append(group)
    perm = [slot_pos[cid] for group in beta_order for cid in group]
    if sorted(perm) != list(range(len(alpha_slots))):
        raise EvaluationError("slot bookkeeping mismatch between curve families")

    # composite slot maps rho(subword_x) o S^{eps_x}, cached per basis label
    slot_maps = []
    for cid in alpha_slots:
        cr = D.crossings[cid]
        auto = automorphism(rep, beta_subword(D, cid), H)
        slot_maps.append(_SlotMap(H, auto, cr.epsilon))

    # Delta expansion per closed curve
    c = H.cointegral()
    per_alpha = []
    for curve in D.alphas:
        expansion = H.iterated_coproduct(c, len(curve))
        items = sorted(expansion.terms.items())
        per_alpha.append(items)

    group_sizes = [len(g) for g in beta_order]

    def eval_term(combo):
        coeff = ring.one
        labels = []
        for part, cf in combo:
            labels.extend(part)
            coeff = coeff * cf
        degrees = [H.degree(l) for l in labels]
        if sum(degrees) != d * H.n:
            raise AssertionError("degree conservation violated in contraction")
        sign = super_permutation_sign(degrees, perm)
        total = coeff if sign > 0 else -coeff
        pos = 0
        for j in range(d):
            value = H.unit_element()
            for t in range(pos, pos + group_sizes[j]):
                s = perm[t]
                value = value * slot_maps[s].image(labels[s])
                if value.is_zero():
                    break
            pos += group_sizes[j]
            scalar = H.integral_of(value)
            if scalar.is_zero():
                return ring.zero
            total = total * scalar
        return total

    total = ring.zero
    for combo in itertools.product(*per_alpha):
        total = total + eval_term(combo)
    return -total if sign_factor < 0 else total


class _SlotMap:
    __slots__ = ("algebra", "auto", "eps", "_cache")

    def __init__(self, algebra, auto, eps):
        self.algebra = algebra
        self.auto = auto
        self.eps = eps
        self._cache = {}

    def image(self, label):
        img = self._cache.get(label)
        if img is None:
            img = self.auto.apply_label(label)
            if self.eps and self.algebra.degree(label) % 2:
                img = -img
            self._cache[label] = img
        return img
