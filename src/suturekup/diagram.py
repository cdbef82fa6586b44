"""Combinatorial ordered, oriented, based extended sutured Heegaard diagrams.

A datum consists of d closed alpha curves and l alpha arcs, each an ordered
list of crossing ids (traversal order from the curve's basepoint), and d beta
curves given as cyclic crossing lists with a basepoint index ("the basepoint
precedes this entry") and a sign for every crossing.  Generator i of the
induced presentation is the dual of closed curve i for i < d and of arc i - d
otherwise.

Geometric validity (curves bounding disks, boundary-touching complements) is
not checkable from crossing data and is trusted.
"""

from __future__ import annotations

from .numberfield import echo
from .words import Word

CLOSED = "closed"
ARC = "arc"


class Record:
    """A value record whose fields are its __slots__, in order.

    Fields come by position or keyword, a missing one from _defaults (a list
    is copied).  Records equal only same-class records with equal fields and
    print like dataclasses; a FrozenRecord also hashes and refuses assignment.
    """

    __slots__ = ()
    _defaults = {}
    __hash__ = None

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            given = {k: list(v) if type(v) is list else v for k, v in self._defaults.items()}
            given = dict(given, **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class Crossing(FrozenRecord):
    # alpha_kind is CLOSED or ARC, alpha_index indexes the closed list or the
    # arc list, and sign is +1 or -1
    __slots__ = ("id", "alpha_kind", "alpha_index", "beta_index", "sign")

    @property
    def epsilon(self) -> int:
        return 0 if self.sign == 1 else 1


class BetaCurve(FrozenRecord):
    # crossings is the cyclic order of crossing ids; the basepoint sits just
    # before position basepoint
    __slots__ = ("crossings", "basepoint")
    _defaults = {"basepoint": 0}

    def from_basepoint(self):
        k = len(self.crossings)
        if k == 0:
            return ()
        b = self.basepoint % k
        return self.crossings[b:] + self.crossings[:b]


class HeegaardDatum(Record):
    # alphas and arcs: a list of crossing ids per curve; betas: BetaCurves;
    # crossings: id -> Crossing
    __slots__ = ("alphas", "arcs", "betas", "crossings", "alpha_names", "arc_names")
    _defaults = {"alpha_names": [], "arc_names": []}

    @property
    def d(self) -> int:
        return len(self.alphas)

    @property
    def l(self) -> int:
        return len(self.arcs)

    @property
    def num_generators(self) -> int:
        return self.d + self.l

    def generator_names(self):
        names = list(self.alpha_names) or [f"alpha{i + 1}" for i in range(self.d)]
        anames = list(self.arc_names) or [f"a{i + 1}" for i in range(self.l)]
        return names + anames

    def generator_of(self, crossing: Crossing) -> int:
        if crossing.alpha_kind == CLOSED:
            return crossing.alpha_index
        return self.d + crossing.alpha_index


class Presentation(Record):
    __slots__ = ("num_generators", "closed_count", "relators", "names")  # relators: Words
    _defaults = {"names": []}

    def generator_names(self):
        if self.names:
            return list(self.names)
        return [f"g{i + 1}" for i in range(self.num_generators)]


class ValidationReport:
    def __init__(self):
        self.errors = []

    def error(self, message):
        self.errors.append(message)

    @property
    def valid(self):
        return not self.errors


def validate(D: HeegaardDatum) -> ValidationReport:
    report = ValidationReport()
    if len(D.betas) != D.d:
        report.error(f"unbalanced diagram: {D.d} closed alpha curves, {len(D.betas)} beta curves")
    seen_alpha = {}
    for kind, curves in ((CLOSED, D.alphas), (ARC, D.arcs)):
        for idx, curve in enumerate(curves):
            for cid in curve:
                if cid in seen_alpha:
                    report.error(f"crossing {echo(cid)} listed twice on the alpha side")
                seen_alpha[cid] = (kind, idx)
    seen_beta = {}
    for j, beta in enumerate(D.betas):
        for cid in beta.crossings:
            if cid in seen_beta:
                report.error(f"crossing {echo(cid)} listed twice on the beta side")
            seen_beta[cid] = j
    if set(seen_alpha) != set(seen_beta):
        only_a = sorted(set(seen_alpha) - set(seen_beta))
        only_b = sorted(set(seen_beta) - set(seen_alpha))
        if only_a:
            report.error(f"crossings missing on the beta side: {echo(only_a)}")
        if only_b:
            report.error(f"crossings missing on the alpha side: {echo(only_b)}")
    if set(D.crossings) != set(seen_alpha) | set(seen_beta):
        report.error("crossing table does not match the curve lists")
    for cid, c in D.crossings.items():
        ref = seen_alpha.get(cid)
        if ref is not None and ref != (c.alpha_kind, c.alpha_index):
            report.error(f"crossing {echo(cid)} has inconsistent alpha reference")
        bref = seen_beta.get(cid)
        if bref is not None and bref != c.beta_index:
            report.error(f"crossing {echo(cid)} has inconsistent beta reference")
        if c.sign not in (1, -1):
            report.error(f"crossing {echo(cid)} has sign {echo(c.sign)}")
    for j, beta in enumerate(D.betas):
        if beta.crossings and not 0 <= beta.basepoint < len(beta.crossings):
            report.error(f"beta {j} basepoint index out of range")
    return report


def validation_error(D: HeegaardDatum):
    """"invalid diagram: " and every error validate(D) finds, or None for a valid D."""
    errors = validate(D).errors
    return "invalid diagram: " + "; ".join(errors) if errors else None


def beta_letters(D: HeegaardDatum, j: int) -> list:
    """(crossing, (gen, sign)) along beta_j from its basepoint, unreduced."""
    out = []
    for cid in D.betas[j].from_basepoint():
        c = D.crossings[cid]
        out.append((c, (D.generator_of(c), c.sign)))
    return out


def subword_length(D: HeegaardDatum, crossing_id: str) -> int:
    """Number of beta letters in the crossing's subword.

    The subword ends at the crossing's edge: just before a positive
    crossing, just after a negative one (whose letter it then ends with).
    """
    c = D.crossings[crossing_id]
    beta = D.betas[c.beta_index]
    pos = beta.crossings.index(crossing_id)
    return (pos - beta.basepoint) % len(beta.crossings) + (c.sign == -1)


def relator_word(D: HeegaardDatum, j: int) -> Word:
    """Word read along beta_j from its basepoint: one letter (gen)^sign per crossing."""
    return Word([letter for _, letter in beta_letters(D, j)])


def presentation(D: HeegaardDatum) -> Presentation:
    return Presentation(
        D.num_generators,
        D.d,
        [relator_word(D, j) for j in range(D.d)],
        D.generator_names(),
    )


def random_datum(seed: int, d: int, l: int, max_crossings: int) -> HeegaardDatum:
    """Deterministic pseudo-random valid datum for property tests."""
    import random
    rng = random.Random(seed)
    alphas = [[] for _ in range(d)]
    arcs = [[] for _ in range(l)]
    betas = []
    crossings = {}
    counter = 0
    for j in range(d):
        k = rng.randint(1, max_crossings)
        ids = []
        for _ in range(k):
            cid = f"c{counter}"
            counter += 1
            if l and rng.random() < 0.3:
                kind, idx = ARC, rng.randrange(l)
                arcs[idx].append(cid)
            else:
                kind, idx = CLOSED, rng.randrange(d)
                alphas[idx].append(cid)
            sign = rng.choice((1, -1))
            crossings[cid] = Crossing(cid, kind, idx, j, sign)
            ids.append(cid)
        betas.append(BetaCurve(tuple(ids), rng.randrange(k)))
    for curve in alphas:
        rng.shuffle(curve)
    for curve in arcs:
        rng.shuffle(curve)
    return HeegaardDatum(alphas, arcs, betas, crossings)
