"""Shared builders for the test suite."""

import random
from fractions import Fraction
from importlib import resources

from linalg_reference import minor_det

from suturekup import (
    BetaCurve,
    Crossing,
    ExteriorAlgebra,
    HeegaardDatum,
    NumberField,
    QQ,
    Word,
    abelianize,
    evaluate_z,
    presentation,
    random_datum,
)
from suturekup.diagram import ARC, CLOSED
from suturekup.kuperberg import representation_for
from suturekup.linalg import inverse_and_det


def data_path(name):
    """Path of a document shipped in suturekup/data."""
    return str(resources.files("suturekup").joinpath("data", name))


def twisted_z(D, n, rho_matrices=None, opts=None, field=None):
    """Laurent-valued invariant over the free abelianization of D's group, the
    matrices (identities when None) times their generators' homology monomials."""
    rep = representation_for(presentation(D), n, rho_matrices, field, twisted=True)
    return evaluate_z(D, ExteriorAlgebra(n, rep.ring), rep, opts)


def generator_images(rep, sign=1):
    """rep's image of g^sign over its ring, for every generator g."""
    return [rep.word_matrix(Word.generator(g, sign)) for g in range(rep.num_generators)]


def random_invertible(rng, n, field=QQ, span=3):
    """Random invertible matrix with small rational entries."""
    while True:
        m = [
            [field.from_rational(Fraction(rng.randint(-span, span), rng.randint(1, 2)))
             for _ in range(n)]
            for _ in range(n)
        ]
        if not minor_det(m, list(range(n)), list(range(n)), field).is_zero():
            return m


def homology_diag_matrices(D, n, field=QQ, seeds=(2, 3, 5, 7, 11)):
    """Commuting diagonal generator images factoring through H_1.

    These kill every relator by construction, so the basepoint and
    orientation covariances hold exactly for them.
    """
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    mats = []
    for g in range(pres.num_generators):
        img = amap.word_image(Word.generator(g))
        diag = [field.one for _ in range(n)]
        for k, e in enumerate(img):
            for i in range(n):
                lam = field.from_rational(seeds[(k * n + i) % len(seeds)])
                p = field.one
                for _ in range(abs(e)):
                    p = p * lam
                if e < 0:
                    p = p.inv()
                diag[i] = diag[i] * p
        mats.append([[diag[i] if i == j else field.zero for j in range(n)]
                     for i in range(n)])
    return mats


def trefoil_braid_sl2(field=QQ):
    """alpha -> [[1,1],[0,1]], a -> [[1,0],[-1,1]] solves the braid relation."""
    one, zero = field.one, field.zero
    alpha = [[one, one], [zero, one]]
    a = [[one, zero], [-one, one]]
    return [alpha, a]


def figure_eight_sl2():
    """The parabolic representation over Q(xi), xi^2 + xi + 1 = 0."""
    field = NumberField([1, 1, 1])
    xi = field.element([0, 1])
    one, zero = field.one, field.zero
    X = [[one, one], [zero, one]]
    Y = [[one, zero], [-xi, one]]
    return field, [inverse_and_det(X, field)[0], Y]


def dense_datum(seed, d, length):
    """d closed curves of the given length, crossing t of curve i on beta (i + t) % d,
    and one arc crossing every beta just after its basepoint, as the benchmark's
    dense shapes are laid out; signs and cyclic orders come from the seed."""
    rng = random.Random(seed)
    alphas, arc, betas, crossings = [[] for _ in range(d)], [], [], {}
    for j in range(d):
        entries = [(CLOSED, i) for i in range(d) for t in range(length) if (i + t) % d == j]
        rng.shuffle(entries)
        ids = []
        for kind, i in [(ARC, 0)] + entries:
            cid = f"c{len(crossings)}"
            crossings[cid] = Crossing(cid, kind, i, j, rng.choice((1, -1)))
            (alphas[i] if kind == CLOSED else arc).append(cid)
            ids.append(cid)
        betas.append(BetaCurve(tuple(ids), 0))
    for curve in alphas:
        rng.shuffle(curve)
    return HeegaardDatum(alphas, [arc], betas, crossings)


def acceptance_data():
    """(seed, datum, n, matrices) of acceptance criterion 3, drawn in its order."""
    rng = random.Random(20260809)
    out = []
    for k in range(50):
        n = 1 + k % 3
        D = random_datum(9000 + k, 1 + k % 2, k % 3, 6)
        out.append((9000 + k, D, n,
                    [random_invertible(rng, n) for _ in range(presentation(D).num_generators)]))
    return out
