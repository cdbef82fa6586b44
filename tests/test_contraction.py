"""The factorized contraction against the literal enumerator and the Fox side.

Three independent values are compared exactly, printed form included: the
library's product of degree-one forms, the term-by-term enumerator kept in
contraction_reference, and the Bareiss determinant of the Fox block that
crosscheck computes.
"""

import random

import pytest
from conftest import data_path, figure_eight_sl2, random_invertible
from contraction_reference import reference_evaluate_z

from suturekup import (
    QQ,
    EvaluationOptions,
    ExteriorAlgebra,
    Representation,
    abelianize,
    evaluate_z,
    presentation,
    random_datum,
)
from suturekup import linalg
from suturekup.diagram import CLOSED
from suturekup.files import load_diagram
from suturekup.torsion import crosscheck


def _nondegenerate_seeds(base, d, l, max_crossings, count, min_length=1):
    """Seeds from base on whose datum puts at least min_length crossings on
    every closed alpha and a closed crossing on every beta."""
    found = []
    seed = base
    while len(found) < count:
        D = random_datum(seed, d, l, max_crossings)
        on_beta = {c.beta_index for c in D.crossings.values() if c.alpha_kind == CLOSED}
        if min(map(len, D.alphas)) >= min_length and on_beta == set(range(d)):
            found.append(seed)
        seed += 1
    return found


# (seed, d, arcs, max crossings per beta, n): small enough for the enumerator
SMALL_DATA = [
    (seed, d, l, max_crossings, n)
    for d, l, max_crossings in ((1, 1, 6), (2, 2, 4), (3, 1, 3))
    for n in (1, 2, 3)
    for seed in _nondegenerate_seeds(7100 + 10 * d + n, d, l, max_crossings, 2)
]


def _rep(D, n, mats, twisted):
    pres = presentation(D)
    if twisted:
        amap = abelianize(pres.num_generators, pres.relators)
        return Representation.twisted(mats, amap, n)
    if mats is None:
        return Representation.trivial(pres.num_generators, n)
    return Representation(QQ, n, mats)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("rho", ["identity", "random"])
@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("seed,d,l,max_crossings,n", SMALL_DATA)
def test_factorized_matches_reference_and_fox(seed, d, l, max_crossings, n,
                                              twisted, rho, sign):
    D = random_datum(seed, d, l, max_crossings)
    rng = random.Random(seed)
    mats = None
    if rho == "random":
        mats = [random_invertible(rng, n) for _ in range(D.num_generators)]
    rep = _rep(D, n, mats, twisted)
    H = ExteriorAlgebra(n, rep.ring)
    opts = EvaluationOptions(homology_orientation_sign=sign)

    z = evaluate_z(D, H, rep, opts)
    ref = reference_evaluate_z(D, H, rep, opts)
    det = crosscheck(D, n, mats, twisted=twisted).det_value
    expected = -det if sign < 0 and n % 2 else det
    assert z == ref == expected
    assert str(z) == str(ref) == str(expected)


@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("seed", _nondegenerate_seeds(9600, 3, 1, 6, 3, min_length=3))
def test_crosscheck_d3_n4(seed, twisted):
    # at least 3^12 coproduct terms: out of the enumerator's reach
    D = random_datum(seed, 3, 1, 6)
    rng = random.Random(seed)
    mats = [random_invertible(rng, 4) for _ in range(D.num_generators)]
    report = crosscheck(D, 4, mats, twisted=twisted)
    assert report.passed
    assert not report.z_value.is_zero()


# d = 3 data on which every closed alpha crosses every beta, so every form
# touches every beta's bits and many paths reach each contraction-state mask
DENSE_SEEDS = [10348, 10518, 11269, 13064]


def test_crosscheck_dense_incidence():
    nonzero = 0
    for seed in DENSE_SEEDS:
        D = random_datum(seed, 3, 1, 6)
        assert {(c.alpha_index, c.beta_index) for c in D.crossings.values()
                if c.alpha_kind == CLOSED} == {(i, j) for i in range(3) for j in range(3)}
        rng = random.Random(seed)
        mats = [random_invertible(rng, 3) for _ in range(D.num_generators)]
        for twisted in (False, True):
            report = crosscheck(D, 3, mats, twisted=twisted)
            assert report.z_value == report.det_value
            nonzero += not report.z_value.is_zero()
    assert nonzero


def test_contraction_calls_no_determinant(monkeypatch):
    # the contraction must stay independent of the elimination the Fox side
    # uses, or crosscheck would compare a routine with itself; it reads its
    # forms from matrix columns and expands no coproduct either
    field, mats = figure_eight_sl2()
    D = load_diagram(data_path("figure8.json"))
    pres = presentation(D)
    rep = Representation.twisted(mats, abelianize(pres.num_generators, pres.relators),
                                 2, field)
    H = ExteriorAlgebra(2, rep.ring)
    want = evaluate_z(D, H, rep)

    def refuse(*args):
        raise AssertionError("the contraction called a determinant routine")

    def no_expansion(*args):
        raise AssertionError("the contraction expanded a coproduct")

    monkeypatch.setattr(linalg, "_bareiss", refuse)
    monkeypatch.setattr("suturekup.kuperberg.inverse_and_det", refuse)
    monkeypatch.setattr(ExteriorAlgebra, "iterated_coproduct", no_expansion)
    got = evaluate_z(D, H, rep)
    assert got == want and str(got) == "1 - 6*t + 10*t^2 - 6*t^3 + t^4"
