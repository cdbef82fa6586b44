import random
from types import SimpleNamespace

import pytest
from algebra_doubles import GroupAlgebra, TableHopfSuperAlgebra
from conftest import random_invertible
from linalg_reference import minor_det, minor_image
from paper_laws import apply, compose, lambda_extend, r_of, super_permutation_sign

from suturekup import (
    ExteriorAlgebra,
    LaurentRing,
    NumberField,
    QQ,
    verify_axioms,
)
from suturekup.hopf import Element, HopfAutomorphism
from suturekup.linalg import matmul


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exterior_axioms_pass(n):
    report = verify_axioms(ExteriorAlgebra(n))
    assert report.all_passed, report.lines()


def test_group_algebra_axioms_pass():
    assert verify_axioms(GroupAlgebra.cyclic(4)).all_passed
    assert verify_axioms(GroupAlgebra.cyclic(1)).all_passed
    # noncommutative: the two-sided (co)integral equations still hold
    assert verify_axioms(GroupAlgebra.symmetric(3)).all_passed


def _exterior_tables(n):
    H = ExteriorAlgebra(n)
    degrees = {l: H.degree(l) for l in H.labels}
    mult = {(a, b): H.mult(a, b).terms for a in H.labels for b in H.labels}
    comult = {a: H.comult(a) for a in H.labels}
    counit = {a: H.counit(a) for a in H.labels}
    antipode = {a: H.antipode(a).terms for a in H.labels}
    return H, degrees, mult, comult, counit, antipode


def test_broken_antipode_fails_verifier():
    H, degrees, mult, comult, counit, antipode = _exterior_tables(1)
    identity_s = {a: {a: QQ.one} for a in H.labels}
    broken = TableHopfSuperAlgebra(
        QQ, degrees, mult, comult, {0: QQ.one}, counit, identity_s,
        H.cointegral().terms, {a: H.integral(a) for a in H.labels},
    )
    report = verify_axioms(broken)
    names = [name for name, ok, _ in report.checks if not ok]
    assert "antipode axiom" in names


def test_wrong_cointegral_fails_verifier():
    H, degrees, mult, comult, counit, antipode = _exterior_tables(2)
    broken = TableHopfSuperAlgebra(
        QQ, degrees, mult, comult, {0: QQ.one}, counit, antipode,
        {0b01: QQ.one},                      # X1 instead of X1X2
        {a: H.integral(a) for a in H.labels},
    )
    report = verify_axioms(broken)
    names = [name for name, ok, _ in report.checks if not ok]
    assert "two-sided cointegral equation" in names


def test_product_examples():
    H = ExteriorAlgebra(2)
    x1, x2 = H.basis_element(0b01), H.basis_element(0b10)
    x12 = H.basis_element(0b11)
    assert x1 * x2 == x12
    assert x2 * x1 == -x12
    assert (x1 * x1).is_zero()
    assert H.unit_element() * x1 == x1


def test_iterated_coproduct_examples():
    H = ExteriorAlgebra(2)
    v = H.basis_element(0b01)
    dv = H.iterated_coproduct(v, 2)
    assert dv.terms == {(0, 0b01): QQ.one, (0b01, 0): QQ.one}
    # counit kills positive degree
    assert H.iterated_coproduct(H.cointegral(), 0).terms in ({}, {(): QQ.zero})
    assert H.integral_of(H.cointegral()) == QQ.one
    # Delta(X1X2) = 1 (x) X1X2 + X1 (x) X2 - X2 (x) X1 + X1X2 (x) 1
    dc = H.iterated_coproduct(H.cointegral(), 2)
    assert dc.terms == {
        (0, 0b11): QQ.one,
        (0b01, 0b10): QQ.one,
        (0b10, 0b01): -QQ.one,
        (0b11, 0): QQ.one,
    }


def test_antipode_examples():
    H = ExteriorAlgebra(3)
    v = H.basis_element(0b001)
    assert H.antipode_of(v) == -v
    assert H.antipode_of(H.unit_element()) == H.unit_element()
    c = H.cointegral()
    expected = -c if H.n % 2 else c
    assert H.antipode_of(c) == expected
    for label in H.labels:
        assert H.antipode_of(H.antipode(label)) == H.basis_element(label)


def test_lambda_extend_examples():
    H = ExteriorAlgebra(2)
    ident = [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]
    Lid = lambda_extend(ident, H)
    assert all(Lid.apply_label(l) == H.basis_element(l) for l in H.labels)

    H1 = ExteriorAlgebra(1)
    t = [[QQ.from_rational(5)]]
    assert lambda_extend(t, H1).apply_label(1) == H1.basis_element(1).scale(
        QQ.from_rational(5))

    rng = random.Random(2)
    T = random_invertible(rng, 2)
    LT = lambda_extend(T, H)
    detT = minor_det(T, [0, 1], [0, 1], QQ)
    assert apply(LT, H.cointegral()) == H.cointegral().scale(detT)

    with pytest.raises(ValueError):
        lambda_extend([[QQ.zero, QQ.zero], [QQ.zero, QQ.zero]], H)


def test_lambda_functoriality():
    rng = random.Random(3)
    H = ExteriorAlgebra(3)
    for _ in range(5):
        T1, T2 = random_invertible(rng, 3), random_invertible(rng, 3)
        L1, L2 = lambda_extend(T1, H), lambda_extend(T2, H)
        L12 = lambda_extend(matmul(T1, T2, QQ), H)
        for label in H.labels:
            assert L12.apply_label(label) == apply(L1, L2.apply_label(label))


def test_sum_to_convolution():
    rng = random.Random(4)
    H = ExteriorAlgebra(2)
    for _ in range(5):
        T1, T2 = random_invertible(rng, 2), random_invertible(rng, 2)
        Tsum = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(T1, T2)]
        L1, L2 = lambda_extend(T1, H), lambda_extend(T2, H)
        Lsum_terms = {}
        for label in H.labels:
            acc = Element(H, {})
            for (l1, l2), c in H.comult(label).items():
                acc = acc + (L1.apply_label(l1) * L2.apply_label(l2)).scale(c)
            Lsum_terms[label] = acc
        det = minor_det(Tsum, [0, 1], [0, 1], QQ)
        if det.is_zero():
            # Lambda of a singular sum is still defined pointwise
            expected_images = {
                l: minor_image(Tsum, H, l) for l in H.labels
            }
        else:
            L = lambda_extend(Tsum, H)
            expected_images = {l: L.apply_label(l) for l in H.labels}
        for label in H.labels:
            assert Lsum_terms[label] == expected_images[label]


XI = NumberField([1, 1, 1])


def random_entry(rng, ring):
    if isinstance(ring, LaurentRing):
        return ring.from_terms({(rng.randint(-1, 1),): random_entry(rng, ring.field)
                                for _ in range(rng.randint(0, 2))})
    return ring.element([rng.randint(-2, 2) for _ in range(ring.degree)])


@pytest.mark.parametrize("ring", [QQ, XI, LaurentRing(XI, 1)],
                         ids=["QQ", "Q(xi)", "Q(xi)[t]"])
def test_apply_label_matches_minors(ring):
    # the ordered product of columns equals the expansion by minors at every
    # degree, also for matrices that are not invertible
    rng = random.Random(12)
    for n in (1, 2, 3, 4):
        H = ExteriorAlgebra(n, ring)
        for _ in range(3):
            T = [[random_entry(rng, ring) for _ in range(n)] for _ in range(n)]
            auto = HopfAutomorphism(H, matrix=T)
            for label in H.labels:
                assert auto.apply_label(label) == minor_image(T, H, label)


def test_decomposing_into_components():
    # Lambda(T) on Lambda(V (+) W) equals the four-component convolution
    # (m (x) m)(id (x) tau (x) id)(L_VV (x) L_VW (x) L_WV (x) L_WW)(Delta (x) Delta)
    import itertools

    rng = random.Random(11)
    n1, n2 = 1, 2
    N = n1 + n2
    HN, H1, H2 = ExteriorAlgebra(N), ExteriorAlgebra(n1), ExteriorAlgebra(n2)
    T = random_invertible(rng, N)
    AT = lambda_extend(T, HN)
    comp = {
        "vv": [[T[i][j] for j in range(n1)] for i in range(n1)],
        "vw": [[T[n1 + i][j] for j in range(n1)] for i in range(n2)],
        "wv": [[T[i][n1 + j] for j in range(n2)] for i in range(n1)],
        "ww": [[T[n1 + i][n1 + j] for j in range(n2)] for i in range(n2)],
    }

    def lam_apply(M, src_n, dst_n, mask):
        cols = [i for i in range(src_n) if mask >> i & 1]
        out = {}
        for rows in itertools.combinations(range(dst_n), len(cols)):
            d = minor_det(M, list(rows), cols, QQ)
            if not d.is_zero():
                mm = 0
                for r in rows:
                    mm |= 1 << r
                out[mm] = d
        return out

    for label in HN.labels:
        mv, mw = label & ((1 << n1) - 1), label >> n1
        acc = {}
        for (v1, v2), c1 in H1.comult(mv).items():
            for (w1, w2), c2 in H2.comult(mw).items():
                sgn = -1 if (bin(v2).count("1") % 2 and bin(w1).count("1") % 2) else 1
                for b1, d1 in lam_apply(comp["vv"], n1, n1, v1).items():
                    for b2, d2 in lam_apply(comp["wv"], n2, n1, w1).items():
                        ev = H1.mult(b1, b2)
                        for b3, d3 in lam_apply(comp["vw"], n1, n2, v2).items():
                            for b4, d4 in lam_apply(comp["ww"], n2, n2, w2).items():
                                ew = H2.mult(b3, b4)
                                for lv, cv in ev.terms.items():
                                    for lw, cw in ew.terms.items():
                                        key = lv | (lw << n1)
                                        c = c1 * c2 * d1 * d2 * d3 * d4 * cv * cw
                                        if sgn < 0:
                                            c = -c
                                        acc[key] = acc.get(key, QQ.zero) + c
        acc = {k: v for k, v in acc.items() if not v.is_zero()}
        assert acc == AT.apply_label(label).terms


def test_r_of_examples():
    H = ExteriorAlgebra(2)
    ident = [[QQ.one, QQ.zero], [QQ.zero, QQ.one]]
    assert r_of(lambda_extend(ident, H)) == QQ.one
    rng = random.Random(6)
    for _ in range(5):
        T1, T2 = random_invertible(rng, 2), random_invertible(rng, 2)
        L1, L2 = lambda_extend(T1, H), lambda_extend(T2, H)
        assert r_of(L1) == minor_det(T1, [0, 1], [0, 1], QQ)
        assert r_of(compose(L1, L2)) == r_of(L1) * r_of(L2)


def test_r_of_rejects_non_automorphism():
    H = ExteriorAlgebra(2)
    # a degree-preserving map that does not scale the cointegral
    bad = {l: H.basis_element(l) for l in H.labels}
    bad[0b11] = H.basis_element(0b11) + H.basis_element(0)
    with pytest.raises(ValueError):
        r_of(SimpleNamespace(algebra=H, apply_label=bad.__getitem__))


def test_mu_composed_with_automorphism_scales_by_r():
    rng = random.Random(8)
    for n in (1, 2, 3):
        H = ExteriorAlgebra(n)
        for _ in range(5):
            T = random_invertible(rng, n)
            L = lambda_extend(T, H)
            r = r_of(L)
            for label in H.labels:
                assert H.integral_of(L.apply_label(label)) == H.integral(label) * r


def test_super_permutation_sign():
    assert super_permutation_sign([0, 0, 0], [2, 0, 1]) == 1
    assert super_permutation_sign([1, 1], [1, 0]) == -1
    # 3-cycle on three odd factors: two odd swaps
    assert super_permutation_sign([1, 1, 1], [1, 2, 0]) == 1
    # composition consistency against brute force on random degrees
    rng = random.Random(10)
    for _ in range(30):
        k = rng.randint(1, 5)
        degs = [rng.randint(0, 2) for _ in range(k)]
        perm = list(range(k))
        rng.shuffle(perm)
        sign = 1
        seq = list(perm)
        # bubble back to identity counting odd-odd swaps
        for i in range(k):
            for j in range(k - 1):
                if seq[j] > seq[j + 1]:
                    if degs[seq[j]] % 2 and degs[seq[j + 1]] % 2:
                        sign = -sign
                    seq[j], seq[j + 1] = seq[j + 1], seq[j]
        assert super_permutation_sign(degs, perm) == sign


def test_cointegral_cocommutative():
    for n in (1, 2, 3):
        H = ExteriorAlgebra(n)
        report = verify_axioms(H)
        checks = dict((name, ok) for name, ok, _ in report.checks)
        assert checks["Delta(c) = Delta^op(c)"]
        assert checks["S(c) = (-1)^{|c|} c"]


def test_axioms_over_laurent_base_ring():
    # the base ring is a type parameter: the same algebra works over k[t,t^-1]
    ring = LaurentRing(QQ, 1)
    assert verify_axioms(ExteriorAlgebra(2, ring)).all_passed
