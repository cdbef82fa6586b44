"""Acceptance suite: one criterion per test, one printed PASS line each.

Every comparison is exact; the stated runtime budgets are asserted.
"""

import io
import random
import time
from contextlib import redirect_stdout

from conftest import data_path, homology_diag_matrices, random_invertible, twisted_z
from linalg_reference import minor_det
from paper_laws import (
    augmentation,
    basepoints_from_multipoint,
    check_covariance_suite,
    enumerate_multipoints,
    lambda_extend,
    r_of,
    spinc_correction,
)

from suturekup import (
    ExteriorAlgebra,
    GroupRingElement,
    QQ,
    Representation,
    Word,
    abelianize,
    evaluate_z,
    fox_derivative,
    normalize_unit,
    presentation,
    random_datum,
    twisted_torsion,
    verify_axioms,
)
from suturekup.cli import main as cli_main
from suturekup.files import load_diagram, load_presentation
from suturekup.torsion import crosscheck


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _fixture_path(name):
    from importlib import resources

    return str(resources.files("suturekup").joinpath("data", name))


def test_criterion_1_trefoil_paper_value():
    start = time.monotonic()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main([
            "kuperberg", _fixture_path("trefoil.json"),
            "--hopf", "exterior:1", "--twisted",
        ])
    assert code == 0
    assert buf.getvalue() == "t^-1 - 1 + t\n"
    z = twisted_z(load_diagram(data_path("trefoil.json")), 1)
    assert str(z) == "t^-1 - 1 + t"
    assert str(normalize_unit(z)) == "1 - t + t^2"
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(1, f'trefoil twisted value "t^-1 - 1 + t" ({elapsed:.2f}s)')


def test_criterion_2_figure_eight_against_wirtinger_oracle():
    start = time.monotonic()
    z = twisted_z(load_diagram(data_path("figure8.json")), 1)
    normalized = normalize_unit(z)
    assert str(normalized) == "1 - 3*t + t^2"
    oracle = twisted_torsion(load_presentation(_fixture_path("figure8_wirtinger.json")))
    assert normalized == oracle.normalized
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _announce(2, f"figure-eight value 1 - 3*t + t^2 matches the Wirtinger oracle "
                 f"({elapsed:.2f}s)")


# twisted values collected for the augmentation criterion
_AUGMENTATION_PAIRS = []


def test_criterion_3_oracle_equivalence_on_random_data():
    start = time.monotonic()
    rng = random.Random(20260809)
    checked = 0
    for k in range(50):
        d = 1 + k % 2
        l = k % 3
        n = 1 + k % 3
        D = random_datum(9000 + k, d, l, 6)
        pres = presentation(D)
        mats = [random_invertible(rng, n) for _ in range(pres.num_generators)]
        plain = crosscheck(D, n, mats, twisted=False)
        assert plain.passed, f"untwisted mismatch at seed {9000 + k}"
        twisted = crosscheck(D, n, mats, twisted=True)
        assert twisted.passed, f"twisted mismatch at seed {9000 + k}"
        _AUGMENTATION_PAIRS.append((twisted.z_value, plain.z_value))
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 50
    assert elapsed < 30.0
    _announce(3, f"Z equals the Fox determinant exactly on 50 random data, "
                 f"twisted and untwisted ({elapsed:.2f}s)")


def test_criterion_4_hopf_axiom_suite():
    start = time.monotonic()
    rng = random.Random(4)
    for n in (1, 2, 3):
        H = ExteriorAlgebra(n)
        report = verify_axioms(H)
        assert report.all_passed, report.lines()
        for _ in range(20):
            T = random_invertible(rng, n)
            L = lambda_extend(T, H)
            r = r_of(L)
            assert r == minor_det(T, list(range(n)), list(range(n)), QQ)
            for label in H.labels:
                assert H.integral_of(L.apply_label(label)) == H.integral(label) * r
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _announce(4, f"all Hopf axioms pass for exterior n = 1, 2, 3 and "
                 f"mu o Lambda(T) = det(T) mu on 20 random T each ({elapsed:.2f}s)")


def test_criterion_5_covariance_suite():
    start = time.monotonic()
    rng = random.Random(5)
    data = [load_diagram(data_path("trefoil.json")), load_diagram(data_path("figure8.json"))]
    data += [random_datum(7000 + k, d=1 + k % 2, l=k % 2, max_crossings=4)
             for k in range(20)]
    for idx, D in enumerate(data):
        n = 1 + idx % 2
        mats = homology_diag_matrices(D, n)
        rep = Representation(QQ, n, mats)
        H = ExteriorAlgebra(n)
        report = check_covariance_suite(
            D, H, rep, conjugator=random_invertible(rng, n))
        assert report.all_passed, (idx, report.failures())
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _announce(5, f"basepoint, orientation, conjugation and ordering covariances "
                 f"hold on fixtures and 20 random data ({elapsed:.2f}s)")


def test_criterion_6_augmentation():
    # fixture values from criteria 1 and 2
    pairs = list(_AUGMENTATION_PAIRS)
    for D in (load_diagram(data_path("trefoil.json")), load_diagram(data_path("figure8.json"))):
        for n in (1, 2):
            tz = twisted_z(D, n)
            rep = Representation.trivial(D.num_generators, n)
            z = evaluate_z(D, ExteriorAlgebra(n), rep)
            pairs.append((tz, z))
    for tz, z in pairs:
        assert augmentation(tz) == z
    _announce(6, f"augmentation of every twisted value equals the untwisted "
                 f"value ({len(pairs)} pairs)")


def test_criterion_7_multipoint_relation():
    D = load_diagram(data_path("trefoil.json"))
    mps = enumerate_multipoints(D)
    assert len(mps) >= 2
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    for n in (1, 2):
        rep = Representation.twisted(None, amap, n)
        H = ExteriorAlgebra(n, rep.ring)
        for x in mps:
            for y in mps:
                zx = evaluate_z(basepoints_from_multipoint(D, x), H, rep)
                zy = evaluate_z(basepoints_from_multipoint(D, y), H, rep)
                assert zx == spinc_correction(D, x, y, rep) * zy
    _announce(7, f"Z anchored at x equals spinc_correction(x, y) * Z anchored "
                 f"at y for all {len(mps)}^2 pairs, n = 1, 2")


def test_criterion_8_fox_identities():
    rng = random.Random(8)
    num_gens = 3
    for _ in range(200):
        length = rng.randint(0, 12)
        u = Word([(rng.randrange(num_gens), rng.choice((1, -1)))
                  for _ in range(length)])
        v = Word([(rng.randrange(num_gens), rng.choice((1, -1)))
                  for _ in range(rng.randint(0, 12))])
        one, total = GroupRingElement(QQ, {Word.identity(): QQ.one}), GroupRingElement(QQ)
        for g in range(num_gens):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + (
                GroupRingElement(QQ, {u: QQ.one}) * fox_derivative(v, g))
            assert lhs == rhs
            gw = GroupRingElement(QQ, {Word.generator(g): QQ.one})
            total = total + fox_derivative(u, g) * (gw - one)
        assert total == GroupRingElement(QQ, {u: QQ.one}) - one
    _announce(8, "Leibniz rule and fundamental Fox identity on 200 random words")
