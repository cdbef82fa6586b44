import random

import pytest
from conftest import (
    data_path,
    figure_eight_sl2,
    generator_images,
    homology_diag_matrices,
    random_invertible,
    trefoil_braid_sl2,
    twisted_z,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from linalg_reference import minor_det
from paper_laws import (
    augmentation,
    basepoints_from_multipoint,
    check_covariance_suite,
    conjugated,
    enumerate_multipoints,
    epsilon_class,
    spinc_correction,
    with_generator_inverted,
    with_swapped,
)

from suturekup import (
    AbelianizationMap,
    EvaluationOptions,
    ExteriorAlgebra,
    LaurentRing,
    NumberField,
    QQ,
    Representation,
    Word,
    abelianize,
    crosscheck,
    evaluate_z,
    normalize_unit,
    parse_word,
    presentation,
    random_datum,
    twisted_alexander_knot,
    twisted_torsion,
)
from suturekup.diagram import CLOSED, BetaCurve, Crossing, HeegaardDatum
from suturekup.files import load_representation
from suturekup.fixtures import figure_eight, trefoil
from suturekup.kuperberg import EvaluationError, SingularRepresentationError, representation_for
from suturekup.linalg import bareiss_det, identity, inverse_and_det, matmul


def laurent(ring, terms):
    return ring.from_terms({e: ring.field.from_rational(c) for e, c in terms.items()})


def test_trefoil_twisted_value():
    z = twisted_z(trefoil(), 1)
    ring = z.ring
    assert z == laurent(ring, {(-1,): 1, (0,): -1, (1,): 1})
    assert str(z) == "t^-1 - 1 + t"
    assert str(normalize_unit(z)) == "1 - t + t^2"


def test_figure_eight_twisted_value():
    z = twisted_z(figure_eight(), 1)
    assert str(normalize_unit(z)) == "1 - 3*t + t^2"


def test_empty_diagram_evaluates_to_one():
    D = HeegaardDatum([], [], [], {})
    for n in (1, 2):
        H = ExteriorAlgebra(n)
        rep = Representation.trivial(0, n)
        assert evaluate_z(D, H, rep) == QQ.one


def test_single_positive_crossing_normalization():
    c = {"x1": Crossing("x1", CLOSED, 0, 0, 1)}
    D = HeegaardDatum([["x1"]], [], [BetaCurve(("x1",), 0)], c)
    for n in (1, 2, 3):
        H = ExteriorAlgebra(n)
        rep = Representation.trivial(1, n)
        assert evaluate_z(D, H, rep) == QQ.one


def test_empty_alpha_curve_gives_zero():
    # a closed curve with no crossings feeds the counit of the cointegral
    c = {"x1": Crossing("x1", CLOSED, 0, 0, 1)}
    D = HeegaardDatum([["x1"], []], [],
                      [BetaCurve(("x1",), 0), BetaCurve((), 0)], c)
    H = ExteriorAlgebra(1)
    rep = Representation.trivial(2, 1)
    assert evaluate_z(D, H, rep) == QQ.zero


def test_beta_with_only_arc_crossings_gives_zero():
    # that beta multiplies no slots, so its factor is mu(1) = 0 for n >= 1
    from suturekup.diagram import ARC

    c = {
        "x1": Crossing("x1", CLOSED, 0, 0, 1),
        "x2": Crossing("x2", CLOSED, 1, 0, 1),
        "y1": Crossing("y1", ARC, 0, 1, 1),
    }
    D = HeegaardDatum([["x1"], ["x2"]], [["y1"]],
                      [BetaCurve(("x1", "x2"), 0), BetaCurve(("y1",), 0)], c)
    from suturekup import validate

    assert validate(D).valid
    assert evaluate_z(D, ExteriorAlgebra(1), Representation.trivial(3, 1)) == QQ.zero


def test_identity_representation_is_untwisted_specialization():
    # rho == id gives the plain contraction, equal to the augmented twist
    for D in (trefoil(), figure_eight()):
        for n in (1, 2):
            H = ExteriorAlgebra(n)
            rep = Representation.trivial(D.num_generators, n)
            z = evaluate_z(D, H, rep)
            tz = twisted_z(D, n)
            assert augmentation(tz) == z


def test_figure_eight_sl2_det_expression():
    # the five pi_1-reduced subword images sum to the Fox image; Z is its det
    field, mats = figure_eight_sl2()
    D = figure_eight()
    pres = presentation(D)
    rep = Representation(field, 2, mats)
    assert rep.check_relators(pres) == []
    from suturekup import parse_word

    names = pres.generator_names()
    words = [
        (1, "a"),
        (-1, "a*alpha*a^-1*alpha^-1"),
        (1, "a*alpha*a^-1*alpha^-1*a"),
        (-1, "alpha^-1*a"),
        (1, "alpha^-1"),
    ]
    M = [[field.zero] * 2 for _ in range(2)]
    for s, text in words:
        mw = rep.word_matrix(parse_word(text, names))
        for i in range(2):
            for j in range(2):
                M[i][j] = M[i][j] + (mw[i][j] if s > 0 else -mw[i][j])
    det = minor_det(M, [0, 1], [0, 1], field)
    H = ExteriorAlgebra(2, field)
    assert evaluate_z(D, H, rep) == det


def test_trefoil_braid_sl2_relator_compatible():
    D = trefoil()
    mats = trefoil_braid_sl2()
    rep = Representation(QQ, 2, mats)
    assert rep.check_relators(presentation(D)) == []


def test_covariance_fixtures():
    rng = random.Random(1)
    for D in (trefoil(), figure_eight()):
        for n in (1, 2):
            mats = homology_diag_matrices(D, n)
            rep = Representation(QQ, n, mats)
            H = ExteriorAlgebra(n)
            report = check_covariance_suite(
                D, H, rep, conjugator=random_invertible(rng, n))
            assert report.all_passed, report.failures()


def test_covariance_random_data():
    rng = random.Random(2)
    for seed in range(8):
        D = random_datum(200 + seed, d=1 + seed % 2, l=seed % 2, max_crossings=4)
        n = 1 + seed % 2
        mats = homology_diag_matrices(D, n)
        rep = Representation(QQ, n, mats)
        H = ExteriorAlgebra(n)
        report = check_covariance_suite(
            D, H, rep, conjugator=random_invertible(rng, n))
        assert report.all_passed, (seed, report.failures())


def test_covariance_twisted():
    D = trefoil()
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(None, amap, 2)
    H = ExteriorAlgebra(2, rep.ring)
    phi = [[QQ.one, QQ.one], [QQ.zero, QQ.one]]
    report = check_covariance_suite(D, H, rep, conjugator=phi)
    assert report.all_passed, report.failures()


def test_conjugation_invariance_arbitrary_rep():
    # conjugation is a free-word-level identity: arbitrary matrices allowed
    rng = random.Random(3)
    for seed in range(5):
        D = random_datum(300 + seed, d=2, l=1, max_crossings=4)
        n = 2
        mats = [random_invertible(rng, n) for _ in range(D.num_generators)]
        rep = Representation(QQ, n, mats)
        H = ExteriorAlgebra(n)
        base = evaluate_z(D, H, rep)
        phi = random_invertible(rng, n)
        assert evaluate_z(D, H, conjugated(rep, phi)) == base


def test_multipoint_relation_trefoil():
    D = trefoil()
    mps = enumerate_multipoints(D)
    assert len(mps) >= 2
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(None, amap, 1)
    H = ExteriorAlgebra(1, rep.ring)
    for x in mps:
        for y in mps:
            zx = evaluate_z(basepoints_from_multipoint(D, x), H, rep)
            zy = evaluate_z(basepoints_from_multipoint(D, y), H, rep)
            corr = spinc_correction(D, x, y, rep)
            assert zx == corr * zy
            back = spinc_correction(D, y, x, rep)
            assert corr * back == rep.ring.one


def test_spinc_correction_same_multipoint_is_one():
    D = figure_eight()
    mps = enumerate_multipoints(D, limit=3)
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(None, amap, 1)
    for m in mps:
        assert spinc_correction(D, m, m, rep) == rep.ring.one


def test_spinc_correction_monomial_exponent():
    # for the n=1 twist the correction is t^k with k the h-image of the arcs
    D = trefoil()
    mps = enumerate_multipoints(D)
    pres = presentation(D)
    amap = abelianize(pres.num_generators, pres.relators)
    rep = Representation.twisted(None, amap, 1)
    for x in mps:
        for y in mps:
            corr = spinc_correction(D, x, y, rep)
            eps = epsilon_class(D, x, y, amap)
            assert corr == rep.ring.monomial(eps)


def test_multipoint_relation_mismatched_permutations():
    # d = 2 data can carry multipoints with different alpha/beta matchings;
    # the correction matches arcs per beta curve, so the relation still holds
    found = 0
    for seed in range(60):
        D = random_datum(500 + seed, d=2, l=1, max_crossings=4)
        mps = enumerate_multipoints(D, limit=6)
        if len(mps) < 2:
            continue

        def sigma_of(m):
            return tuple(D.crossings[cid].beta_index for cid in m.crossing_ids)

        pairs = [(x, y) for x in mps for y in mps if sigma_of(x) != sigma_of(y)]
        if not pairs:
            continue
        pres = presentation(D)
        amap = abelianize(pres.num_generators, pres.relators)
        rep = Representation.twisted(None, amap, 1)
        H = ExteriorAlgebra(1, rep.ring)
        for x, y in pairs[:3]:
            zx = evaluate_z(basepoints_from_multipoint(D, x), H, rep)
            zy = evaluate_z(basepoints_from_multipoint(D, y), H, rep)
            assert zx == spinc_correction(D, x, y, rep) * zy
        found += 1
        if found >= 3:
            break
    assert found >= 1


def test_homology_orientation_sign():
    D = trefoil()
    rep1 = Representation.trivial(2, 1)
    H1 = ExteriorAlgebra(1)
    plus = evaluate_z(D, H1, rep1)
    minus = evaluate_z(D, H1, rep1, EvaluationOptions(homology_orientation_sign=-1))
    assert minus == -plus          # |c| odd for n = 1
    rep2 = Representation.trivial(2, 2)
    H2 = ExteriorAlgebra(2)
    plus2 = evaluate_z(D, H2, rep2)
    minus2 = evaluate_z(D, H2, rep2, EvaluationOptions(homology_orientation_sign=-1))
    assert minus2 == plus2         # |c| even for n = 2


def test_missing_generator_rejected():
    D = trefoil()
    rep = Representation.trivial(1, 1)   # only one generator covered
    H = ExteriorAlgebra(1)
    with pytest.raises(Exception):
        evaluate_z(D, H, rep)


def test_relator_check_warns_for_random_matrices():
    rng = random.Random(9)
    D = trefoil()
    pres = presentation(D)
    mats = [random_invertible(rng, 2) for _ in range(2)]
    rep = Representation(QQ, 2, mats)
    bad = rep.check_relators(pres)
    assert bad == [0]


def test_twisted_ring_has_free_rank_variables():
    D = figure_eight()
    z = twisted_z(D, 1)
    assert isinstance(z.ring, LaurentRing)
    assert z.ring.nvars == 1


XI = NumberField([1, 1, 1])


def random_xi_matrix(rng, n):
    while True:
        m = [[XI.element([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(n)]
             for _ in range(n)]
        if not minor_det(m, list(range(n)), list(range(n)), XI).is_zero():
            return m


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twisted_inverses_over_the_field(n):
    rng = random.Random(70 + n)
    for amap in (abelianize(2, []), abelianize(3, [Word(((0, 1), (0, 1), (2, -1)))])):
        mats = [random_xi_matrix(rng, n) for _ in range(amap.num_generators)]
        rep = Representation.twisted(mats, amap, n, XI)
        ring = rep.ring
        ident = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
        inverses = generator_images(rep, -1)
        for g, m in enumerate(generator_images(rep)):
            assert matmul(m, inverses[g], ring) == ident
            assert matmul(inverses[g], m, ring) == ident


def test_given_and_derived_representations_pass_on_inverses():
    rng = random.Random(77)
    amap = abelianize(3, [])
    rep = Representation.twisted([random_xi_matrix(rng, 2) for _ in range(3)], amap, 2, XI)
    for derived in (with_generator_inverted(rep, 1), with_swapped(rep, 0, 2),
                    rep.inverse_transpose()):
        for m, inv in zip(generator_images(derived), generator_images(derived, -1)):
            assert matmul(m, inv, rep.ring) == rep.identity == matmul(inv, m, rep.ring)


def test_singular_matrix_names_its_generator():
    one, zero = XI.one, XI.zero
    rank_one = [[one, one], [one, one]]
    ident = [[one, zero], [zero, one]]
    amap = abelianize(2, [])
    with pytest.raises(SingularRepresentationError) as info:
        Representation.twisted([ident, rank_one], amap, 2, XI)
    assert info.value.generator == 1
    with pytest.raises(SingularRepresentationError) as info:
        Representation(XI, 2, [rank_one, ident])
    assert info.value.generator == 0
    info.value.name = "alpha"
    assert str(info.value) == ("representation matrix of generator 'alpha' is not invertible "
                               "(determinant 0)")


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rank=st.integers(0, 3), n=st.integers(1, 3),
       field=st.sampled_from([QQ, XI]), seed=st.integers(0, 2**32 - 1))
def test_word_matrix_is_the_laurent_product(data, rank, n, field, seed):
    rng = random.Random(seed)
    m = data.draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-3, 3)] * rank)
    images = [data.draw(exps) for _ in range(m)]
    mats = [(random_xi_matrix if field is XI else random_invertible)(rng, n) for _ in range(m)]
    rep = Representation.twisted(mats, AbelianizationMap(m, rank, images, []), n, field)
    ring = rep.ring
    lifted, inverses = generator_images(rep), generator_images(rep, -1)
    for g in range(m):
        assert lifted[g] == [[ring.monomial(images[g], c) for c in row] for row in mats[g]]
    letters = st.tuples(st.integers(0, m - 1), st.sampled_from((1, -1)))
    w = Word(data.draw(st.lists(letters, max_size=8)))
    expected = rep.identity
    for g, s in w.letters:
        expected = matmul(expected, lifted[g] if s == 1 else inverses[g], ring)
    assert rep.word_matrix(w) == expected


def parabolic_matrices(alpha=None):
    """The figure-eight's shipped Q(xi) matrices, with alpha's replaced when given."""
    rep_file = load_representation(data_path("figure8_parabolic_rep.json"))
    if alpha is not None:
        rep_file.matrices["alpha"] = alpha
    return rep_file.matrices_for(figure_eight().generator_names())


def test_field_comes_from_the_entries():
    mats = parabolic_matrices()
    report = crosscheck(figure_eight(), 2, mats, twisted=True)
    assert report.passed and str(report.z_value) == "1 - 6*t + 10*t^2 - 6*t^3 + t^4"
    pres = presentation(figure_eight())
    result = twisted_alexander_knot(pres, mats, parse_word("a", pres.generator_names()), 2)
    assert str(normalize_unit(result.quotient)) == "1 - 4*t + t^2"
    m = [[XI.generator(), XI.one], [XI.one, XI.generator()]]
    assert matmul(m, generator_images(Representation(XI, 2, [m]), -1)[0], XI) == identity(2, XI)


def parabolic_twisted(dim):
    """evaluate_z's arguments on the figure-eight through its shipped matrices, twisted,
    with an exterior algebra of dimension dim over the representation's ring."""
    D = figure_eight()
    rep = representation_for(presentation(D), 2, parabolic_matrices(), twisted=True)
    return D, ExteriorAlgebra(dim, rep.ring), rep, None


@pytest.mark.parametrize("build", [
    pytest.param(lambda: crosscheck(figure_eight(), 2, parabolic_matrices(), twisted=True,
                                    field=QQ), id="crosscheck-field-QQ"),
    pytest.param(lambda: Representation(QQ, 2, [[[XI.generator(), XI.one],
                                                   [XI.one, XI.generator()]]]),
                 id="constructor-QQ"),
    pytest.param(lambda: Representation.twisted([[[XI.one]], [[QQ.one]]], abelianize(2, []), 1),
                 id="mixed-fields"),
    pytest.param(lambda: Representation(LaurentRing(QQ, 1), 1, [[[LaurentRing(XI, 1).one]]]),
                 id="laurent-ring"),
    pytest.param(lambda: Representation(QQ, 1, [[[1]]]), id="int-entry"),
])
def test_entries_over_another_field_are_refused(build):
    with pytest.raises(EvaluationError, match=r"^matrix entry .* is over .*, not "):
        build()


@pytest.mark.parametrize("call", [
    pytest.param(lambda D, mats: crosscheck(D, 2, mats), id="crosscheck"),
    pytest.param(lambda D, mats: crosscheck(D, 2, mats, twisted=True), id="crosscheck-twisted"),
    pytest.param(lambda D, mats: twisted_alexander_knot(
        presentation(D), mats, parse_word("a", D.generator_names())), id="twisted-alexander"),
])
def test_library_calls_name_the_singular_generator(call):
    mats = parabolic_matrices(alpha=[[XI.one, XI.one], [XI.one, XI.one]])
    with pytest.raises(SingularRepresentationError) as info:
        call(figure_eight(), mats)
    assert info.value.name == "alpha"
    assert "generator 'alpha' is not invertible" in str(info.value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda pres, mats: twisted_torsion(pres, mats, n=1), id="twisted-torsion"),
    pytest.param(lambda pres, mats: twisted_alexander_knot(
        pres, mats, parse_word("a", pres.generator_names()), 1), id="twisted-alexander"),
    pytest.param(lambda pres, mats: crosscheck(trefoil(), 1, mats), id="crosscheck"),
])
def test_library_calls_with_too_few_matrices_are_refused(call):
    with pytest.raises(EvaluationError, match="^representation does not cover all generators$"):
        call(presentation(trefoil()), [[[QQ.one]]])


@pytest.mark.parametrize("mats", [
    pytest.param([[[QQ.one]]], id="1x1-for-2x2"),
    pytest.param([[[QQ.one, QQ.zero], [QQ.zero]]], id="short-row"),
])
def test_matrix_of_the_wrong_size_is_refused(mats):
    with pytest.raises(EvaluationError, match="representation matrix has the wrong size"):
        Representation(QQ, 2, mats)
    with pytest.raises(EvaluationError, match="representation matrix has the wrong size"):
        Representation.twisted(mats, abelianize(1, []), 2)


def test_identity_representations_skip_inversion(monkeypatch):
    swept = []

    def counted(m, field):
        swept.append(m)
        return inverse_and_det(m, field)

    monkeypatch.setattr("suturekup.kuperberg.inverse_and_det", counted)
    amap = abelianize(2, [Word.generator(0) * Word.generator(1)])
    for rep in (Representation.trivial(3, 2), Representation.twisted(None, amap, 2)):
        ring = rep.ring
        for m, inv in zip(generator_images(rep), generator_images(rep, -1)):
            assert matmul(m, inv, ring) == rep.identity == matmul(inv, m, ring)
    assert swept == []
    # identities the caller passes are told apart by value, and only M, whose
    # diagonal is the identity's, is swept
    ident, m = identity(2, QQ), [[QQ.one, QQ.from_rational(2)], [QQ.from_rational(3), QQ.one]]
    plain = Representation(QQ, 2, [identity(2, QQ), m])
    assert swept == [m]
    twisted = Representation.twisted([identity(2, QQ), identity(2, QQ)], amap, 2)
    assert swept == [m]
    for rep, mats in ((plain, [ident, m]), (twisted, [ident, ident])):
        for g, mat in enumerate(mats):
            assert (rep.word_inverse([(g, 1)]), rep.word_det([(g, 1)])) == \
                inverse_and_det(mat, QQ)


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda D: (HeegaardDatum(D.alphas, D.arcs, D.betas[:0], D.crossings),
                            ExteriorAlgebra(1), Representation.trivial(2, 1), None),
                 "invalid diagram: unbalanced diagram", id="invalid-diagram"),
    pytest.param(lambda D: (D, ExteriorAlgebra(1, LaurentRing(QQ, 1)),
                            Representation.trivial(2, 1), None),
                 "representation ring does not match the algebra ring", id="ring-mismatch"),
    pytest.param(lambda D: (D, ExteriorAlgebra(1), Representation.trivial(2, 1),
                            EvaluationOptions(homology_orientation_sign=2)),
                 r"homology orientation sign must be \+1 or -1", id="homology-sign"),
    pytest.param(lambda D: parabolic_twisted(1),
                 "^algebra dimension 1 does not match representation dimension 2$",
                 id="dimension-1-for-2"),
    pytest.param(lambda D: parabolic_twisted(3),
                 "^algebra dimension 3 does not match representation dimension 2$",
                 id="dimension-3-for-2"),
])
def test_evaluate_z_refuses_bad_input(make, message):
    with pytest.raises(EvaluationError, match=message):
        evaluate_z(*make(trefoil()))


CUBIC = NumberField([-2, 0, 0, 1])


def random_field_matrix(rng, n, field):
    while True:
        m = [[field.element([rng.randint(-2, 2) for _ in range(field.degree)])
              for _ in range(n)] for _ in range(n)]
        if not bareiss_det(m, field).is_zero():
            return m


def field_representation(kind, field, rng, n=2, m=3):
    """A plain, twisted or trivial representation of m generators over field, or the
    inverse transpose of one (kind ending in "-T")."""
    amap = abelianize(m, [Word.generator(0) * Word.generator(1) ** 2])
    mats = [random_field_matrix(rng, n, field) for _ in range(m)]
    base = kind.removesuffix("-T")
    rep = {"plain": lambda: Representation(field, n, mats),
           "twisted": lambda: Representation.twisted(mats, amap, n, field),
           "trivial": lambda: Representation.trivial(m, n, field)}[base]()
    return rep.inverse_transpose() if kind.endswith("-T") else rep


REP_KINDS = ["plain", "twisted", "trivial", "plain-T", "twisted-T", "trivial-T"]
REP_FIELDS = [pytest.param(QQ, id="QQ"), pytest.param(XI, id="Qxi"),
              pytest.param(CUBIC, id="Qcbrt2")]


@pytest.mark.parametrize("field", REP_FIELDS)
@pytest.mark.parametrize("kind", REP_KINDS)
def test_letter_determinants_are_their_images_determinants(kind, field):
    rep = field_representation(kind, field, random.Random(80 + field.degree))
    for letter in [(g, s) for g in range(rep.num_generators) for s in (1, -1)]:
        image = rep.prefix_walk([letter])[-1][1]
        det = rep.word_det([letter])
        assert det == bareiss_det(image, field)
        assert det == field.one or not kind.startswith("trivial")


@pytest.mark.parametrize("field", REP_FIELDS)
@pytest.mark.parametrize("kind", REP_KINDS)
def test_walked_inverse_is_the_sweep_of_the_walked_matrix(kind, field):
    rng = random.Random(90 + field.degree)
    rep = field_representation(kind, field, rng)
    for length in [0, 1, 2, 3, 5, 8] * 3:
        letters = [(rng.randrange(rep.num_generators), rng.choice((1, -1)))
                   for _ in range(length)]
        walked = rep.prefix_walk(letters)[-1][1]
        assert (rep.word_inverse(letters), rep.word_det(letters)) == inverse_and_det(walked, field)


@pytest.mark.parametrize("field", REP_FIELDS)
@pytest.mark.parametrize("kind", REP_KINDS)
def test_word_det_is_the_determinant_of_the_walked_matrix(kind, field):
    rng = random.Random(95 + field.degree)
    rep = field_representation(kind, field, rng)
    for length in [0, 1, 2, 3, 5, 8] * 3:
        letters = [(rng.randrange(rep.num_generators), rng.choice((1, -1)))
                   for _ in range(length)]
        walked = rep.prefix_walk(letters)[-1][1]
        assert rep.word_det(letters) == bareiss_det(walked, field)
